#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <initializer_list>
#include <set>
#include <sstream>

#include "core/features.hpp"
#include "core/pfm.hpp"
#include "core/sec.hpp"
#include "util/rng.hpp"
#include "util/check.hpp"

namespace {

using namespace dqn::core;
using dqn::traffic::packet;
using dqn::traffic::packet_event;
using dqn::traffic::packet_stream;

packet_stream make_stream(std::initializer_list<std::pair<double, std::uint32_t>> items) {
  packet_stream s;
  std::uint64_t pid = 0;
  for (const auto& [time, bytes] : items) {
    packet p;
    p.pid = pid++;
    p.flow_id = static_cast<std::uint32_t>(pid % 3);
    p.size_bytes = bytes;
    s.push_back({p, time});
  }
  return s;
}

TEST(features, row_layout_and_iat) {
  const auto stream = make_stream({{0.0, 100}, {0.5, 200}, {0.6, 300}});
  scheduler_context ctx;
  ctx.kind = dqn::des::scheduler_kind::fifo;
  const auto rows = compute_features(stream, ctx);
  ASSERT_EQ(rows.size(), 3 * feature_count);
  EXPECT_DOUBLE_EQ(rows[0 * feature_count + f_len], 100.0);
  EXPECT_DOUBLE_EQ(rows[0 * feature_count + f_iat], 0.0);  // first packet
  EXPECT_DOUBLE_EQ(rows[1 * feature_count + f_iat], 0.5);
  EXPECT_NEAR(rows[2 * feature_count + f_iat], 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(rows[0 * feature_count + f_sched_fifo], 1.0);
  EXPECT_DOUBLE_EQ(rows[0 * feature_count + f_sched_wfq], 0.0);
}

TEST(features, workload_ema_uses_smoothing_factor) {
  const auto stream = make_stream({{0.0, 1000}, {1.0, 0}});
  scheduler_context ctx;
  const auto rows = compute_features(stream, ctx);
  // First packet seeds the EMA; second: 0.95*1000 + 0.05*0.
  EXPECT_DOUBLE_EQ(rows[0 * feature_count + f_workload_bytes], 1000.0);
  EXPECT_DOUBLE_EQ(rows[1 * feature_count + f_workload_bytes], 950.0);
}

TEST(features, scheduler_one_hot_is_exclusive) {
  const auto stream = make_stream({{0.0, 100}});
  for (const auto kind :
       {dqn::des::scheduler_kind::fifo, dqn::des::scheduler_kind::sp,
        dqn::des::scheduler_kind::wrr, dqn::des::scheduler_kind::drr,
        dqn::des::scheduler_kind::wfq}) {
    scheduler_context ctx;
    ctx.kind = kind;
    const auto rows = compute_features(stream, ctx);
    double one_hot_sum = 0;
    for (std::size_t f = f_sched_fifo; f <= f_sched_wfq; ++f)
      one_hot_sum += rows[f];
    EXPECT_DOUBLE_EQ(one_hot_sum, 1.0);
  }
}

TEST(features, weight_of_uses_class_table) {
  scheduler_context ctx;
  ctx.kind = dqn::des::scheduler_kind::wfq;
  ctx.class_weights = {9.0, 4.0, 1.0};
  packet p;
  p.priority = 1;
  EXPECT_DOUBLE_EQ(ctx.weight_of(p), 4.0);
  p.priority = 7;  // out of range clamps to last class
  EXPECT_DOUBLE_EQ(ctx.weight_of(p), 1.0);
}

TEST(windows, sliding_window_alignment) {
  const auto stream = make_stream({{0.0, 100}, {0.1, 200}, {0.2, 300}, {0.3, 400}});
  scheduler_context ctx;
  const auto rows = compute_features(stream, ctx);
  const auto windows = make_windows(rows, 3);
  // 4 windows of 3 steps each.
  ASSERT_EQ(windows.size(), 4 * 3 * feature_count);
  // Window 3 (last) covers rows 1,2,3.
  EXPECT_DOUBLE_EQ(windows[(3 * 3 + 0) * feature_count + f_len], 200.0);
  EXPECT_DOUBLE_EQ(windows[(3 * 3 + 2) * feature_count + f_len], 400.0);
  // Window 0 is front-padded with row 0.
  EXPECT_DOUBLE_EQ(windows[(0 * 3 + 0) * feature_count + f_len], 100.0);
  EXPECT_DOUBLE_EQ(windows[(0 * 3 + 1) * feature_count + f_len], 100.0);
  EXPECT_DOUBLE_EQ(windows[(0 * 3 + 2) * feature_count + f_len], 100.0);
}

TEST(windows, rejects_bad_shapes) {
  std::vector<double> rows(feature_count + 1, 0.0);
  EXPECT_THROW((void)make_windows(rows, 3), dqn::util::contract_violation);
  std::vector<double> good(feature_count, 0.0);
  EXPECT_THROW((void)make_windows(good, 0), dqn::util::contract_violation);
}

// --- PFM -------------------------------------------------------------------

TEST(pfm, routes_by_flow_and_sorts_by_time) {
  std::vector<packet_stream> ingress(2);
  packet a;
  a.pid = 1;
  a.flow_id = 0;
  packet b;
  b.pid = 2;
  b.flow_id = 1;
  ingress[0].push_back({a, 0.5});
  ingress[1].push_back({b, 0.2});
  auto forward = [](std::uint32_t fid, std::size_t) -> std::size_t {
    return fid == 0 ? 1u : 1u;  // both to egress 1
  };
  const auto egress = apply_forwarding(ingress, forward, 2);
  ASSERT_EQ(egress[1].size(), 2u);
  EXPECT_TRUE(egress[0].empty());
  EXPECT_EQ(egress[1][0].pkt.pid, 2u);  // earlier time first
  EXPECT_EQ(egress[1][1].pkt.pid, 1u);
}

TEST(pfm, conservation_no_packet_lost_or_duplicated) {
  dqn::util::rng rng{3};
  std::vector<packet_stream> ingress(4);
  std::size_t total = 0;
  for (std::size_t port = 0; port < 4; ++port) {
    double t = 0;
    for (int i = 0; i < 50; ++i) {
      t += rng.exponential(100.0);
      packet p;
      p.pid = port * 1000 + static_cast<std::uint64_t>(i);
      p.flow_id = static_cast<std::uint32_t>(rng.uniform_int(8));
      ingress[port].push_back({p, t});
      ++total;
    }
  }
  auto forward = [](std::uint32_t fid, std::size_t) -> std::size_t {
    return fid % 4;
  };
  const auto egress = apply_forwarding(ingress, forward, 4);
  std::set<std::uint64_t> pids;
  std::size_t egress_total = 0;
  for (const auto& stream : egress) {
    EXPECT_TRUE(dqn::traffic::is_time_ordered(stream));
    for (const auto& ev : stream) {
      EXPECT_TRUE(pids.insert(ev.pkt.pid).second);
      ++egress_total;
    }
  }
  EXPECT_EQ(egress_total, total);
}

TEST(pfm, dense_tensor_matches_sparse_application) {
  dqn::util::rng rng{4};
  std::vector<packet_stream> ingress(3);
  for (std::size_t port = 0; port < 3; ++port) {
    double t = 0;
    for (int i = 0; i < 20; ++i) {
      t += rng.exponential(10.0);
      packet p;
      p.pid = port * 100 + static_cast<std::uint64_t>(i);
      p.flow_id = static_cast<std::uint32_t>(rng.uniform_int(5));
      ingress[port].push_back({p, t});
    }
  }
  auto forward = [](std::uint32_t fid, std::size_t in_port) -> std::size_t {
    return (fid + in_port) % 3;
  };
  const auto tensor = build_forwarding_tensor(ingress, forward, 3);
  const auto via_tensor = apply_tensor(tensor, ingress);
  const auto via_sparse = apply_forwarding(ingress, forward, 3);
  ASSERT_EQ(via_tensor.size(), via_sparse.size());
  for (std::size_t port = 0; port < 3; ++port) {
    ASSERT_EQ(via_tensor[port].size(), via_sparse[port].size());
    for (std::size_t i = 0; i < via_tensor[port].size(); ++i)
      EXPECT_EQ(via_tensor[port][i].pkt.pid, via_sparse[port][i].pkt.pid);
  }
}

TEST(pfm, tensor_rows_have_unit_fanout) {
  std::vector<packet_stream> ingress(2);
  packet p;
  p.pid = 0;
  p.flow_id = 3;
  ingress[0].push_back({p, 0.0});
  const auto tensor = build_forwarding_tensor(
      ingress, [](std::uint32_t, std::size_t) { return 1u; }, 2);
  EXPECT_EQ(tensor.fanout(0, 0), 1u);  // real packet: exactly one egress
  EXPECT_EQ(tensor.fanout(1, 0), 0u);  // padding: no egress
}

// --- SEC ---------------------------------------------------------------------

TEST(sec, corrects_constant_bias) {
  // Predictor overestimates by exactly 0.5 everywhere.
  std::vector<double> predictions, truths;
  dqn::util::rng rng{5};
  for (int i = 0; i < 200; ++i) {
    const double truth = rng.uniform(1.0, 2.0);
    truths.push_back(truth);
    predictions.push_back(truth + 0.5);
  }
  sec_table sec;
  sec.fit(predictions, truths, 0.2, 4);
  ASSERT_TRUE(sec.fitted());
  EXPECT_NEAR(sec.correct(1.8), 1.3, 0.1);
}

TEST(sec, corrects_region_dependent_bias) {
  // Overestimates small sojourns, underestimates large ones (the paper's
  // Figure 6 shape: error is not monotonic but locally consistent).
  std::vector<double> predictions, truths;
  dqn::util::rng rng{6};
  for (int i = 0; i < 300; ++i) {
    const double truth = rng.uniform(0.0, 1.0);
    truths.push_back(truth);
    predictions.push_back(truth + 0.2);
  }
  for (int i = 0; i < 300; ++i) {
    const double truth = rng.uniform(5.0, 6.0);
    truths.push_back(truth);
    predictions.push_back(truth - 0.3);
  }
  sec_table sec;
  sec.fit(predictions, truths, 0.02, 6);
  ASSERT_GE(sec.bins().size(), 2u);
  EXPECT_NEAR(sec.correct(0.7), 0.5, 0.1);   // subtract +0.2 bias
  EXPECT_NEAR(sec.correct(5.2), 5.5, 0.1);   // add back the -0.3 bias
}

TEST(sec, unfitted_table_is_identity) {
  const sec_table sec;
  EXPECT_DOUBLE_EQ(sec.correct(3.14), 3.14);
}

TEST(sec, degenerate_constant_predictions_single_bin) {
  std::vector<double> predictions(50, 2.0);
  std::vector<double> truths(50, 1.5);
  sec_table sec;
  sec.fit(predictions, truths);
  ASSERT_EQ(sec.bins().size(), 1u);
  EXPECT_NEAR(sec.correct(2.0), 1.5, 1e-9);
}

TEST(sec, save_load_roundtrip) {
  std::vector<double> predictions, truths;
  dqn::util::rng rng{7};
  for (int i = 0; i < 100; ++i) {
    const double truth = rng.uniform(0.0, 1.0);
    truths.push_back(truth);
    predictions.push_back(truth + 0.1);
  }
  sec_table sec;
  sec.fit(predictions, truths, 0.1, 4);
  std::stringstream buffer;
  sec.save(buffer);
  sec_table loaded;
  loaded.load(buffer);
  EXPECT_EQ(loaded.bins().size(), sec.bins().size());
  EXPECT_DOUBLE_EQ(loaded.correct(0.5), sec.correct(0.5));
}

TEST(sec, quantile_fallback_on_dense_predictions) {
  // Uniformly dense predictions chain into one DBSCAN cluster; the fallback
  // must still produce multiple bins with local corrections.
  std::vector<double> predictions, truths;
  dqn::util::rng rng{8};
  for (int i = 0; i < 2000; ++i) {
    const double truth = rng.uniform(0.0, 10.0);
    truths.push_back(truth);
    // Bias grows linearly with the prediction: +0 at 0, +1 at 10.
    predictions.push_back(truth + truth / 10.0);
  }
  sec_table sec;
  sec.fit(predictions, truths, 0.05, 8);
  ASSERT_GE(sec.bins().size(), 4u);
  // Local corrections: small predictions barely corrected, large ones by ~1.
  EXPECT_NEAR(sec.correct(0.5), 0.5, 0.3);
  EXPECT_NEAR(sec.correct(10.0), 9.1, 0.5);
}

TEST(features, unfinished_work_lindley_recursion) {
  // Two back-to-back 1250-byte packets on a 10 Gbps line: the second one
  // finds exactly one service time (1 us) of unfinished work.
  packet_stream stream;
  packet p;
  p.pid = 1;
  p.size_bytes = 1250;
  stream.push_back({p, 0.0});
  p.pid = 2;
  stream.push_back({p, 0.0});
  p.pid = 3;
  stream.push_back({p, 10.0});  // long gap: queue fully drains
  scheduler_context ctx;  // bandwidth 10 Gbps default
  const auto rows = compute_features(stream, ctx);
  EXPECT_DOUBLE_EQ(rows[0 * feature_count + f_unfinished_work], 0.0);
  EXPECT_NEAR(rows[1 * feature_count + f_unfinished_work], 1e-6, 1e-12);
  EXPECT_DOUBLE_EQ(rows[2 * feature_count + f_unfinished_work], 0.0);
}

TEST(features, unfinished_work_uses_context_bandwidth) {
  packet_stream stream;
  packet p;
  p.size_bytes = 1250;
  stream.push_back({p, 0.0});
  stream.push_back({p, 0.0});
  scheduler_context ctx;
  ctx.bandwidth_bps = 1e9;  // 10x slower line -> 10x more unfinished work
  const auto rows = compute_features(stream, ctx);
  EXPECT_NEAR(rows[1 * feature_count + f_unfinished_work], 1e-5, 1e-12);
}

TEST(features, per_class_work_tracks_priorities) {
  // 10 Gbps line, 1250 B packets (1 us service). Arrivals at t=0:
  // class 1, class 0, class 1 back-to-back; then class 1 after the queue
  // drains.
  packet_stream stream;
  packet p;
  p.size_bytes = 1250;
  p.priority = 1;
  p.pid = 1;
  stream.push_back({p, 0.0});
  p.priority = 0;
  p.pid = 2;
  stream.push_back({p, 0.0});
  p.priority = 1;
  p.pid = 3;
  stream.push_back({p, 0.0});
  p.priority = 1;
  p.pid = 4;
  stream.push_back({p, 10.0});
  scheduler_context ctx;
  ctx.kind = dqn::des::scheduler_kind::sp;
  const auto rows = compute_features(stream, ctx);
  auto at = [&](std::size_t i, std::size_t f) { return rows[i * feature_count + f]; };
  // Packet 1 (class 1): empty system.
  EXPECT_DOUBLE_EQ(at(0, f_higher_class_work), 0.0);
  EXPECT_DOUBLE_EQ(at(0, f_own_class_work), 0.0);
  // Packet 2 (class 0): the class-1 packet ahead contributes nothing to
  // higher-priority work; own-or-higher (class 0) work is 0 too.
  EXPECT_DOUBLE_EQ(at(1, f_higher_class_work), 0.0);
  EXPECT_DOUBLE_EQ(at(1, f_own_class_work), 0.0);
  // Packet 3 (class 1): one class-0 packet (1 us) of higher work; own-or-
  // higher work covers both earlier packets (2 us).
  EXPECT_NEAR(at(2, f_higher_class_work), 1e-6, 1e-12);
  EXPECT_NEAR(at(2, f_own_class_work), 2e-6, 1e-12);
  // Packet 4: the queue fully drained during the 10 s gap.
  EXPECT_DOUBLE_EQ(at(3, f_higher_class_work), 0.0);
  EXPECT_DOUBLE_EQ(at(3, f_own_class_work), 0.0);
}

// compute_features as it was before its class sweeps stopped at the
// stream's largest class: every sweep covers all 16 class slots.
std::vector<double> full_sweep_features(const packet_stream& arrivals,
                                        const scheduler_context& ctx) {
  std::vector<double> rows(arrivals.size() * feature_count, 0.0);
  constexpr std::size_t max_classes = 16;
  double ema_bytes = 0;
  double ema_rate = 0;
  double unfinished = 0;
  std::array<double, max_classes> class_work{};
  std::array<double, max_classes> own_only_work{};
  std::array<double, max_classes> gps_share;
  gps_share.fill(1.0);
  if (!ctx.class_weights.empty()) {
    double weight_total = 0;
    for (double w : ctx.class_weights) weight_total += w;
    for (std::size_t c = 0; c < max_classes; ++c) {
      const std::size_t clamped = std::min(c, ctx.class_weights.size() - 1);
      gps_share[c] = ctx.class_weights[clamped] / weight_total;
    }
  }
  double prev_service = 0;
  double prev_time = arrivals.empty() ? 0.0 : arrivals.front().time;
  bool first = true;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const auto& ev = arrivals[i];
    const double len = ev.pkt.size_bytes;
    const double iat = first ? 0.0 : std::max(0.0, ev.time - prev_time);
    prev_time = ev.time;
    if (!first) {
      unfinished = std::max(0.0, unfinished + prev_service - iat);
      for (auto& w : class_work) w = std::max(0.0, w - iat);
      for (auto& w : own_only_work) w = std::max(0.0, w - iat);
    }
    prev_service = len * 8.0 / ctx.bandwidth_bps;
    const std::size_t klass =
        std::min<std::size_t>(ev.pkt.priority, max_classes - 1);
    const double higher_work = klass == 0 ? 0.0 : class_work[klass - 1];
    const double own_work = class_work[klass];
    const double own_only = own_only_work[klass];
    for (std::size_t c = klass; c < max_classes; ++c)
      class_work[c] += prev_service;
    own_only_work[klass] += prev_service;
    if (first) {
      ema_bytes = len;
      ema_rate = 0;
      first = false;
    } else {
      ema_bytes =
          workload_smoothing * ema_bytes + (1 - workload_smoothing) * len;
      const double inst_rate = len / std::max(iat, 1e-9);
      ema_rate =
          workload_smoothing * ema_rate + (1 - workload_smoothing) * inst_rate;
    }
    double* row = rows.data() + i * feature_count;
    row[f_len] = len;
    row[f_iat] = iat;
    row[f_workload_bytes] = ema_bytes;
    row[f_workload_rate] = ema_rate;
    row[f_sched_fifo] = ctx.kind == dqn::des::scheduler_kind::fifo ? 1.0 : 0.0;
    row[f_sched_sp] = ctx.kind == dqn::des::scheduler_kind::sp ? 1.0 : 0.0;
    row[f_sched_wrr] = ctx.kind == dqn::des::scheduler_kind::wrr ? 1.0 : 0.0;
    row[f_sched_drr] = ctx.kind == dqn::des::scheduler_kind::drr ? 1.0 : 0.0;
    row[f_sched_wfq] = ctx.kind == dqn::des::scheduler_kind::wfq ? 1.0 : 0.0;
    row[f_priority] = ev.pkt.priority;
    row[f_weight] = ctx.weight_of(ev.pkt);
    row[f_protocol] = ev.pkt.protocol == 6 ? 1.0 : 0.0;
    row[f_unfinished_work] = unfinished;
    row[f_higher_class_work] = higher_work;
    row[f_own_class_work] = own_work;
    row[f_own_only_work] = own_only;
    row[f_gps_wait] = own_only / gps_share[klass];
  }
  return rows;
}

TEST(features, class_sweep_matches_full_sweep_bit_for_bit) {
  // A loaded 1 Gbps line (mean gap ~ one service time) so every class keeps
  // a backlog; priorities drawn from each set, the last one clamped to 15.
  const std::vector<std::vector<std::uint8_t>> priority_sets = {
      {0}, {0, 1, 2}, {0, 7}, {0, 3, 15, 16, 20}};
  std::vector<scheduler_context> contexts(3);
  contexts[0].kind = dqn::des::scheduler_kind::fifo;
  contexts[1].kind = dqn::des::scheduler_kind::sp;
  contexts[2].kind = dqn::des::scheduler_kind::wfq;
  contexts[2].class_weights = {8.0, 4.0, 2.0, 1.0};
  for (auto& ctx : contexts) ctx.bandwidth_bps = 1e9;
  dqn::util::rng rng{42};
  for (const auto& priorities : priority_sets) {
    packet_stream stream;
    double time = 0;
    for (std::uint64_t pid = 0; pid < 400; ++pid) {
      packet p;
      p.pid = pid;
      p.size_bytes = static_cast<std::uint32_t>(64 + rng.uniform_int(1437));
      p.priority = priorities[rng.uniform_int(priorities.size())];
      p.protocol = rng.uniform_int(2) == 0 ? 6 : 17;
      time += rng.uniform(0.0, 2.4e-5);
      stream.push_back({p, time});
    }
    for (const auto& ctx : contexts) {
      SCOPED_TRACE(::testing::Message()
                   << "scheduler " << static_cast<int>(ctx.kind) << ", "
                   << priorities.size() << " classes, top "
                   << static_cast<int>(priorities.back()));
      const auto rows = compute_features(stream, ctx);
      const auto expected = full_sweep_features(stream, ctx);
      ASSERT_EQ(rows.size(), expected.size());
      EXPECT_EQ(std::memcmp(rows.data(), expected.data(),
                            rows.size() * sizeof(double)),
                0);
    }
  }
}

TEST(sec, mismatched_sizes_throw) {
  sec_table sec;
  std::vector<double> a{1, 2, 3};
  std::vector<double> b{1, 2};
  EXPECT_THROW(sec.fit(a, b), dqn::util::contract_violation);
}

}  // namespace
