#include "core/features.hpp"

#include <algorithm>
#include <array>

#include "util/check.hpp"

namespace dqn::core {

double scheduler_context::weight_of(const traffic::packet& pkt) const {
  if (class_weights.empty()) return 1.0;
  const std::size_t klass =
      std::min<std::size_t>(pkt.priority, class_weights.size() - 1);
  return class_weights[klass];
}

std::vector<double> compute_features(const traffic::packet_stream& arrivals,
                                     const scheduler_context& ctx) {
  std::vector<double> rows(arrivals.size() * feature_count, 0.0);
  // One extra slot holds the total across all classes.
  constexpr std::size_t max_classes = 16;
  double ema_bytes = 0;
  double ema_rate = 0;
  double unfinished = 0;  // Lindley recursion over the egress line
  // Per-class cumulative work W[c] = unfinished work contributed by classes
  // <= c, each drained at the full line rate (work conservation).
  std::array<double, max_classes> class_work{};
  std::array<double, max_classes> own_only_work{};
  // Precompute per-class GPS shares from the weight table (1 for FIFO/SP).
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
  // A row reads only slots klass - 1 and klass, so the sweeps stop at the
  // stream's largest class: one slot under FIFO. The slots they cover see
  // the same operations in the same order as a full sweep.
  std::size_t classes = 1;
  for (const auto& ev : arrivals)
    classes = std::max<std::size_t>(
        classes, std::min<std::size_t>(ev.pkt.priority, max_classes - 1) + 1);
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
      for (std::size_t c = 0; c < classes; ++c) {
        class_work[c] = std::max(0.0, class_work[c] - iat);
        own_only_work[c] = std::max(0.0, own_only_work[c] - iat);
      }
    }
    prev_service = len * 8.0 / ctx.bandwidth_bps;
    const std::size_t klass = std::min<std::size_t>(ev.pkt.priority, max_classes - 1);
    const double higher_work = klass == 0 ? 0.0 : class_work[klass - 1];
    const double own_work = class_work[klass];
    const double own_only = own_only_work[klass];
    for (std::size_t c = klass; c < classes; ++c)
      class_work[c] += prev_service;
    own_only_work[klass] += prev_service;
    if (first) {
      ema_bytes = len;
      ema_rate = 0;
      first = false;
    } else {
      ema_bytes = workload_smoothing * ema_bytes + (1 - workload_smoothing) * len;
      const double inst_rate = len / std::max(iat, 1e-9);
      ema_rate = workload_smoothing * ema_rate + (1 - workload_smoothing) * inst_rate;
    }
    double* row = rows.data() + i * feature_count;
    row[f_len] = len;
    row[f_iat] = iat;
    row[f_workload_bytes] = ema_bytes;
    row[f_workload_rate] = ema_rate;
    row[f_sched_fifo] = ctx.kind == des::scheduler_kind::fifo ? 1.0 : 0.0;
    row[f_sched_sp] = ctx.kind == des::scheduler_kind::sp ? 1.0 : 0.0;
    row[f_sched_wrr] = ctx.kind == des::scheduler_kind::wrr ? 1.0 : 0.0;
    row[f_sched_drr] = ctx.kind == des::scheduler_kind::drr ? 1.0 : 0.0;
    row[f_sched_wfq] = ctx.kind == des::scheduler_kind::wfq ? 1.0 : 0.0;
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

std::vector<double> make_windows(std::span<const double> feature_rows,
                                 std::size_t time_steps) {
  DQN_ENSURE(time_steps > 0, "make_windows: time_steps >= 1");
  DQN_ENSURE(feature_rows.size() % feature_count == 0, "make_windows: ",
             feature_rows.size(), " rows not a multiple of feature_count ",
             feature_count);
  const std::size_t n = feature_rows.size() / feature_count;
  std::vector<double> windows(n * time_steps * feature_count, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t t = 0; t < time_steps; ++t) {
      // Window position t corresponds to source row i - (time_steps-1) + t,
      // clamped to 0 (front padding repeats the first packet).
      const std::ptrdiff_t src =
          std::max<std::ptrdiff_t>(0, static_cast<std::ptrdiff_t>(i) -
                                          static_cast<std::ptrdiff_t>(time_steps - 1) +
                                          static_cast<std::ptrdiff_t>(t));
      std::copy_n(feature_rows.data() + static_cast<std::size_t>(src) * feature_count,
                  feature_count,
                  windows.data() + (i * time_steps + t) * feature_count);
    }
  }
  return windows;
}

}  // namespace dqn::core
