// Further engine coverage: iteration controls, hop recording, SEC's effect
// at the network level, and host-stream validation. Shares one tiny trained
// model across the binary.
#include <gtest/gtest.h>

#include <initializer_list>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>

#include "core/dutil.hpp"
#include "core/engine.hpp"
#include "des/network.hpp"
#include "des/run_api.hpp"
#include "topo/builders.hpp"
#include "topo/queue_graph.hpp"
#include "topo/routing.hpp"
#include "traffic/traffic_gen.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace {

using namespace dqn;

std::shared_ptr<const core::ptm_model> shared_ptm() {
  static const core::device_model_bundle bundle = [] {
    core::dutil_config cfg;
    cfg.ports = 4;
    cfg.streams = 30;
    cfg.packets_per_stream = 600;
    cfg.ptm.time_steps = 8;
    cfg.ptm.mlp_hidden = {48, 24};
    cfg.ptm.epochs = 10;
    cfg.seed = 99;
    return core::train_device_model(cfg);
  }();
  return std::shared_ptr<const core::ptm_model>{&bundle.model,
                                                [](const core::ptm_model*) {}};
}

std::vector<traffic::packet_stream> make_streams(std::size_t hosts, double rate,
                                                 double horizon,
                                                 std::uint64_t seed) {
  util::rng rng{seed};
  auto flows = traffic::make_uniform_flows(hosts, 1, rng);
  traffic::tg_util_config tg;
  tg.per_flow_rate = rate;
  tg.seed = seed;
  auto generators = traffic::make_generators(flows, tg);
  return traffic::per_host_streams(generators, hosts, horizon, rng);
}

TEST(engine_extra, max_iterations_override_caps_irsa) {
  // Algorithm 1 (IRSA skip off): the cap bounds the whole run.
  {
    const auto topo = topo::make_fattree16();
    const topo::routing routes{topo};
    core::engine_config cfg;
    cfg.max_iterations = 2;
    cfg.irsa_skip_unchanged = false;
    core::dqn_network net{topo, routes, shared_ptm(), {}, cfg};
    const auto streams = make_streams(16, 20'000.0, 0.005, 2);
    (void)net.run(streams, 0.005);
    EXPECT_LE(net.stats().iterations, 2u);
  }
  // The dependency-ordered schedule: the cap bounds the cyclic stage, which
  // on a torus holds every queue.
  {
    const auto topo = topo::make_torus2d(3, 3);
    const topo::routing routes{topo};
    const topo::queue_graph graph{topo, routes};
    ASSERT_EQ(graph.level_count(), 1u);
    ASSERT_TRUE(graph.cyclic());
    core::engine_config cfg;
    cfg.max_iterations = 2;
    core::dqn_network capped{topo, routes, shared_ptm(), {}, cfg};
    core::dqn_network uncapped{topo, routes, shared_ptm(), {}, {}};
    const auto streams = make_streams(9, 20'000.0, 0.005, 2);
    (void)capped.run(streams, 0.005);
    (void)uncapped.run(streams, 0.005);
    EXPECT_LE(capped.stats().iterations, 2u);
    EXPECT_LT(capped.stats().iterations, uncapped.stats().iterations);
  }
}

// One IRSA iteration cannot reach the fixed point on a multi-hop line, nor
// one round of a torus's cyclic stage: the run must say so instead of
// returning as if it had converged.
TEST(engine_extra, capped_irsa_reports_non_convergence) {
  {
    const auto topo = topo::make_line(4);
    const topo::routing routes{topo};
    core::engine_config cfg;
    cfg.max_iterations = 1;
    cfg.irsa_skip_unchanged = false;
    core::dqn_network net{topo, routes, shared_ptm(), {}, cfg};
    const auto streams = make_streams(4, 20'000.0, 0.01, 7);
    (void)net.run(streams, 0.01);
    EXPECT_EQ(net.stats().iterations, 1u);
    EXPECT_FALSE(net.stats().converged);
    EXPECT_GT(net.stats().final_changed_devices, 0u);
  }
  {
    const auto topo = topo::make_torus2d(3, 3);
    const topo::routing routes{topo};
    core::engine_config cfg;
    cfg.max_iterations = 1;
    core::dqn_network net{topo, routes, shared_ptm(), {}, cfg};
    const auto streams = make_streams(9, 20'000.0, 0.01, 7);
    (void)net.run(streams, 0.01);
    EXPECT_EQ(net.stats().iterations, 1u);
    EXPECT_FALSE(net.stats().converged);
    EXPECT_GT(net.stats().final_changed_devices, 0u);
  }
}

// Theorem 3.1: IRSA reaches its fixed point within 1 + diameter iterations,
// which is the default cap.
TEST(engine_extra, fattree16_converges_within_one_plus_diameter) {
  const auto topo = topo::make_fattree16();
  const topo::routing routes{topo};
  core::dqn_network net{topo, routes, shared_ptm(), {}, {}};
  const auto streams = make_streams(16, 20'000.0, 0.005, 8);
  (void)net.run(streams, 0.005);
  EXPECT_TRUE(net.stats().converged);
  EXPECT_EQ(net.stats().final_changed_devices, 0u);
  EXPECT_LE(net.stats().iterations, 1 + topo.diameter());
}

TEST(engine_extra, hop_records_match_deliveries_paths) {
  const auto topo = topo::make_line(4);
  const topo::routing routes{topo};
  core::engine_config cfg;
  cfg.record_hops = true;
  core::dqn_network net{topo, routes, shared_ptm(), {}, cfg};
  const auto streams = make_streams(4, 20'000.0, 0.01, 3);
  const auto result = net.run(streams, 0.01);
  ASSERT_GT(result.deliveries.size(), 0u);
  // Each delivered packet appears in exactly path_length-2 hop records
  // (one per switch; hosts are not devices).
  std::map<std::uint64_t, std::size_t> hop_counts;
  for (const auto& h : result.hops) ++hop_counts[h.pid];
  for (const auto& d : result.deliveries) {
    const auto path = routes.flow_path(d.src, d.dst, d.flow_id);
    EXPECT_EQ(hop_counts[d.pid], path.size() - 2) << "pid " << d.pid;
  }
}

TEST(engine_extra, sec_toggle_preserves_conservation) {
  // SEC corrections are significance-gated (sec.cpp): for a well-calibrated
  // model they may legitimately be a no-op, but toggling SEC must never
  // change which packets are delivered — only (possibly) their timing.
  const auto topo = topo::make_line(3);
  const topo::routing routes{topo};
  const auto streams = make_streams(3, 80'000.0, 0.02, 4);
  core::engine_config on;
  core::engine_config off;
  off.apply_sec = false;
  core::dqn_network net_on{topo, routes, shared_ptm(), {}, on};
  core::dqn_network net_off{topo, routes, shared_ptm(), {}, off};
  const auto r_on = net_on.run(streams, 0.02);
  const auto r_off = net_off.run(streams, 0.02);
  ASSERT_EQ(r_on.deliveries.size(), r_off.deliveries.size());
  std::set<std::uint64_t> pids_on, pids_off;
  for (const auto& d : r_on.deliveries) pids_on.insert(d.pid);
  for (const auto& d : r_off.deliveries) pids_off.insert(d.pid);
  EXPECT_EQ(pids_on, pids_off);
}

TEST(engine_extra, deterministic_across_runs) {
  const auto topo = topo::make_torus2d(2, 2);
  const topo::routing routes{topo};
  const auto streams = make_streams(4, 30'000.0, 0.01, 5);
  core::dqn_network net1{topo, routes, shared_ptm(), {}, {}};
  core::dqn_network net2{topo, routes, shared_ptm(), {}, {}};
  const auto r1 = net1.run(streams, 0.01);
  const auto r2 = net2.run(streams, 0.01);
  ASSERT_EQ(r1.deliveries.size(), r2.deliveries.size());
  for (std::size_t i = 0; i < r1.deliveries.size(); ++i) {
    EXPECT_EQ(r1.deliveries[i].pid, r2.deliveries[i].pid);
    EXPECT_DOUBLE_EQ(r1.deliveries[i].delivery_time, r2.deliveries[i].delivery_time);
  }
}

TEST(engine_extra, works_on_every_evaluation_topology) {
  for (auto build : {+[] { return topo::make_line(4); },
                     +[] { return topo::make_torus2d(4, 4); },
                     +[] { return topo::make_abilene(); },
                     +[] { return topo::make_geant(); },
                     +[] { return topo::make_fattree16(); }}) {
    const auto topo = build();
    const topo::routing routes{topo};
    core::dqn_network net{topo, routes, shared_ptm(), {}, {}};
    const auto streams = make_streams(topo.hosts().size(), 10'000.0, 0.004, 6);
    std::size_t injected = 0;
    for (const auto& s : streams) injected += s.size();
    const auto result = net.run(streams, 0.004);
    EXPECT_EQ(result.deliveries.size(), injected);
    EXPECT_LE(net.stats().iterations, 1 + topo.diameter());
    EXPECT_TRUE(net.stats().converged);
    // Algorithm 1's schedule (IRSA skip off) meets Theorem 3.1's bound too.
    core::engine_config algorithm1_cfg;
    algorithm1_cfg.irsa_skip_unchanged = false;
    core::dqn_network algorithm1{topo, routes, shared_ptm(), {}, algorithm1_cfg};
    (void)algorithm1.run(streams, 0.004);
    EXPECT_TRUE(algorithm1.stats().converged);
    EXPECT_LE(algorithm1.stats().iterations, 1 + topo.diameter());
  }
}

// Two hosts send on the same flow id to different hosts. Each packet must be
// routed by its own destination: every packet is delivered or dropped, and
// the engine delivers the packets the DES delivers, to the same hosts. A
// route chosen per flow id would carry some packets to a host they are not
// for, where collection loses them without counting a drop.
TEST(engine_extra, routes_each_packet_by_its_own_destination) {
  const auto topo = topo::make_line(3);
  const topo::routing routes{topo};
  std::vector<traffic::packet_stream> streams(3);
  std::uint64_t pid = 0;
  for (int i = 0; i < 50; ++i) {
    for (const auto& [src, dst] : {std::pair{0, 2}, std::pair{1, 0}}) {
      traffic::packet pkt;
      pkt.pid = pid++;
      pkt.flow_id = 5;
      pkt.size_bytes = 1000;
      pkt.dst_host = dst;
      streams[static_cast<std::size_t>(src)].push_back({pkt, i * 20e-6});
    }
  }
  des::network oracle{topo, routes, {}};
  core::dqn_network engine{topo, routes, shared_ptm(), {}, {}};
  const auto truth = oracle.run(streams, 0.01);
  const auto result = engine.run(streams, 0.01);
  EXPECT_EQ(truth.deliveries.size(), pid);
  EXPECT_EQ(result.deliveries.size() + result.drops, pid);
  std::set<std::pair<std::uint64_t, topo::node_id>> delivered, expected;
  for (const auto& d : result.deliveries) delivered.emplace(d.pid, d.dst);
  for (const auto& d : truth.deliveries) expected.emplace(d.pid, d.dst);
  EXPECT_EQ(delivered, expected);
}

TEST(engine_extra, zero_traffic_is_handled) {
  const auto topo = topo::make_line(2);
  const topo::routing routes{topo};
  core::dqn_network net{topo, routes, shared_ptm(), {}, {}};
  const auto result = net.run(std::vector<traffic::packet_stream>(2), 1.0);
  EXPECT_TRUE(result.deliveries.empty());
}

// Both packet-level estimators validate host streams on injection and name
// the culprit. Without the checks the engine silently loses the packets of a
// stream that goes back in time, and a re-sent pid takes the first send's
// time, so both estimators report negative latencies for it.
void expect_both_reject(const std::vector<traffic::packet_stream>& streams,
                        const std::string& culprit, double horizon = 0.02) {
  const auto topo = topo::make_line(3);
  const topo::routing routes{topo};
  des::network oracle{topo, routes, {}};
  core::dqn_network engine{topo, routes, shared_ptm(), {}, {}};
  des::run_request request;
  request.host_streams = &streams;
  request.horizon = horizon;
  for (des::estimator* estimator :
       std::initializer_list<des::estimator*>{&oracle, &engine}) {
    SCOPED_TRACE(estimator->estimator_name());
    try {
      (void)estimator->run(request);
      ADD_FAILURE() << "run accepted bad host streams";
    } catch (const util::contract_violation& e) {
      EXPECT_NE(std::string{e.what()}.find(culprit), std::string::npos)
          << e.what();
    }
  }
}

TEST(engine_extra, estimators_reject_host_stream_going_back_in_time) {
  auto streams = make_streams(3, 50'000.0, 0.02, 1);
  ASSERT_GE(streams[1].size(), 2u);
  ASSERT_LT(streams[1][0].time, streams[1][1].time);
  std::swap(streams[1][0], streams[1][1]);
  expect_both_reject(streams, "host 1 stream goes back in time at pid " +
                                  std::to_string(streams[1][1].pkt.pid));
}

// A horizon that is not a positive finite time would inject everything
// (NaN, +inf) or nothing (<= 0) without a word.
TEST(engine_extra, estimators_reject_bad_horizon) {
  const auto streams = make_streams(3, 50'000.0, 0.02, 1);
  const std::pair<double, const char*> horizons[] = {
      {std::numeric_limits<double>::quiet_NaN(), "nan"},
      {-1.0, "-1"},
      {0.0, "0"},
      {std::numeric_limits<double>::infinity(), "inf"}};
  for (const auto& [horizon, text] : horizons) {
    SCOPED_TRACE(text);
    expect_both_reject(
        streams,
        std::string{"horizon must be finite and > 0 (got "} + text + ")",
        horizon);
  }
}

// The estimators prove pids distinct without a sort when they rise in host
// order, as every in-repo generator numbers them, and sort only otherwise.
// Each duplicate below fails that proof at a different point.
TEST(engine_extra, estimators_reject_pid_sent_twice) {
  const auto base = make_streams(3, 50'000.0, 0.02, 1);
  for (const auto& stream : base) ASSERT_GE(stream.size(), 2u);
  {
    SCOPED_TRACE("host 2 re-sends host 0's first pid after its last packet");
    auto streams = base;
    auto duplicate = streams[0].front();
    duplicate.time = streams[2].back().time;
    streams[2].push_back(duplicate);
    expect_both_reject(streams, "pid " + std::to_string(duplicate.pkt.pid) +
                                    " injected twice");
  }
  {
    SCOPED_TRACE("each host's pids rise; host 1 starts at host 0's last");
    auto streams = base;
    const std::uint64_t pid = streams[0].back().pkt.pid;
    ASSERT_LT(pid, streams[1][1].pkt.pid);
    streams[1].front().pkt.pid = pid;
    expect_both_reject(streams,
                       "pid " + std::to_string(pid) + " injected twice");
  }
  {
    SCOPED_TRACE("host 1 sends one pid twice");
    auto streams = base;
    const std::uint64_t pid = streams[1].front().pkt.pid;
    streams[1][1].pkt.pid = pid;
    expect_both_reject(streams,
                       "pid " + std::to_string(pid) + " injected twice");
  }
  {
    SCOPED_TRACE("pid 0 sent twice");
    auto streams = base;
    streams[0].front().pkt.pid = 0;
    streams[2].front().pkt.pid = 0;
    expect_both_reject(streams, "pid 0 injected twice");
  }
}

TEST(engine_extra, estimators_reject_destination_out_of_range) {
  auto streams = make_streams(3, 50'000.0, 0.02, 1);
  ASSERT_FALSE(streams[1].empty());
  // Host indices run 0..2; index 3 names no host.
  streams[1].front().pkt.dst_host = 3;
  expect_both_reject(streams, "dst_host 3 out of range for 3 hosts (pid " +
                                  std::to_string(streams[1].front().pkt.pid) +
                                  ")");
}

// SInit validates each host's stream in its own pool task. With two bad
// streams the run names the lower host at every worker count, as a serial
// loop over the hosts would.
TEST(engine_extra, bad_host_streams_name_the_same_host_at_every_worker_count) {
  const auto topo = topo::make_fattree16();
  const topo::routing routes{topo};
  auto streams = make_streams(16, 50'000.0, 0.005, 3);
  for (const std::size_t host : {3, 12}) {
    ASSERT_GE(streams[host].size(), 2u);
    std::swap(streams[host][0], streams[host][1]);
  }
  const std::string culprit = "host 3 stream goes back in time at pid " +
                              std::to_string(streams[3][1].pkt.pid);
  for (const std::size_t partitions : {1, 4}) {
    SCOPED_TRACE(partitions);
    core::engine_config cfg;
    cfg.partitions = partitions;
    core::dqn_network engine{topo, routes, shared_ptm(), {}, cfg};
    try {
      (void)engine.run(streams, 0.005);
      ADD_FAILURE() << "run accepted bad host streams";
    } catch (const util::contract_violation& e) {
      EXPECT_NE(std::string{e.what()}.find(culprit), std::string::npos)
          << e.what();
    }
  }
}

// Both estimators model a host as one NIC on one uplink, so they reject, at
// construction and naming the host, a host that does not have exactly one
// link. The engine reads a host's port 0 alone: without the check an
// unlinked host would crash its run, and a multihomed host would lose its
// deliveries without a drop.
TEST(engine_extra, estimators_reject_hosts_without_exactly_one_link) {
  // Switches s0 - s1; 100 packets from host 0 to host 1 on the analytical
  // backend.
  const auto expect_rejected = [](const topo::topology& topo,
                                  const std::string& culprit) {
    const topo::routing routes{topo};
    std::vector<traffic::packet_stream> streams(topo.hosts().size());
    for (std::uint64_t pid = 0; pid < 100; ++pid) {
      traffic::packet p;
      p.pid = pid;
      p.dst_host = 1;
      p.size_bytes = 1000;
      streams[0].push_back({p, 1e-5 * static_cast<double>(pid + 1)});
    }
    const auto outcome = [&](const auto& make) -> std::string {
      try {
        const auto result = make()->run(streams, 0.01);
        return "accepted; delivered " +
               std::to_string(result.deliveries.size()) + " of 100";
      } catch (const util::contract_violation& e) {
        return e.what();
      }
    };
    const std::string des_outcome = outcome([&] {
      return std::make_unique<des::network>(topo, routes,
                                            des::network_config{});
    });
    EXPECT_NE(des_outcome.find(culprit), std::string::npos) << des_outcome;
    core::engine_config cfg;
    cfg.delay.backend = des::delay_backend::analytical;
    const std::string engine_outcome = outcome([&] {
      return std::make_unique<core::dqn_network>(
          topo, routes, shared_ptm(), core::scheduler_context{}, cfg);
    });
    EXPECT_NE(engine_outcome.find(culprit), std::string::npos)
        << engine_outcome;
  };
  {
    SCOPED_TRACE("a third host with no link");
    topo::topology topo;
    const auto s0 = topo.add_device("s0");
    const auto s1 = topo.add_device("s1");
    const auto h0 = topo.add_host("h0");
    const auto h1 = topo.add_host("h1");
    (void)topo.add_host("h2");
    topo.connect(h0, s0);
    topo.connect(s0, s1);
    topo.connect(h1, s1);
    expect_rejected(topo, "host h2 has 0 links");
  }
  {
    SCOPED_TRACE("host 1 on both switches, host 0 on the second");
    topo::topology topo;
    const auto s0 = topo.add_device("s0");
    const auto s1 = topo.add_device("s1");
    const auto h0 = topo.add_host("h0");
    const auto h1 = topo.add_host("h1");
    topo.connect(h0, s1);
    topo.connect(s0, s1);
    topo.connect(h1, s0);
    topo.connect(h1, s1);
    expect_rejected(topo, "host h1 has 2 links");
  }
}

// Two components, every host single-homed: h0 - s0 and h1 - s1 with no link
// between the switches. A packet from h0 to h1 has no route, and both
// estimators fail the run naming the node it is stuck at and its
// destination.
TEST(engine_extra, estimators_reject_unreachable_destinations) {
  topo::topology topo;
  const auto s0 = topo.add_device("s0");
  const auto s1 = topo.add_device("s1");
  const auto h0 = topo.add_host("h0");
  const auto h1 = topo.add_host("h1");
  topo.connect(h0, s0);
  topo.connect(h1, s1);
  const topo::routing routes{topo};
  std::vector<traffic::packet_stream> streams(2);
  traffic::packet p;
  p.dst_host = 1;
  p.size_bytes = 1000;
  streams[0].push_back({p, 1e-5});
  const auto outcome = [&](des::estimator& estimator) -> std::string {
    try {
      const auto result = estimator.run({.host_streams = &streams,
                                         .horizon = 0.01});
      return "accepted; delivered " +
             std::to_string(result.deliveries.size()) + " of 1";
    } catch (const std::runtime_error& e) {
      return e.what();
    }
  };
  des::network oracle{topo, routes, des::network_config{}};
  core::engine_config cfg;
  cfg.delay.backend = des::delay_backend::analytical;
  core::dqn_network engine{topo, routes, shared_ptm(),
                           core::scheduler_context{}, cfg};
  for (des::estimator* estimator :
       {static_cast<des::estimator*>(&oracle),
        static_cast<des::estimator*>(&engine)}) {
    SCOPED_TRACE(estimator->estimator_name());
    EXPECT_EQ(outcome(*estimator),
              "routing: destination host h1 (node 3) unreachable from node "
              "s0 (node 0)");
  }
}

}  // namespace
