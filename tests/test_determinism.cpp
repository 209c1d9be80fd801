// Determinism regression tests: the repo's reproducibility contract is that
// a run is a pure function of (topology, streams, seed, model) — neither
// the partition count nor run-to-run state may change a single output bit.
// These tests guard the deterministic-container sweep (util::keyed_vector
// replacing iterated unordered maps; see docs/STATIC_ANALYSIS.md) and are
// part of the TSan matrix: under -DDQN_SANITIZE=thread the partitioned
// comparisons double as a race detector for the engine's shared per-run
// arrays.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dutil.hpp"
#include "core/engine.hpp"
#include "des/network.hpp"
#include "des/records.hpp"
#include "des/run_api.hpp"
#include "obs/sink.hpp"
#include "topo/builders.hpp"
#include "topo/queue_graph.hpp"
#include "topo/routing.hpp"
#include "traffic/traffic_gen.hpp"
#include "util/keyed_vector.hpp"
#include "util/rng.hpp"

namespace {

using namespace dqn;

// --- util::keyed_vector: the sanctioned unordered_map replacement ---------

TEST(determinism, keyed_vector_sorted_iteration_and_lookup) {
  util::keyed_vector<std::uint64_t, double> kv;
  kv.reserve(4);
  kv.push_back(30, 3.0);
  kv.push_back(10, 1.0);
  kv.push_back(20, 2.0);
  EXPECT_FALSE(kv.finalized());
  kv.finalize();
  ASSERT_TRUE(kv.finalized());
  ASSERT_EQ(kv.size(), 3u);

  // Iteration is ascending key order regardless of insertion order.
  std::vector<std::uint64_t> keys;
  for (const auto& [key, value] : kv) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{10, 20, 30}));

  EXPECT_EQ(kv.at(20), 2.0);
  ASSERT_NE(kv.find(10), nullptr);
  EXPECT_EQ(*kv.find(10), 1.0);
  EXPECT_EQ(kv.find(99), nullptr);
}

TEST(determinism, keyed_vector_duplicate_keys_keep_first_insert) {
  // Mirrors unordered_map::emplace semantics: later duplicates are ignored.
  util::keyed_vector<std::uint32_t, int> kv;
  kv.push_back(7, 1);
  kv.push_back(7, 2);
  kv.push_back(3, 9);
  kv.finalize();
  ASSERT_EQ(kv.size(), 2u);
  EXPECT_EQ(kv.at(7), 1);
  EXPECT_EQ(kv.at(3), 9);
}

TEST(determinism, keyed_vector_clear_resets_to_building_state) {
  util::keyed_vector<std::uint64_t, double> kv;
  kv.push_back(1, 1.0);
  kv.finalize();
  kv.clear();
  EXPECT_TRUE(kv.empty());
  EXPECT_TRUE(kv.finalized());  // empty is trivially sorted
  kv.push_back(2, 2.0);
  EXPECT_FALSE(kv.finalized());  // building again: lookups are gated
  kv.finalize();
  EXPECT_EQ(kv.at(2), 2.0);
}

// --- whole-run bit-identity ------------------------------------------------

// Exact bitwise comparison: EXPECT_DOUBLE_EQ would accept 4-ulp drift, which
// is precisely what a nondeterministic accumulation order produces.
bool same_bits(double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

void expect_same_deliveries(const std::vector<des::delivery_record>& a,
                            const std::vector<des::delivery_record>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& da = a[i];
    const auto& db = b[i];
    EXPECT_EQ(da.pid, db.pid) << "delivery " << i;
    EXPECT_EQ(da.flow_id, db.flow_id) << "delivery " << i;
    EXPECT_EQ(da.src, db.src) << "delivery " << i;
    EXPECT_EQ(da.dst, db.dst) << "delivery " << i;
    EXPECT_TRUE(same_bits(da.send_time, db.send_time))
        << "delivery " << i << " send_time bits differ";
    EXPECT_TRUE(same_bits(da.delivery_time, db.delivery_time))
        << "delivery " << i << " delivery_time bits differ";
  }
}

void expect_bit_identical(const des::run_result& a, const des::run_result& b) {
  ASSERT_EQ(a.drops, b.drops);
  expect_same_deliveries(a.deliveries, b.deliveries);
}

// The deliveries that final egress streams give: each host's access link
// applied to its peer's stream, egress(node, port), keeping the packets
// addressed to the host, in one std::sort by (delivery_time, pid). The send
// time, source and flow id of a record are those of its pid in the host
// streams, which checks an estimator's send-time bookkeeping.
template <typename Egress>
std::vector<des::delivery_record> sorted_deliveries(
    const topo::topology& topo,
    const std::vector<traffic::packet_stream>& streams, double horizon,
    Egress&& egress) {
  struct send {
    topo::node_id src;
    std::uint32_t flow_id;
    double time;
  };
  std::map<std::uint64_t, send> sends;
  const auto hosts = topo.hosts();
  for (std::size_t h = 0; h < hosts.size(); ++h)
    for (const auto& ev : streams[h]) {
      if (ev.time > horizon) break;
      sends.emplace(ev.pkt.pid, send{hosts[h], ev.pkt.flow_id, ev.time});
    }
  std::vector<des::delivery_record> records;
  for (const auto host : hosts) {
    const auto peer = topo.peer_of(host, 0);
    const auto& link = topo.link_at(peer.link_index);
    for (const auto& ev : core::apply_link(egress(peer.node, peer.port),
                                           link.bandwidth_bps,
                                           link.propagation_delay)) {
      if (ev.pkt.dst_host != host) continue;
      const auto it = sends.find(ev.pkt.pid);
      if (it == sends.end()) {
        ADD_FAILURE() << "pid " << ev.pkt.pid << " was never sent";
        continue;
      }
      des::delivery_record d;
      d.pid = ev.pkt.pid;
      d.flow_id = it->second.flow_id;
      d.src = it->second.src;
      d.dst = ev.pkt.dst_host;
      d.send_time = it->second.time;
      d.delivery_time = ev.time;
      records.push_back(d);
    }
  }
  std::sort(records.begin(), records.end(),
            [](const des::delivery_record& a, const des::delivery_record& b) {
              if (a.delivery_time != b.delivery_time)
                return a.delivery_time < b.delivery_time;
              return a.pid < b.pid;
            });
  return records;
}

// One tiny trained PTM shared by the engine tests (training dominates).
std::shared_ptr<const core::ptm_model> tiny_ptm() {
  static const core::device_model_bundle bundle = [] {
    core::dutil_config cfg;
    cfg.ports = 4;
    cfg.streams = 20;
    cfg.packets_per_stream = 400;
    cfg.ptm.time_steps = 8;
    cfg.ptm.mlp_hidden = {32, 16};
    cfg.ptm.epochs = 5;
    cfg.seed = 7;
    return core::train_device_model(cfg);
  }();
  return {&bundle.model, [](const core::ptm_model*) {}};
}

std::vector<traffic::packet_stream> uniform_streams(std::size_t hosts) {
  util::rng rng{11};
  auto flows = traffic::make_uniform_flows(hosts, 1, rng);
  traffic::tg_util_config tg;
  tg.per_flow_rate = 30'000.0;
  tg.seed = 11;
  auto generators = traffic::make_generators(flows, tg);
  return traffic::per_host_streams(generators, hosts, 0.005, rng);
}

std::vector<traffic::packet_stream> fattree_streams() {
  return uniform_streams(16);
}

// Bursty MAP traffic, uniform flows with `classes` SP classes per host pair:
// at 1 Gbps it overflows 8 KB buffers.
std::vector<traffic::packet_stream> map_streams(std::size_t hosts,
                                                std::size_t classes,
                                                double horizon) {
  util::rng rng{23};
  auto flows = traffic::make_uniform_flows(hosts, classes, rng);
  traffic::tg_util_config tg;
  tg.model = traffic::traffic_model::map;
  tg.per_flow_rate = 60'000.0;
  tg.seed = 23;
  auto generators = traffic::make_generators(flows, tg);
  return traffic::per_host_streams(generators, hosts, horizon, rng);
}

// FatTree16's links at 1 Gbps, and its devices as 3-class strict-priority
// switches with 8 KB drop-tail buffers: with map_streams, queues that drop
// and reorder.
const topo::link_params slow_links{.bandwidth_bps = 1e9};

core::scheduler_context sp_drops_context() {
  core::scheduler_context ctx;
  ctx.kind = des::scheduler_kind::sp;
  ctx.bandwidth_bps = slow_links.bandwidth_bps;
  ctx.buffer_bytes = 8 * 1024;
  return ctx;
}

// Host streams full of near-ties, from t = 1 ms: every nanosecond each host
// sends a burst of three packets at one instant (64, 576 and 1500 B) to the
// next host. Pids fall with time, so they descend within each burst and
// from each burst to the next.
std::vector<traffic::packet_stream> descending_pid_streams(std::size_t hosts,
                                                           std::size_t bursts) {
  constexpr std::uint32_t sizes[] = {64, 576, 1500};
  std::vector<traffic::packet_stream> streams(hosts);
  std::uint64_t pid = hosts * bursts * std::size(sizes);
  for (std::size_t burst = 0; burst < bursts; ++burst) {
    const double time = 1e-3 + 1e-9 * static_cast<double>(burst);
    for (std::size_t h = 0; h < hosts; ++h)
      for (const std::uint32_t size : sizes) {
        traffic::packet pkt;
        pkt.pid = pid--;
        pkt.flow_id = static_cast<std::uint32_t>(h);
        pkt.size_bytes = size;
        pkt.dst_host = static_cast<std::int32_t>((h + 1) % hosts);
        streams[h].push_back({pkt, time});
      }
  }
  return streams;
}

// Abilene's 11 hosts with skewed delivery runs: every host but host 5
// sends three flows to host 5, and one flow to the next host unless that is
// host 3, 7 or 5. Hosts 3 and 7 receive nothing, and host 5 most packets.
std::vector<traffic::packet_stream> skewed_streams() {
  constexpr std::int32_t hosts = 11;
  constexpr std::int32_t hot = 5;
  std::vector<traffic::flow_spec> flows;
  for (std::int32_t src = 0; src < hosts; ++src) {
    const auto add = [&](std::int32_t dst) {
      traffic::flow_spec flow;
      flow.flow_id = static_cast<std::uint32_t>(flows.size());
      flow.src_host = src;
      flow.dst_host = dst;
      flows.push_back(flow);
    };
    if (src != hot)
      for (int k = 0; k < 3; ++k) add(hot);
    const std::int32_t next = (src + 1) % hosts;
    if (next != 3 && next != 7 && next != hot) add(next);
  }
  traffic::tg_util_config tg;
  tg.per_flow_rate = 20'000.0;
  tg.seed = 17;
  auto generators = traffic::make_generators(flows, tg);
  util::rng rng{17};
  return traffic::per_host_streams(generators, hosts, 0.005, rng);
}

// Deliveries are one std::sort by (delivery_time, pid) of every host's
// records, bit for bit at every worker count. Collection merges the hosts'
// runs level by level, each level cut into one piece per worker. The skewed
// input gives it empty runs, an odd run count and one run of most records,
// so pieces cut inside one pair of runs.
TEST(determinism, engine_bit_identical_across_partition_counts) {
  constexpr double horizon = 0.005;
  const auto ptm = tiny_ptm();
  const auto check = [&](const topo::topology& topo,
                         const std::vector<traffic::packet_stream>& streams)
      -> des::run_result {
    const topo::routing routes{topo};
    des::run_result first;
    for (const std::size_t workers : {1, 2, 3, 4}) {
      SCOPED_TRACE(std::to_string(workers) + " workers");
      core::engine_config cfg;
      cfg.partitions = workers;
      core::dqn_network net{topo, routes, ptm, {}, cfg};
      auto result = net.run(streams, horizon);
      EXPECT_FALSE(result.deliveries.empty());
      expect_same_deliveries(
          result.deliveries,
          sorted_deliveries(topo, streams, horizon,
                            [&net](topo::node_id node, std::size_t port)
                                -> const traffic::packet_stream& {
                              return net.egress_stream(node, port);
                            }));
      if (workers == 1)
        first = std::move(result);
      else
        expect_bit_identical(first, result);
    }
    return first;
  };

  {
    SCOPED_TRACE("fattree16, uniform");
    (void)check(topo::make_fattree16(), fattree_streams());
  }
  {
    SCOPED_TRACE("abilene, skewed");
    const auto topo = topo::make_abilene();
    const auto result = check(topo, skewed_streams());
    std::map<topo::node_id, std::size_t> received;
    for (const auto& d : result.deliveries) ++received[d.dst];
    const auto hosts = topo.hosts();
    EXPECT_EQ(received.size(), hosts.size() - 2);
    EXPECT_EQ(received.count(hosts[3]), 0u);
    EXPECT_EQ(received.count(hosts[7]), 0u);
    EXPECT_GT(2 * received[hosts[5]], result.deliveries.size());
  }
}

// The sharded engine's core promise: deliveries are a pure function of
// (topology, streams, seed, model) — 1/2/8 shards with topology-aware
// sharding and work stealing (the automatic batch is one device on every
// FatTree16 stage here, which maximizes steal traffic) all reproduce the
// 1-shard run bit for bit. The shard plan only decides WHERE a device is
// computed; every device stages its output in its own slot while reading
// t-1 egress state that no worker writes during the round.
TEST(determinism, engine_bit_identical_across_shard_counts_with_stealing) {
  const auto ptm = tiny_ptm();
  const auto topo = topo::make_fattree16();
  const topo::routing routes{topo};
  const auto streams = fattree_streams();

  core::dqn_network one{topo, routes, ptm, {}, {}};
  const auto one_result = one.run(streams, 0.005);

  for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
    core::engine_config cfg;
    cfg.partitions = shards;
    core::dqn_network net{topo, routes, ptm, {}, cfg};
    const auto result = net.run(streams, 0.005);
    EXPECT_EQ(net.stats().workers, shards);
    expect_bit_identical(one_result, result);
  }
}

TEST(determinism, engine_bit_identical_across_consecutive_runs) {
  const auto ptm = tiny_ptm();
  const auto topo = topo::make_fattree16();
  const topo::routing routes{topo};
  const auto streams = fattree_streams();

  core::engine_config cfg;
  cfg.partitions = 4;
  core::dqn_network first{topo, routes, ptm, {}, cfg};
  core::dqn_network second{topo, routes, ptm, {}, cfg};
  const auto first_result = first.run(streams, 0.005);
  const auto second_result = second.run(streams, 0.005);
  expect_bit_identical(first_result, second_result);
}

TEST(determinism, des_network_bit_identical_across_consecutive_runs) {
  const auto topo = topo::make_fattree16();
  const topo::routing routes{topo};
  const auto streams = fattree_streams();

  des::network_config cfg;
  cfg.record_hops = false;
  des::network first{topo, routes, cfg};
  des::network second{topo, routes, cfg};
  const auto first_result = first.run(streams, 0.005);
  const auto second_result = second.run(streams, 0.005);
  expect_bit_identical(first_result, second_result);
  // The same instance runs again from an empty network and a fresh clock.
  const auto again = first.run(streams, 0.005);
  expect_bit_identical(first_result, again);
  EXPECT_EQ(first_result.events, again.events);
}

// Every hop record, bit for bit: each inferred queue's kept packets with
// their arrival and departure, so two runs that drop different packets of
// a queue differ here.
void expect_same_hops(const std::vector<des::hop_record>& a,
                      const std::vector<des::hop_record>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pid, b[i].pid) << "hop " << i;
    EXPECT_EQ(a[i].device, b[i].device) << "hop " << i;
    EXPECT_EQ(a[i].out_port, b[i].out_port) << "hop " << i;
    EXPECT_TRUE(same_bits(a[i].arrival, b[i].arrival)) << "hop " << i;
    EXPECT_TRUE(same_bits(a[i].departure, b[i].departure)) << "hop " << i;
  }
}

// Each egress queue is its own stealable task in the queue pass, dealt
// longest first to the workers; where a queue runs must not change a bit.
// At 1-4 workers the deliveries, the drop count and every queue's kept
// packets (so its drop set) are equal, on FatTree16 with 3-class strict
// priority and 8 KB drop-tail buffers under bursty MAP traffic (queues that
// drop and reorder) and on a 4x4 torus (a cyclic stage that iterates), with
// the IRSA skip on and off.
TEST(determinism, queue_pass_bit_identical_across_worker_counts) {
  constexpr double horizon = 0.005;
  const auto ptm = tiny_ptm();
  struct scenario {
    const char* name;
    topo::topology topo;
    core::scheduler_context ctx;
    std::vector<traffic::packet_stream> streams;
  };
  const scenario scenarios[] = {
      {"fattree16, 3-class SP, 8 KB buffers", topo::make_fattree16(slow_links),
       sp_drops_context(), map_streams(16, 3, horizon)},
      {"torus4x4", topo::make_torus2d(4, 4), {}, uniform_streams(16)},
  };
  for (const scenario& sc : scenarios) {
    const topo::routing routes{sc.topo};
    for (const bool skip : {true, false}) {
      des::run_result first;
      for (const std::size_t workers : {1, 2, 3, 4}) {
        SCOPED_TRACE(std::string{sc.name} + ", skip " + (skip ? "on" : "off") +
                     ", " + std::to_string(workers) + " workers");
        core::engine_config cfg;
        cfg.partitions = workers;
        cfg.irsa_skip_unchanged = skip;
        cfg.record_hops = true;
        core::dqn_network net{sc.topo, routes, ptm, sc.ctx, cfg};
        auto result = net.run(sc.streams, horizon);
        EXPECT_EQ(net.stats().workers, workers);
        if (workers == 1) {
          EXPECT_FALSE(result.deliveries.empty());
          if (sc.ctx.buffer_bytes > 0) {
            EXPECT_GT(result.drops, 0u);
          }
          first = std::move(result);
          continue;
        }
        expect_bit_identical(first, result);
        expect_same_hops(first.hops, result.hops);
      }
    }
  }
}

// Host-stream packets a run injects before `horizon`.
std::size_t injected_before(const std::vector<traffic::packet_stream>& streams,
                            double horizon) {
  std::size_t injected = 0;
  for (const auto& stream : streams)
    for (const auto& ev : stream)
      if (ev.time <= horizon) ++injected;
  return injected;
}

// Each egress queue was inferred exactly once: every packet offered to a
// device queue (pfm.forwarded less the host-NIC pass over the injected
// packets) is one kept hop or one drop of that queue's only inference, and
// no device visit was skipped. Needs record_hops and a sink on the run.
void expect_each_queue_inferred_once(const des::run_result& result,
                                     const obs::sink& sink, std::size_t injected,
                                     const core::engine_stats& stats) {
  ASSERT_FALSE(result.hops.empty());
  EXPECT_EQ(sink.metrics().counter("pfm.forwarded") - static_cast<double>(injected),
            static_cast<double>(result.hops.size() + result.drops));
  EXPECT_EQ(stats.devices_skipped, 0u);
}

// Every device port's final egress stream, bit for bit (packet-level
// visibility reads these after the run).
void expect_same_egress(const core::dqn_network& a, const core::dqn_network& b,
                        const topo::topology& topo) {
  for (const auto node : topo.devices()) {
    for (std::size_t port = 0; port < topo.port_count(node); ++port) {
      const auto& sa = a.egress_stream(node, port);
      const auto& sb = b.egress_stream(node, port);
      ASSERT_EQ(sa.size(), sb.size()) << "node " << node << " port " << port;
      for (std::size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i].pkt.pid, sb[i].pkt.pid);
        EXPECT_TRUE(same_bits(sa[i].time, sb[i].time))
            << "node " << node << " port " << port << " packet " << i;
      }
    }
  }
}

// Dependency-ordered IRSA reaches Algorithm 1's fixed point. On an acyclic
// queue graph each queue's output depends only on its final arrivals, so
// one pass in level order is exact; on a torus the cyclic stage holds every
// queue and runs Algorithm 1's rounds with the skip. Abilene and GEANT peel
// a few queues before the cyclic stage, which then starts from their final
// streams: its fixed point agrees with Algorithm 1's within the convergence
// tolerance.
TEST(determinism, ordered_schedule_matches_algorithm1) {
  enum class shape { acyclic, torus, mixed };
  struct topo_case {
    const char* name;
    topo::topology (*build)();
    shape kind;
  };
  const topo_case cases[] = {
      {"line4", +[] { return topo::make_line(4); }, shape::acyclic},
      {"line6", +[] { return topo::make_line(6); }, shape::acyclic},
      {"torus3x3", +[] { return topo::make_torus2d(3, 3); }, shape::torus},
      {"fattree8", +[] { return topo::make_fattree8(); }, shape::acyclic},
      {"fattree16", +[] { return topo::make_fattree16(); }, shape::acyclic},
      {"abilene", +[] { return topo::make_abilene(); }, shape::mixed},
      {"geant", +[] { return topo::make_geant(); }, shape::mixed},
  };
  constexpr double horizon = 0.005;
  constexpr double tolerance = 1e-9;  // the engine's convergence tolerance
  const auto ptm = tiny_ptm();
  for (const auto& c : cases) {
    const auto topo = c.build();
    const topo::routing routes{topo};
    const auto streams = uniform_streams(topo.hosts().size());
    const std::size_t injected = injected_before(streams, horizon);
    for (const auto backend : {des::delay_backend::ptm, des::delay_backend::analytical,
                               des::delay_backend::tiered}) {
      for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE(std::string{c.name} + ", " + des::to_string(backend) + ", " +
                     std::to_string(workers) + " workers");
        obs::sink sink;
        core::engine_config cfg;
        cfg.partitions = workers;
        cfg.delay.backend = backend;
        cfg.record_hops = true;
        cfg.sink = &sink;
        core::dqn_network ordered{topo, routes, ptm, {}, cfg};
        cfg.irsa_skip_unchanged = false;
        cfg.record_hops = false;
        cfg.sink = nullptr;
        core::dqn_network algorithm1{topo, routes, ptm, {}, cfg};
        const auto result = ordered.run(streams, horizon);
        const auto reference = algorithm1.run(streams, horizon);
        const core::engine_stats& stats = ordered.stats();
        EXPECT_TRUE(stats.converged);
        EXPECT_TRUE(algorithm1.stats().converged);
        switch (c.kind) {
          case shape::acyclic:
            expect_bit_identical(result, reference);
            expect_same_egress(ordered, algorithm1, topo);
            expect_each_queue_inferred_once(result, sink, injected, stats);
            break;
          case shape::torus:
            // Every torus queue sits in the cyclic stage, so the run is the
            // skip loop over the whole graph: Algorithm 1's rounds, and one
            // inference or skip per device and round, 45 = 5 rounds x 9
            // devices. Here that is 19 inferences under every backend.
            // Algorithm 1 visits every device each round but infers only
            // the queues a moved stream feeds: the same 19 here.
            expect_bit_identical(result, reference);
            expect_same_egress(ordered, algorithm1, topo);
            EXPECT_EQ(stats.iterations, algorithm1.stats().iterations);
            EXPECT_EQ(stats.device_inferences + stats.devices_skipped,
                      algorithm1.stats().device_inferences +
                          algorithm1.stats().devices_skipped);
            EXPECT_EQ(stats.iterations, 5u);
            EXPECT_EQ(stats.device_inferences + stats.devices_skipped, 45u);
            EXPECT_EQ(stats.device_inferences, 19u);
            EXPECT_EQ(algorithm1.stats().device_inferences, 19u);
            break;
          case shape::mixed: {
            ASSERT_EQ(result.deliveries.size(), reference.deliveries.size());
            ASSERT_EQ(result.drops, reference.drops);
            std::map<std::uint64_t, double> reference_times;
            for (const auto& d : reference.deliveries)
              reference_times[d.pid] = d.delivery_time;
            std::size_t moved = 0;
            double largest = 0;
            for (const auto& d : result.deliveries) {
              const auto it = reference_times.find(d.pid);
              ASSERT_NE(it, reference_times.end()) << "pid " << d.pid;
              const double gap = std::abs(d.delivery_time - it->second);
              EXPECT_LE(gap, tolerance) << "pid " << d.pid;
              if (!same_bits(d.delivery_time, it->second)) ++moved;
              largest = std::max(largest, gap);
            }
            std::printf("[ moved    ] %s %s %zu workers: %zu of %zu deliveries "
                        "moved, at most %.3g s\n",
                        c.name, des::to_string(backend), workers, moved,
                        result.deliveries.size(), largest);
            break;
          }
        }
      }
    }
  }
}

// --- the engine against the public layer pipeline --------------------------

// Every port's egress stream, [node][port].
using egress_state = std::vector<std::vector<traffic::packet_stream>>;

bool same_stream(const traffic::packet_stream& a,
                 const traffic::packet_stream& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].pkt.pid != b[i].pkt.pid || !same_bits(a[i].time, b[i].time))
      return false;
  return true;
}

// Algorithm 1 over the public operators. SInit: each host's packets up to
// the horizon, sorted by (time, pid), through a FIFO host-NIC queue at its
// access link's rate. Then a Jacobi iteration: each round computes every
// device from the previous round's streams with apply_link and
// device_model::process (which forwards with apply_forwarding), until no
// stream changes by a bit. `drops` receives the last round's drop count.
egress_state layer_pipeline(
    const topo::topology& topo, const topo::routing& routes,
    const std::vector<traffic::packet_stream>& host_streams, double horizon,
    const std::shared_ptr<const core::ptm_model>& ptm,
    const core::scheduler_context& ctx, core::delay_provider& provider,
    const std::map<std::uint32_t, topo::node_id>& flow_dst,
    std::uint64_t& drops) {
  egress_state state(topo.node_count());
  for (std::size_t n = 0; n < state.size(); ++n)
    state[n].resize(topo.port_count(static_cast<topo::node_id>(n)));
  const auto hosts = topo.hosts();
  const core::device_model model{ptm, ctx};
  const core::device_model nic{ptm, core::scheduler_context{}};
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    traffic::packet_stream queue;
    for (const auto& ev : host_streams[i]) {
      if (ev.time > horizon) break;
      traffic::packet pkt = ev.pkt;
      pkt.src_host = hosts[i];
      pkt.dst_host = hosts[static_cast<std::size_t>(pkt.dst_host)];
      queue.push_back({pkt, ev.time});
    }
    std::sort(queue.begin(), queue.end());
    core::queue_call call;
    call.delay = &provider;
    const double nic_bps =
        topo.link_at(topo.at(hosts[i]).links[0]).bandwidth_bps;
    state[static_cast<std::size_t>(hosts[i])][0] =
        nic.process_queue(std::move(queue), 0, nic_bps, call);
  }
  for (std::size_t round = 0; round < 20; ++round) {
    egress_state next = state;
    drops = 0;
    for (const auto node : topo.devices()) {
      const std::size_t ports = topo.port_count(node);
      std::vector<traffic::packet_stream> ingress(ports);
      std::vector<double> bandwidths(ports);
      for (std::size_t p = 0; p < ports; ++p) {
        const auto peer = topo.peer_of(node, p);
        const auto& link = topo.link_at(peer.link_index);
        ingress[p] = core::apply_link(
            state[static_cast<std::size_t>(peer.node)][peer.port],
            link.bandwidth_bps, link.propagation_delay);
        bandwidths[p] = topo.link_at(topo.at(node).links[p]).bandwidth_bps;
      }
      const core::forward_fn forward = [&](std::uint32_t fid, std::size_t) {
        return routes.egress_port(node, flow_dst.at(fid), fid);
      };
      std::vector<traffic::packet> dropped;
      next[static_cast<std::size_t>(node)] =
          model.process(ingress, forward, true, nullptr, &dropped, bandwidths,
                        nullptr, nullptr, nullptr, &provider,
                        static_cast<std::int64_t>(node), round);
      drops += dropped.size();
    }
    bool changed = false;
    for (std::size_t n = 0; n < state.size(); ++n)
      for (std::size_t p = 0; p < state[n].size(); ++p)
        changed = changed || !same_stream(state[n][p], next[n][p]);
    state = std::move(next);
    if (!changed) return state;
  }
  ADD_FAILURE() << "the layer pipeline did not reach a bitwise fixed point "
                   "in 20 rounds";
  return state;
}

// The engine reads its feeds in place, fusing the link shift and the PFM
// into one pass per device visit, infers a queue again only when a queue
// that feeds it moved, and collects deliveries on its pool; it sorts a
// stream only when a check finds it out of (time, pid) order. It must give
// exactly what the public layer pipeline gives, which re-infers every
// device in every round: every host and device egress stream, every
// delivery and the drop count, bit for bit, under the dependency-ordered
// schedule and under Algorithm 1's. A delivery's send time, source and
// flow id must be those its pid was sent with: the engine looks send times
// up by injection index. The fat-tree streams number pids in host order,
// so SInit proves them distinct without a sort; the other inputs' pids do
// not rise and take the sort. A cyclic stage stops at a 1e-9 tolerance,
// not at a bitwise fixed point; on the cyclic cases here no round before
// the fixed point moves a stream within the tolerance alone. Abilene and
// GEANT run Algorithm 1 only: their ordered schedule starts the cyclic
// stage from the peeled queues' final streams and agrees with Algorithm 1
// within the tolerance (ordered_schedule_matches_algorithm1).
TEST(determinism, engine_matches_layer_pipeline) {
  constexpr double horizon = 0.005;
  const auto ptm = tiny_ptm();
  const auto check = [&](const topo::topology& topo,
                         const core::scheduler_context& ctx,
                         const std::vector<traffic::packet_stream>& streams,
                         std::size_t workers, bool ordered = true) {
    const topo::routing routes{topo};
    const des::delay_policy delay{.backend = des::delay_backend::ptm};
    std::optional<egress_state> state;
    std::uint64_t drops = 0;
    for (const bool skip : {true, false}) {
      if (skip && !ordered) continue;
      SCOPED_TRACE(skip ? "dependency-ordered schedule" : "Algorithm 1");
      core::engine_config cfg;
      cfg.partitions = workers;
      cfg.irsa_skip_unchanged = skip;
      cfg.delay = delay;
      core::dqn_network engine{topo, routes, ptm, ctx, cfg};
      const auto result = engine.run(streams, horizon);
      ASSERT_FALSE(result.deliveries.empty());
      if (!skip) {
        // Algorithm 1's schedule still reuses queues: the runs here take
        // more than one round, and a later round always has a device none
        // of whose queues a moved stream feeds.
        EXPECT_GT(engine.stats().iterations, 1u);
        EXPECT_GT(engine.stats().devices_skipped, 0u);
      }

      if (!state) {
        // The test's traffic gives each flow id one destination, so
        // forward() may route by flow id.
        std::map<std::uint32_t, topo::node_id> flow_dst;
        for (const auto host : topo.hosts())
          for (const auto& ev : engine.egress_stream(host, 0)) {
            const auto it =
                flow_dst.emplace(ev.pkt.flow_id, ev.pkt.dst_host).first;
            ASSERT_EQ(it->second, ev.pkt.dst_host)
                << "flow " << ev.pkt.flow_id;
          }
        const auto provider = core::make_delay_provider(ptm, delay);
        provider->prepare(topo.node_count());
        state = layer_pipeline(topo, routes, streams, horizon, ptm, ctx,
                               *provider, flow_dst, drops);
      }

      const egress_state& reference = *state;
      for (topo::node_id node = 0;
           static_cast<std::size_t>(node) < topo.node_count(); ++node)
        for (std::size_t port = 0; port < topo.port_count(node); ++port)
          EXPECT_TRUE(same_stream(
              engine.egress_stream(node, port),
              reference[static_cast<std::size_t>(node)][port]))
              << "node " << node << " port " << port;

      expect_same_deliveries(
          result.deliveries,
          sorted_deliveries(topo, streams, horizon,
                            [&reference](topo::node_id node, std::size_t port)
                                -> const traffic::packet_stream& {
                              return reference[static_cast<std::size_t>(node)]
                                              [port];
                            }));
      EXPECT_EQ(result.drops, drops);
      if (ctx.buffer_bytes > 0) {
        EXPECT_GT(drops, 0u) << "the case must drop packets";
      }
    }
  };

  {
    SCOPED_TRACE("fattree16, FIFO, 4 workers");
    check(topo::make_fattree16(), {}, fattree_streams(), 4);
  }
  {
    SCOPED_TRACE("torus3x3, FIFO, 2 workers");
    check(topo::make_torus2d(3, 3), {}, uniform_streams(9), 2);
  }
  {
    SCOPED_TRACE("fattree16 at 1 Gbps, 3-class SP, 8 KB buffers, 4 workers");
    // Upstream drops change a queue's arrivals between rounds.
    check(topo::make_fattree16(slow_links), sp_drops_context(),
          map_streams(16, 3, horizon), 4);
  }
  {
    SCOPED_TRACE("abilene, FIFO, Algorithm 1 only, 3 workers");
    const auto topo = topo::make_abilene();
    check(topo, {}, uniform_streams(topo.hosts().size()), 3, false);
  }
  {
    SCOPED_TRACE("geant, FIFO, Algorithm 1 only, 4 workers");
    const auto topo = topo::make_geant();
    check(topo, {}, uniform_streams(topo.hosts().size()), 4, false);
  }
  {
    SCOPED_TRACE("line4, 3-class SP, 3 KB drop-tail, 1 worker");
    // 1 Gbps links; each host sends one flow per class, each to another host.
    const auto topo = topo::make_line(4, {1e9, 1e-6});
    std::vector<traffic::flow_spec> flows;
    for (std::uint32_t src = 0; src < 4; ++src)
      for (std::uint32_t c = 0; c < 3; ++c) {
        traffic::flow_spec flow;
        flow.flow_id = src * 3 + c;
        flow.src_host = static_cast<std::int32_t>(src);
        flow.dst_host = static_cast<std::int32_t>((src + 1 + c) % 4);
        flow.priority = static_cast<std::uint8_t>(c);
        flows.push_back(flow);
      }
    traffic::tg_util_config tg;
    tg.per_flow_rate = 30'000.0;
    tg.seed = 13;
    auto generators = traffic::make_generators(flows, tg);
    util::rng rng{13};
    const auto streams = traffic::per_host_streams(generators, 4, horizon, rng);
    core::scheduler_context sp;
    sp.kind = des::scheduler_kind::sp;
    sp.buffer_bytes = 3000;
    check(topo, sp, streams, 1);
  }
  {
    SCOPED_TRACE("line4 at 1e23 bps, FIFO, descending pids, 2 workers");
    // Near 1 ms a 64 B service time (5e-21 s) is below half an ulp of the
    // timestamps and a 1500 B one (1.2e-19 s) rounds to one ulp. So the
    // engine's checked orders all fail here and fall back to their sorts:
    // equal-time host packets with descending pids (SInit); departures that
    // tie while pids descend along the transmission order (re-sequencing);
    // and tied packets whose link shifts untie them out of pid order (the
    // ingress runs of the fused visit, and delivery collection).
    check(topo::make_line(4, {1e23, 0.0}), {}, descending_pid_streams(4, 500),
          2);
  }
  {
    SCOPED_TRACE("process_queue on departures tied out of pid order");
    // The pipeline above runs process_queue itself, so it cannot catch
    // process_queue's own output order. Here the first packet waits 1 us and
    // the rest not at all; their 64 B service times vanish below the ulp, so
    // every departure ties with the first one while pids descend along the
    // FIFO transmission order.
    struct first_waits final : core::delay_provider {
      std::vector<double> estimate_sojourn(const core::device_state& state,
                                           double) override {
        std::vector<double> sojourns(state.arrivals->size(), 0.0);
        sojourns.front() = 1e-6;
        return sojourns;
      }
      const char* name() const noexcept override { return "first_waits"; }
    } provider;
    traffic::packet_stream queue;
    for (std::uint64_t k = 0; k < 8; ++k) {
      traffic::packet pkt;
      pkt.pid = 100 - k;
      pkt.size_bytes = 64;
      queue.push_back({pkt, 1e-3 + 1e-9 * static_cast<double>(k)});
    }
    core::queue_call call;
    call.delay = &provider;
    const auto out =
        core::device_model{ptm, {}}.process_queue(queue, 0, 1e23, call);
    ASSERT_EQ(out.size(), queue.size());
    EXPECT_TRUE(same_bits(out.front().time, out.back().time))
        << "the case must tie";
    auto sorted = out;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(same_stream(out, sorted)) << "not in (time, pid) order";
  }
}

}  // namespace
