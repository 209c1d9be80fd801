// Determinism regression tests: the repo's reproducibility contract is that
// a run is a pure function of (topology, streams, seed, model) — neither
// the partition count nor run-to-run state may change a single output bit.
// These tests guard the deterministic-container sweep (util::keyed_vector
// replacing iterated unordered maps; see docs/STATIC_ANALYSIS.md) and are
// part of the TSan matrix: under -DDQN_SANITIZE=thread the partitioned
// comparison doubles as a race detector for the keyed tables.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/dutil.hpp"
#include "core/engine.hpp"
#include "des/network.hpp"
#include "des/records.hpp"
#include "des/run_api.hpp"
#include "topo/builders.hpp"
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

void expect_bit_identical(const des::run_result& a, const des::run_result& b) {
  ASSERT_EQ(a.deliveries.size(), b.deliveries.size());
  ASSERT_EQ(a.drops, b.drops);
  for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
    const auto& da = a.deliveries[i];
    const auto& db = b.deliveries[i];
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

TEST(determinism, engine_bit_identical_across_partition_counts) {
  const auto ptm = tiny_ptm();
  const auto topo = topo::make_fattree16();
  const topo::routing routes{topo};
  const auto streams = fattree_streams();

  core::engine_config serial_cfg;
  serial_cfg.partitions = 1;
  core::engine_config parallel_cfg;
  parallel_cfg.partitions = 4;
  core::dqn_network serial{topo, routes, ptm, {}, serial_cfg};
  core::dqn_network parallel{topo, routes, ptm, {}, parallel_cfg};

  const auto serial_result = serial.run(streams, 0.005);
  const auto parallel_result = parallel.run(streams, 0.005);
  expect_bit_identical(serial_result, parallel_result);
}

// The sharded engine's core promise: deliveries are a pure function of
// (topology, streams, seed, model) — 1/2/8 shards with topology-aware
// sharding and work stealing (single-device batches maximize steal traffic)
// all reproduce the 1-shard run bit for bit. The shard plan only decides
// WHERE a device is computed; every device stages its output in its own slot
// while reading t-1 egress state that no worker writes during the round.
TEST(determinism, engine_bit_identical_across_shard_counts_with_stealing) {
  const auto ptm = tiny_ptm();
  const auto topo = topo::make_fattree16();
  const topo::routing routes{topo};
  const auto streams = fattree_streams();

  core::engine_config base_cfg;
  base_cfg.sharding = topo::shard_strategy::topology;
  base_cfg.steal_batch = 1;
  core::engine_config one_cfg = base_cfg;
  one_cfg.partitions = 1;
  core::dqn_network one{topo, routes, ptm, {}, one_cfg};
  const auto one_result = one.run(streams, 0.005);

  for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
    core::engine_config cfg = base_cfg;
    cfg.partitions = shards;
    core::dqn_network net{topo, routes, ptm, {}, cfg};
    const auto result = net.run(streams, 0.005);
    EXPECT_EQ(net.stats().workers, shards);
    expect_bit_identical(one_result, result);
  }
}

// Shard strategy is equally irrelevant to results: topology-aware BFS
// clusters and the round-robin reference produce identical deliveries.
TEST(determinism, engine_bit_identical_across_shard_strategies) {
  const auto ptm = tiny_ptm();
  const auto topo = topo::make_fattree16();
  const topo::routing routes{topo};
  const auto streams = fattree_streams();

  core::engine_config topo_cfg;
  topo_cfg.partitions = 4;
  topo_cfg.sharding = topo::shard_strategy::topology;
  core::engine_config rr_cfg;
  rr_cfg.partitions = 4;
  rr_cfg.sharding = topo::shard_strategy::round_robin;
  core::dqn_network topo_net{topo, routes, ptm, {}, topo_cfg};
  core::dqn_network rr_net{topo, routes, ptm, {}, rr_cfg};

  const auto topo_result = topo_net.run(streams, 0.005);
  const auto rr_result = rr_net.run(streams, 0.005);
  expect_bit_identical(topo_result, rr_result);
  // The BFS-grown plan's raison d'être: fewer worker-crossing links than
  // the round-robin shuffle on a clustered topology.
  EXPECT_LT(topo_net.stats().cross_shard_links,
            rr_net.stats().cross_shard_links);
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

// The IRSA skip is exact: a device none of whose feeding streams changed in
// the last iteration would re-infer the egress it already has, so skipping
// it moves no delivery bit, no iteration count and no backend state.
TEST(determinism, engine_bit_identical_with_and_without_irsa_skip) {
  const auto ptm = tiny_ptm();
  for (auto build : {+[] { return topo::make_fattree16(); },
                     +[] { return topo::make_line(4); }}) {
    const auto topo = build();
    const topo::routing routes{topo};
    const auto streams = uniform_streams(topo.hosts().size());
    for (const auto backend :
         {des::delay_backend::ptm, des::delay_backend::tiered}) {
      SCOPED_TRACE(std::to_string(topo.devices().size()) + " devices, " +
                   des::to_string(backend));
      core::engine_config cfg;
      cfg.partitions = 4;
      cfg.delay.backend = backend;
      cfg.irsa_skip_unchanged = true;
      core::dqn_network skipping{topo, routes, ptm, {}, cfg};
      cfg.irsa_skip_unchanged = false;
      core::dqn_network full{topo, routes, ptm, {}, cfg};

      const auto skip_result = skipping.run(streams, 0.005);
      const auto full_result = full.run(streams, 0.005);
      expect_bit_identical(skip_result, full_result);
      const core::engine_stats& skip = skipping.stats();
      const core::engine_stats& all = full.stats();
      EXPECT_EQ(skip.iterations, all.iterations);
      EXPECT_GT(skip.devices_skipped, 0u);
      EXPECT_EQ(skip.device_inferences + skip.devices_skipped,
                all.device_inferences);
    }
  }
}

}  // namespace
