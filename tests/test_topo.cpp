#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "topo/builders.hpp"
#include "topo/graph.hpp"
#include "topo/queue_graph.hpp"
#include "topo/routing.hpp"
#include "topo/sharding.hpp"
#include "util/check.hpp"

namespace {

using namespace dqn::topo;

TEST(graph, connect_assigns_sequential_ports) {
  topology t;
  const auto a = t.add_device("a");
  const auto b = t.add_device("b");
  const auto c = t.add_device("c");
  t.connect(a, b);
  t.connect(a, c);
  EXPECT_EQ(t.port_count(a), 2u);
  EXPECT_EQ(t.port_count(b), 1u);
  EXPECT_EQ(t.peer_of(a, 0).node, b);
  EXPECT_EQ(t.peer_of(a, 1).node, c);
  EXPECT_EQ(t.peer_of(b, 0).node, a);
  EXPECT_EQ(t.peer_of(b, 0).port, 0u);
}

TEST(graph, rejects_bad_connections) {
  topology t;
  const auto a = t.add_device("a");
  EXPECT_THROW(t.connect(a, a), dqn::util::contract_violation);
  EXPECT_THROW(t.connect(a, 99), dqn::util::contract_violation);
  const auto b = t.add_device("b");
  EXPECT_THROW(t.connect(a, b, 0.0), dqn::util::contract_violation);
}

TEST(graph, hop_distances_bfs) {
  // a - b - c, a - c (triangle plus tail d).
  topology t;
  const auto a = t.add_device("a");
  const auto b = t.add_device("b");
  const auto c = t.add_device("c");
  const auto d = t.add_device("d");
  t.connect(a, b);
  t.connect(b, c);
  t.connect(a, c);
  t.connect(c, d);
  const auto dist = t.hop_distances(a);
  EXPECT_EQ(dist[static_cast<std::size_t>(a)], 0);
  EXPECT_EQ(dist[static_cast<std::size_t>(b)], 1);
  EXPECT_EQ(dist[static_cast<std::size_t>(c)], 1);
  EXPECT_EQ(dist[static_cast<std::size_t>(d)], 2);
}

TEST(graph, diameter_of_line) {
  const auto t = make_line(4);
  // Host - s0 - s1 - s2 - s3 - host: diameter 5.
  EXPECT_EQ(t.diameter(), 5u);
}

TEST(builders, line_shape) {
  const auto t = make_line(6);
  EXPECT_EQ(t.hosts().size(), 6u);
  EXPECT_EQ(t.devices().size(), 6u);
  EXPECT_EQ(t.link_count(), 5u + 6u);  // chain + host links
}

TEST(builders, torus_shape_and_degree) {
  const auto t = make_torus2d(4, 4);
  EXPECT_EQ(t.hosts().size(), 16u);
  EXPECT_EQ(t.devices().size(), 16u);
  // Each switch: 4 torus neighbours + 1 host.
  for (const auto sw : t.devices()) EXPECT_EQ(t.port_count(sw), 5u);
  EXPECT_EQ(t.link_count(), 32u + 16u);
}

TEST(builders, torus_2x2_has_no_duplicate_links) {
  const auto t = make_torus2d(2, 2);
  // 2x2 torus without wrap duplicates: 4 links + 4 host links.
  EXPECT_EQ(t.link_count(), 8u);
}

TEST(builders, fattree16_matches_table3) {
  const auto t = make_fattree16();
  EXPECT_EQ(t.hosts().size(), 16u);  // 2 clusters x 2 ToR x 4 servers
  // Devices: 4 cores + 2 clusters x (2 agg + 2 tor) = 12.
  EXPECT_EQ(t.devices().size(), 12u);
}

TEST(builders, fattree64_and_128_host_counts) {
  EXPECT_EQ(make_fattree64().hosts().size(), 64u);
  EXPECT_EQ(make_fattree128().hosts().size(), 128u);
}

TEST(builders, abilene_shape) {
  const auto t = make_abilene();
  EXPECT_EQ(t.devices().size(), 11u);
  EXPECT_EQ(t.hosts().size(), 11u);
  EXPECT_EQ(t.link_count(), 14u + 11u);
}

TEST(builders, geant_shape) {
  const auto t = make_geant();
  EXPECT_EQ(t.devices().size(), 22u);
  EXPECT_EQ(t.hosts().size(), 22u);
  EXPECT_EQ(t.link_count(), 36u + 22u);
}

TEST(builders, all_topologies_are_connected) {
  for (const auto& t :
       {make_line(4), make_torus2d(4, 4), make_fattree16(), make_fattree64(),
        make_abilene(), make_geant()}) {
    const auto dist = t.hop_distances(0);
    for (int d : dist) EXPECT_GE(d, 0);
  }
}

TEST(routing, line_path_is_the_only_path) {
  const auto t = make_line(4);
  const routing routes{t};
  const auto hosts = t.hosts();
  const auto path = routes.flow_path(hosts[0], hosts[3], 7);
  // host0 -> s0 -> s1 -> s2 -> s3 -> host3.
  ASSERT_EQ(path.size(), 6u);
  EXPECT_EQ(path.front(), hosts[0]);
  EXPECT_EQ(path.back(), hosts[3]);
}

TEST(routing, paths_are_shortest) {
  const auto t = make_fattree16();
  const routing routes{t};
  const auto hosts = t.hosts();
  for (std::size_t i = 0; i < hosts.size(); i += 3) {
    for (std::size_t j = 0; j < hosts.size(); j += 5) {
      if (i == j) continue;
      const auto dist = t.hop_distances(hosts[j]);
      const auto path = routes.flow_path(hosts[i], hosts[j], 42);
      EXPECT_EQ(static_cast<int>(path.size() - 1),
                dist[static_cast<std::size_t>(hosts[i])]);
    }
  }
}

TEST(routing, ecmp_is_per_flow_stable) {
  const auto t = make_fattree16();
  const routing routes{t};
  const auto hosts = t.hosts();
  const auto p1 = routes.flow_path(hosts[0], hosts[12], 5);
  const auto p2 = routes.flow_path(hosts[0], hosts[12], 5);
  EXPECT_EQ(p1, p2);
}

TEST(routing, ecmp_spreads_flows_across_equal_cost_paths) {
  const auto t = make_fattree16();
  const routing routes{t};
  const auto hosts = t.hosts();
  std::set<std::vector<node_id>> distinct;
  for (std::uint32_t flow = 0; flow < 64; ++flow)
    distinct.insert(routes.flow_path(hosts[0], hosts[12], flow));
  // Inter-cluster traffic in this fat-tree has several equal-cost paths.
  EXPECT_GT(distinct.size(), 1u);
}

TEST(routing, equal_cost_ports_decrease_distance) {
  const auto t = make_torus2d(4, 4);
  const routing routes{t};
  const auto hosts = t.hosts();
  const auto dist = t.hop_distances(hosts[10]);
  for (const auto dev : t.devices()) {
    for (const std::size_t port : routes.equal_cost_ports(dev, hosts[10])) {
      const auto peer = t.peer_of(dev, port);
      EXPECT_EQ(dist[static_cast<std::size_t>(peer.node)],
                dist[static_cast<std::size_t>(dev)] - 1);
    }
  }
}

TEST(routing, unreachable_destination_throws) {
  topology t;
  const auto h1 = t.add_host("h1");
  const auto h2 = t.add_host("h2");
  const auto s = t.add_device("s");
  t.connect(h1, s);
  (void)h2;  // never connected
  const routing routes{t};
  EXPECT_THROW((void)routes.egress_port(s, h2, 0), std::runtime_error);
}

TEST(routing, rejects_non_host_destination) {
  const auto t = make_line(3);
  const routing routes{t};
  const auto sw = t.devices()[0];
  if (dqn::util::contracts_enabled) {
    EXPECT_THROW((void)routes.equal_cost_ports(sw, sw), dqn::util::contract_violation);
  }
}

// --- egress-queue dependency graph (core/engine.cpp orders IRSA by it) -----

std::vector<std::size_t> queues_per_level(const topology& t, const queue_graph& g) {
  std::vector<std::size_t> sizes(g.level_count(), 0);
  for (const auto node : t.devices())
    for (std::size_t p = 0; p < t.port_count(node); ++p) ++sizes[g.level_of(node, p)];
  return sizes;
}

TEST(queue_graph, fattree_and_line_levels_follow_the_longest_chain) {
  // FatTree16's chain is ToR up, aggregation up, core down, aggregation
  // down, ToR down; the 16 ToR-to-host queues also take intra-ToR traffic.
  const auto ft = make_fattree16();
  const queue_graph ft_graph{ft, routing{ft}};
  EXPECT_EQ(queues_per_level(ft, ft_graph),
            (std::vector<std::size_t>{8, 8, 8, 8, 16}));
  // Line4: s0 -> s1 -> s2 -> s3 -> host is the longest chain, 4 queues.
  const auto line = make_line(4);
  const queue_graph line_graph{line, routing{line}};
  EXPECT_EQ(queues_per_level(line, line_graph),
            (std::vector<std::size_t>{2, 2, 4, 2}));
  EXPECT_FALSE(ft_graph.cyclic());
  EXPECT_FALSE(line_graph.cyclic());
}

TEST(queue_graph, cycles_and_the_queues_they_feed_form_the_last_level) {
  // Equal-cost routes on a torus chain switch queues into cycles, and the
  // cycles feed every switch-to-host queue: no queue is fed by hosts alone.
  const auto t = make_torus2d(3, 3);
  const queue_graph g{t, routing{t}};
  EXPECT_EQ(queues_per_level(t, g), (std::vector<std::size_t>{45}));
  EXPECT_TRUE(g.cyclic());
  // Abilene and GEANT peel a few queues off before their cycles.
  const auto abilene = make_abilene();
  const queue_graph abilene_graph{abilene, routing{abilene}};
  EXPECT_EQ(queues_per_level(abilene, abilene_graph),
            (std::vector<std::size_t>{2, 37}));
  EXPECT_TRUE(abilene_graph.cyclic());
  const auto geant = make_geant();
  const queue_graph geant_graph{geant, routing{geant}};
  EXPECT_EQ(queues_per_level(geant, geant_graph),
            (std::vector<std::size_t>{6, 1, 87}));
  EXPECT_TRUE(geant_graph.cyclic());
  if (dqn::util::contracts_enabled) {
    EXPECT_THROW((void)g.level_of(t.hosts()[0], 0), dqn::util::contract_violation);
    EXPECT_THROW((void)g.level_of(t.devices()[0], 99), dqn::util::contract_violation);
  }
}

// The engine reuses a queue's output while none of its predecessors'
// streams moved, which is sound only if every route runs along edges: the
// egress queues a flow's path takes at two consecutive devices form an edge,
// whichever equal-cost port the flow hash picks.
TEST(queue_graph, every_route_runs_along_edges) {
  for (const topology& t : {make_fattree16(), make_torus2d(3, 3), make_abilene()}) {
    const routing routes{t};
    const queue_graph g{t, routes};
    std::size_t queues = 0;
    for (const auto node : t.devices()) {
      EXPECT_EQ(g.queue_index(node, 0), queues);
      queues += t.port_count(node);
    }
    EXPECT_EQ(g.queue_count(), queues);
    // The egress queue of `from` whose link leads to `to`.
    const auto queue_to = [&](node_id from, node_id to) {
      std::size_t port = 0;
      while (t.peer_of(from, port).node != to) ++port;
      return g.queue_index(from, port);
    };
    std::size_t steps = 0;
    for (const auto src : t.hosts())
      for (const auto dst : t.hosts())
        for (std::uint32_t flow = 0; src != dst && flow < 4; ++flow) {
          // src host, devices..., dst host
          const auto path = routes.flow_path(src, dst, flow);
          for (std::size_t i = 1; i + 2 < path.size(); ++i, ++steps) {
            const auto next = g.successors(queue_to(path[i], path[i + 1]));
            EXPECT_NE(std::find(next.begin(), next.end(),
                                queue_to(path[i + 1], path[i + 2])),
                      next.end())
                << "path step " << i << " from host " << src << " to " << dst;
          }
        }
    EXPECT_GT(steps, 0u);
  }
}

// Parameterized sweep: every evaluation topology yields a working routing.
// --- shard planning (core/engine.cpp consumes these plans) -----------------

// Every shard plan must be a partition of the device-index range: each index
// appears exactly once, and shard sizes stay balanced (differ by <= 1) so no
// worker is starved before stealing even starts.
void expect_valid_partition(const shard_plan& plan, std::size_t device_count,
                            std::size_t shard_count) {
  ASSERT_EQ(plan.shards.size(), shard_count);
  std::set<std::size_t> seen;
  std::size_t min_size = device_count;
  std::size_t max_size = 0;
  for (const auto& shard : plan.shards) {
    min_size = std::min(min_size, shard.size());
    max_size = std::max(max_size, shard.size());
    for (const auto index : shard) {
      EXPECT_LT(index, device_count);
      EXPECT_TRUE(seen.insert(index).second) << "device index " << index
                                             << " assigned twice";
    }
  }
  EXPECT_EQ(seen.size(), device_count);
  EXPECT_LE(max_size - min_size, 1u);
}

TEST(sharding, both_strategies_partition_all_devices) {
  const auto t = make_fattree16();
  const auto devices = t.devices();
  for (const auto strategy :
       {shard_strategy::round_robin, shard_strategy::topology}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{3},
                                     std::size_t{4}, std::size_t{7}}) {
      const auto plan = shard_devices(t, devices, shards, strategy);
      expect_valid_partition(plan, devices.size(), shards);
    }
  }
}

TEST(sharding, plan_is_deterministic_across_calls) {
  const auto t = make_fattree16();
  const auto devices = t.devices();
  const auto first = shard_devices(t, devices, 4, shard_strategy::topology);
  const auto second = shard_devices(t, devices, 4, shard_strategy::topology);
  EXPECT_EQ(first.shards, second.shards);
  EXPECT_EQ(first.cross_shard_links, second.cross_shard_links);
}

TEST(sharding, topology_strategy_cuts_fewer_links_than_round_robin) {
  // The BFS-grown plan exists to keep pods together; on a clustered fat-tree
  // it must strictly beat the index shuffle.
  const auto t = make_fattree16();
  const auto devices = t.devices();
  const auto bfs = shard_devices(t, devices, 4, shard_strategy::topology);
  const auto rr = shard_devices(t, devices, 4, shard_strategy::round_robin);
  EXPECT_LT(bfs.cross_shard_links, rr.cross_shard_links);
  EXPECT_GT(rr.cross_shard_links, 0u);
}

TEST(sharding, single_shard_has_no_cross_links) {
  const auto t = make_fattree16();
  const auto devices = t.devices();
  for (const auto strategy :
       {shard_strategy::round_robin, shard_strategy::topology}) {
    const auto plan = shard_devices(t, devices, 1, strategy);
    EXPECT_EQ(plan.cross_shard_links, 0u);
  }
}

TEST(sharding, shard_count_clamps_to_device_count) {
  const auto t = make_line(3);  // 3 switches
  const auto devices = t.devices();
  ASSERT_EQ(devices.size(), 3u);
  const auto plan = shard_devices(t, devices, 8, shard_strategy::topology);
  expect_valid_partition(plan, devices.size(), 3u);
}

TEST(sharding, zero_shards_rejected) {
  const auto t = make_line(3);
  const auto devices = t.devices();
  EXPECT_THROW(shard_devices(t, devices, 0, shard_strategy::topology),
               dqn::util::contract_violation);
}

struct topo_case {
  const char* name;
  topology (*build)();
};

topology build_line4() { return make_line(4); }
topology build_line6() { return make_line(6); }
topology build_torus44() { return make_torus2d(4, 4); }
topology build_torus66() { return make_torus2d(6, 6); }
topology build_ft16() { return make_fattree16(); }
topology build_abilene() { return make_abilene(); }
topology build_geant() { return make_geant(); }

class all_topologies : public ::testing::TestWithParam<topo_case> {};

TEST_P(all_topologies, every_host_pair_is_routable) {
  const auto t = GetParam().build();
  const routing routes{t};
  const auto hosts = t.hosts();
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const auto j = (i + hosts.size() / 2 + 1) % hosts.size();
    if (i == j) continue;
    const auto path = routes.flow_path(hosts[i], hosts[j], 3);
    EXPECT_GE(path.size(), 2u);
    EXPECT_EQ(path.front(), hosts[i]);
    EXPECT_EQ(path.back(), hosts[j]);
  }
}

TEST_P(all_topologies, diameter_is_positive_and_bounded) {
  const auto t = GetParam().build();
  const auto d = t.diameter();
  EXPECT_GT(d, 0u);
  EXPECT_LT(d, t.node_count());
}

// The schedule's invariant: every route step from queue (u, p) to queue
// (v, q) either moves to a later level or stays inside the cyclic one.
TEST_P(all_topologies, queue_levels_order_every_route_step) {
  const auto t = GetParam().build();
  const routing routes{t};
  const queue_graph g{t, routes};
  std::size_t steps = 0;
  for (const auto dst : t.hosts()) {
    for (const auto u : t.devices()) {
      for (const std::size_t p : routes.equal_cost_ports(u, dst)) {
        const auto v = t.peer_of(u, p).node;
        if (t.at(v).kind != node_kind::device) continue;
        for (const std::size_t q : routes.equal_cost_ports(v, dst)) {
          ++steps;
          const auto from = g.level_of(u, p);
          const auto to = g.level_of(v, q);
          EXPECT_TRUE(to > from ||
                      (to == from && g.cyclic() && from + 1 == g.level_count()))
              << "queue (" << u << ", " << p << ") level " << from
              << " feeds queue (" << v << ", " << q << ") level " << to;
        }
      }
    }
  }
  EXPECT_GT(steps, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    evaluation_topologies, all_topologies,
    ::testing::Values(topo_case{"Line4", build_line4},
                      topo_case{"Line6", build_line6},
                      topo_case{"Torus4x4", build_torus44},
                      topo_case{"Torus6x6", build_torus66},
                      topo_case{"FatTree16", build_ft16},
                      topo_case{"Abilene", build_abilene},
                      topo_case{"GEANT", build_geant}),
    [](const auto& param_info) { return param_info.param.name; });

}  // namespace
