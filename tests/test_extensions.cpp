// Coverage for the heterogeneous-TM and buffer-management extensions:
// per-node TM overrides in the DES and the engine, byte-limited drop-tail,
// and the device model's deterministic drop decisions.
#include <gtest/gtest.h>

#include <memory>

#include "core/dutil.hpp"
#include "core/engine.hpp"
#include "des/network.hpp"
#include "des/traffic_manager.hpp"
#include "topo/builders.hpp"
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
    cfg.streams = 24;
    cfg.packets_per_stream = 600;
    cfg.ptm.time_steps = 8;
    cfg.ptm.mlp_hidden = {48, 24};
    cfg.ptm.epochs = 8;
    cfg.seed = 123;
    return core::train_device_model(cfg);
  }();
  return std::shared_ptr<const core::ptm_model>{&bundle.model,
                                                [](const core::ptm_model*) {}};
}

TEST(traffic_manager_bytes, byte_limit_drops_independent_of_packet_limit) {
  des::tm_config cfg;
  cfg.buffer_packets = 1000;
  cfg.buffer_bytes = 2500;
  des::traffic_manager tm{cfg};
  traffic::packet p;
  p.size_bytes = 1000;
  EXPECT_TRUE(tm.enqueue(p));
  EXPECT_TRUE(tm.enqueue(p));
  EXPECT_FALSE(tm.enqueue(p));  // 3000 > 2500
  EXPECT_EQ(tm.drops(), 1u);
  p.size_bytes = 400;
  EXPECT_TRUE(tm.enqueue(p));  // 2400 <= 2500
}

TEST(traffic_manager_bytes, zero_byte_limit_means_unlimited) {
  des::tm_config cfg;
  cfg.buffer_packets = 8;
  cfg.buffer_bytes = 0;
  des::traffic_manager tm{cfg};
  traffic::packet p;
  p.size_bytes = 100'000;
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(tm.enqueue(p));
  EXPECT_FALSE(tm.enqueue(p));  // packet limit still applies
}

// A 3-switch line whose middle link is the 100 Mbps bottleneck; host links
// and the first hop run at 1 Gbps so the queue builds at s1's egress.
topo::topology bottleneck_line() {
  topo::topology t;
  const auto s0 = t.add_device("s0");
  const auto s1 = t.add_device("s1");
  const auto s2 = t.add_device("s2");
  t.connect(s0, s1, 1e9, 1e-6);
  t.connect(s1, s2, 1e8, 1e-6);  // bottleneck
  const auto h0 = t.add_host("h0");
  t.connect(h0, s0, 1e9, 1e-6);
  const auto h2 = t.add_host("h2");
  t.connect(h2, s2, 1e9, 1e-6);
  return t;
}

TEST(heterogeneous_tm, des_applies_per_node_override) {
  // Middle switch runs 2-class SP, the rest FIFO: under bottleneck overload
  // the priority-0 class must beat priority-1, which FIFO cannot produce.
  const auto topo = bottleneck_line();
  const topo::routing routes{topo};
  des::network_config cfg;
  des::tm_config sp;
  sp.kind = des::scheduler_kind::sp;
  sp.classes = 2;
  cfg.tm_overrides[topo.devices()[1]] = sp;
  des::network net{topo, routes, cfg};

  util::rng rng{5};
  traffic::packet_stream stream;
  std::uint64_t pid = 0;
  double t = 0;
  // 1.5x overload of the bottleneck link.
  for (;;) {
    t += rng.exponential(1.5 * 1e8 / (1000 * 8.0));
    if (t >= 0.5) break;
    traffic::packet p;
    p.pid = pid++;
    p.flow_id = pid % 2;  // two flows, one per class
    p.size_bytes = 1000;
    p.priority = static_cast<std::uint8_t>(pid % 2);
    p.src_host = 0;
    p.dst_host = 1;  // host index of h2
    stream.push_back({p, t});
  }
  std::vector<traffic::packet_stream> streams(2);
  streams[0] = stream;
  const auto result = net.run(streams, 0.5);
  double high = 0, low = 0;
  std::size_t nh = 0, nl = 0;
  for (const auto& d : result.deliveries) {
    if (d.flow_id == 0) {
      high += d.latency();
      ++nh;
    } else {
      low += d.latency();
      ++nl;
    }
  }
  ASSERT_GT(nh, 100u);
  ASSERT_GT(nl, 100u);
  EXPECT_LT(high / static_cast<double>(nh),
            0.5 * (low / static_cast<double>(nl)));
}

TEST(heterogeneous_tm, engine_override_changes_predictions) {
  const auto topo = topo::make_fattree16();
  const topo::routing routes{topo};
  util::rng rng{9};
  auto flows = traffic::make_uniform_flows(16, 2, rng);
  traffic::tg_util_config tg;
  tg.per_flow_rate = 40'000;
  auto generators = traffic::make_generators(flows, tg);
  const auto streams = traffic::per_host_streams(generators, 16, 0.01, rng);

  core::dqn_network plain{topo, routes, shared_ptm(), {}, {}};
  core::dqn_network mixed{topo, routes, shared_ptm(), {}, {}};
  core::scheduler_context sp_ctx;
  sp_ctx.kind = des::scheduler_kind::sp;
  for (const auto dev : topo.devices())
    if (topo.at(dev).name.starts_with("agg"))
      mixed.set_device_context(dev, sp_ctx);

  const auto r1 = plain.run(streams, 0.01);
  const auto r2 = mixed.run(streams, 0.01);
  ASSERT_EQ(r1.deliveries.size(), r2.deliveries.size());
  double diff = 0;
  std::map<std::uint64_t, double> base;
  for (const auto& d : r1.deliveries) base[d.pid] = d.latency();
  for (const auto& d : r2.deliveries) diff += std::abs(d.latency() - base.at(d.pid));
  EXPECT_GT(diff, 0.0);
}

// Both estimators model every host NIC as a FIFO queue, so a per-node
// scheduler override must name a device of the topology. A host or an
// unknown node is rejected in every build, not silently ignored.
TEST(heterogeneous_tm, overrides_reject_hosts_and_unknown_nodes) {
  const auto topo = bottleneck_line();
  const topo::routing routes{topo};
  const topo::node_id host = topo.hosts().front();
  for (const topo::node_id node : {host, topo::node_id{9999}}) {
    SCOPED_TRACE(node);
    des::network_config cfg;
    cfg.tm_overrides[node] = des::tm_config{};
    EXPECT_THROW((des::network{topo, routes, cfg}), util::contract_violation);
    core::dqn_network net{topo, routes, shared_ptm(), {}, {}};
    EXPECT_THROW(net.set_device_context(node, core::scheduler_context{}),
                 util::contract_violation);
  }
}

TEST(drop_model, device_model_drops_when_buffer_exceeded) {
  core::scheduler_context ctx;
  ctx.bandwidth_bps = 1e8;    // 1000B packet = 80 us service
  ctx.buffer_bytes = 2500;
  core::device_model dev{shared_ptm(), ctx};
  // A burst of 5 back-to-back packets: the first enters service immediately
  // (0 backlog), the next two queue (1000, 2000 bytes), the rest exceed
  // 2500 bytes of backlog and drop.
  std::vector<traffic::packet_stream> ingress(1);
  for (int i = 0; i < 5; ++i) {
    traffic::packet p;
    p.pid = static_cast<std::uint64_t>(i);
    p.size_bytes = 1000;
    ingress[0].push_back({p, 0.0});
  }
  std::vector<traffic::packet> dropped;
  const auto egress = dev.process(
      ingress, [](std::uint32_t, std::size_t) { return 0u; }, true, nullptr,
      &dropped);
  EXPECT_EQ(egress[0].size() + dropped.size(), 5u);
  EXPECT_EQ(dropped.size(), 2u);
}

TEST(drop_model, no_buffer_limit_never_drops) {
  core::device_model dev{shared_ptm(), {}};
  std::vector<traffic::packet_stream> ingress(1);
  for (int i = 0; i < 50; ++i) {
    traffic::packet p;
    p.pid = static_cast<std::uint64_t>(i);
    p.size_bytes = 1500;
    ingress[0].push_back({p, 0.0});
  }
  std::vector<traffic::packet> dropped;
  const auto egress = dev.process(
      ingress, [](std::uint32_t, std::size_t) { return 0u; }, true, nullptr,
      &dropped);
  EXPECT_TRUE(dropped.empty());
  EXPECT_EQ(egress[0].size(), 50u);
}

TEST(drop_model, engine_counts_drops_and_conserves) {
  const auto topo = bottleneck_line();
  const topo::routing routes{topo};
  core::scheduler_context ctx;
  ctx.bandwidth_bps = 1e8;  // bottleneck egress line rate
  ctx.buffer_bytes = 8'000;
  core::dqn_network net{topo, routes, shared_ptm(), ctx, {}};

  // 1.5x overload of the bottleneck: drops must occur at s1.
  util::rng rng{11};
  traffic::packet_stream stream;
  std::uint64_t pid = 0;
  double t = 0;
  for (;;) {
    t += rng.exponential(1.5 * 1e8 / (1000 * 8.0));
    if (t >= 0.3) break;
    traffic::packet p;
    p.pid = pid++;
    p.flow_id = 1;
    p.size_bytes = 1000;
    p.src_host = 0;
    p.dst_host = 1;
    stream.push_back({p, t});
  }
  std::vector<traffic::packet_stream> streams(2);
  streams[0] = stream;
  const auto result = net.run(streams, 0.3);
  EXPECT_GT(result.drops, 0u);
  EXPECT_EQ(result.deliveries.size() + result.drops, stream.size());
}

TEST(drop_model, dqn_drop_rate_tracks_des) {
  // Same overloaded bottleneck, same byte budget: the DES and the DQN drop
  // model discard comparable fractions.
  const double bw = 1e8;
  const std::uint64_t buffer_bytes = 16'000;
  const auto topo = bottleneck_line();
  const topo::routing routes{topo};

  util::rng rng{13};
  traffic::packet_stream stream;
  std::uint64_t pid = 0;
  double t = 0;
  for (;;) {
    t += rng.exponential(1.3 * bw / (1000 * 8.0));
    if (t >= 1.0) break;
    traffic::packet p;
    p.pid = pid++;
    p.flow_id = 1;
    p.size_bytes = 1000;
    p.src_host = 0;
    p.dst_host = 1;
    stream.push_back({p, t});
  }
  std::vector<traffic::packet_stream> streams(2);
  streams[0] = stream;

  des::network_config des_cfg;
  des_cfg.tm.buffer_bytes = buffer_bytes;
  des_cfg.tm.buffer_packets = 1 << 20;
  des::network oracle{topo, routes, des_cfg};
  const auto truth = oracle.run(streams, 1.0);

  core::scheduler_context ctx;
  ctx.bandwidth_bps = bw;
  ctx.buffer_bytes = buffer_bytes;
  core::dqn_network net{topo, routes, shared_ptm(), ctx, {}};
  const auto pred = net.run(streams, 1.0);

  const double truth_rate =
      static_cast<double>(truth.drops) / static_cast<double>(stream.size());
  const double pred_rate =
      static_cast<double>(pred.drops) / static_cast<double>(stream.size());
  EXPECT_GT(truth_rate, 0.05);
  EXPECT_NEAR(pred_rate, truth_rate, 0.5 * truth_rate);
}

}  // namespace
