// Delay-provider API tests (core/delay_provider.hpp): backend parity against
// closed-form queueing theory, the tiered rule (a FIFO queue takes the exact
// closed form, every other queue the PTM) at the provider and through the
// engine, an analytical engine built without a PTM, and the string-keyed
// estimator factory.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/delay_provider.hpp"
#include "core/dutil.hpp"
#include "core/engine.hpp"
#include "core/features.hpp"
#include "des/estimator_factory.hpp"
#include "des/run_api.hpp"
#include "obs/sink.hpp"
#include "queueing/sojourn.hpp"
#include "topo/builders.hpp"
#include "topo/routing.hpp"
#include "traffic/traffic_gen.hpp"
#include "util/rng.hpp"

namespace {

using namespace dqn;

// One tiny trained PTM shared by every test in this binary (training
// dominates test time; the model just needs to be valid, not accurate).
const core::device_model_bundle& tiny_bundle() {
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
  return bundle;
}

std::shared_ptr<const core::ptm_model> tiny_ptm() {
  return {&tiny_bundle().model, [](const core::ptm_model*) {}};
}

traffic::packet_stream make_stream(std::size_t n, double gap,
                                   std::uint32_t size_bytes = 1000) {
  traffic::packet_stream stream;
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    traffic::packet p;
    p.pid = i;
    p.size_bytes = size_bytes;
    t += gap;
    stream.push_back({p, t});
  }
  return stream;
}

// A non-FIFO discipline: the tiered backend sends its queues to the PTM.
constexpr auto sp = des::scheduler_kind::sp;

// A ready-to-estimate device_state over one arrival series. Owns the rows so
// the state's spans stay valid for the fixture's lifetime.
struct probe {
  traffic::packet_stream stream;
  core::scheduler_context ctx;
  std::vector<double> rows;
  core::device_state state;

  explicit probe(traffic::packet_stream arrivals, double bandwidth_bps = 1e9,
                 std::int64_t device = 1,
                 des::scheduler_kind kind = des::scheduler_kind::fifo)
      : stream{std::move(arrivals)} {
    ctx.kind = kind;
    ctx.bandwidth_bps = bandwidth_bps;
    rows = core::compute_features(stream, ctx);
    state.device = device;
    state.arrivals = &stream;
    state.feature_rows = rows;
    state.ctx = &ctx;
  }
};

TEST(delay_provider, analytical_fifo_waits_are_exact_lindley) {
  // Six spaced packets then a burst: the analytical backend's FIFO wait must
  // reproduce the Lindley recursion U_i = max(0, U_{i-1} + s_{i-1} - iat_i)
  // exactly — it is the same unfinished-work quantity the feature stage
  // computes, read back as the estimate.
  traffic::packet_stream stream = make_stream(6, 1e-3, 1500);
  double t = stream.back().time;
  for (std::size_t i = 0; i < 4; ++i) {
    traffic::packet p;
    p.pid = 100 + i;
    p.size_bytes = 1500;
    t += 2e-6;
    stream.push_back({p, t});
  }
  probe pr{std::move(stream)};

  core::analytical_delay_provider provider;
  std::vector<double> raw;
  pr.state.raw_out = &raw;
  const auto waits = provider.estimate_sojourn(pr.state, 0.0);

  ASSERT_EQ(waits.size(), pr.stream.size());
  double unfinished = 0;
  double prev_time = pr.stream.front().time;
  double prev_service = 0;
  for (std::size_t i = 0; i < pr.stream.size(); ++i) {
    const double iat = pr.stream[i].time - prev_time;
    unfinished = std::max(0.0, unfinished + prev_service - iat);
    EXPECT_NEAR(waits[i], unfinished, 1e-12) << "packet " << i;
    prev_time = pr.stream[i].time;
    prev_service = pr.stream[i].pkt.size_bytes * 8.0 / pr.ctx.bandwidth_bps;
  }
  // No SEC stage: the raw trace echoes the estimates.
  ASSERT_EQ(raw.size(), waits.size());
  for (std::size_t i = 0; i < waits.size(); ++i)
    EXPECT_DOUBLE_EQ(raw[i], waits[i]);
}

TEST(delay_provider, mm1_closed_forms_match_textbook_values) {
  const double mu = 125'000.0;  // 1 Gbps line, 1000-byte packets
  const double lambda = 0.5 * mu;
  EXPECT_NEAR(queueing::mm1_mean_wait(lambda, mu), 0.5 / (mu - lambda), 1e-15);
  EXPECT_NEAR(queueing::mm1_mean_sojourn(lambda, mu), 1.0 / (mu - lambda),
              1e-15);
  EXPECT_TRUE(std::isinf(queueing::mm1_mean_wait(mu, mu)));
}

TEST(delay_provider, ldqbd_reference_collapses_to_mm1_for_fifo) {
  core::scheduler_context ctx;
  ctx.bandwidth_bps = 1e9;
  const double mean_bytes = 1000.0;
  const double mu = ctx.bandwidth_bps / (mean_bytes * 8.0);
  const double lambda = 0.5 * mu;
  const auto waits = core::analytical_delay_provider::ldqbd_reference_waits(
      ctx, lambda, mean_bytes);
  ASSERT_EQ(waits.size(), 1u);
  const double expected = queueing::mm1_mean_wait(lambda, mu);
  EXPECT_NEAR(waits[0], expected, 0.05 * expected);
}

TEST(delay_provider, analytical_empirical_mean_matches_ldqbd_reference) {
  // M/M/1 workload (Poisson arrivals, exponential sizes at rho = 0.5): the
  // analytical backend's per-packet waits must average to the stationary
  // LDQBD/MAP reference. Fixed seed keeps the check deterministic.
  const double bandwidth = 1e9;
  const double mean_bytes = 1000.0;
  const double mu = bandwidth / (mean_bytes * 8.0);
  const double lambda = 0.5 * mu;
  std::mt19937_64 rng{424242};
  std::exponential_distribution<double> gap{lambda};
  std::exponential_distribution<double> size{1.0 / mean_bytes};

  traffic::packet_stream stream;
  double t = 0;
  for (std::size_t i = 0; i < 20'000; ++i) {
    traffic::packet p;
    p.pid = i;
    p.size_bytes = static_cast<std::uint32_t>(std::max(1.0, size(rng)));
    t += gap(rng);
    stream.push_back({p, t});
  }
  probe pr{std::move(stream), bandwidth};

  core::analytical_delay_provider provider;
  const auto waits = provider.estimate_sojourn(pr.state, t);
  double mean = 0;
  for (const double w : waits) mean += w;
  mean /= static_cast<double>(waits.size());

  const auto reference = core::analytical_delay_provider::ldqbd_reference_waits(
      pr.ctx, lambda, mean_bytes);
  ASSERT_EQ(reference.size(), 1u);
  EXPECT_NEAR(mean, reference[0], 0.25 * reference[0]);
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The tiered rule, per queue: a FIFO queue's estimate and its pre-correction
// trace equal the analytical backend's (the exact Lindley wait; no SEC stage,
// so the trace echoes the estimate), and an SP queue's equal the pure PTM
// backend's, bit for bit. The rule keeps no state: both probes are device 1,
// and the FIFO queue asked again after the SP one gets the same answer.
TEST(delay_provider, tiered_sends_fifo_to_closed_form_and_sp_to_ptm) {
  core::tiered_delay_provider provider{tiny_ptm()};
  std::vector<double> raw;
  std::vector<double> expected_raw;

  probe fifo{make_stream(600, 5e-6)};
  fifo.state.raw_out = &raw;
  const auto fifo_returned = provider.estimate_sojourn(fifo.state, 0.0);
  core::analytical_delay_provider analytical;
  fifo.state.raw_out = &expected_raw;
  EXPECT_TRUE(same_bits(fifo_returned,
                        analytical.estimate_sojourn(fifo.state, 0.0)));
  EXPECT_TRUE(same_bits(raw, expected_raw));
  EXPECT_TRUE(same_bits(raw, fifo_returned));

  probe priority{make_stream(600, 5e-6), 1e9, 1, sp};
  priority.state.raw_out = &raw;
  const auto sp_returned = provider.estimate_sojourn(priority.state, 0.0);
  core::ptm_delay_provider learned{tiny_ptm()};
  priority.state.raw_out = &expected_raw;
  EXPECT_TRUE(same_bits(sp_returned,
                        learned.estimate_sojourn(priority.state, 0.0)));
  EXPECT_TRUE(same_bits(raw, expected_raw));

  fifo.state.raw_out = nullptr;
  EXPECT_TRUE(
      same_bits(provider.estimate_sojourn(fifo.state, 0.0), fifo_returned));

  const auto stats = provider.stats();
  EXPECT_EQ(stats.analytical_calls, 2u);
  EXPECT_EQ(stats.analytical_packets, 2 * fifo.stream.size());
  EXPECT_EQ(stats.ptm_calls, 1u);
  EXPECT_EQ(stats.ptm_packets, priority.stream.size());
}

TEST(delay_provider, tiered_publish_emits_deltas_against_shared_sink) {
  core::tiered_delay_provider provider{tiny_ptm()};

  probe pr{make_stream(10, 5e-6)};
  obs::sink sink;
  (void)provider.estimate_sojourn(pr.state, 5e-5);
  provider.publish(sink);
  (void)provider.estimate_sojourn(pr.state, 5e-5);
  provider.publish(sink);  // second publish must add only the delta

  EXPECT_DOUBLE_EQ(sink.metrics().counter("tiered.analytical_packets"), 20.0);
  EXPECT_DOUBLE_EQ(sink.metrics().counter("tiered.analytical_calls"), 2.0);
  EXPECT_DOUBLE_EQ(sink.metrics().gauge("tiered.analytical_fraction"), 1.0);
}

// ---------------------------------------------------------------------------
// Engine-level parity: on a FIFO network the tiered backend must reproduce
// the analytical one bit-for-bit, and it must send every non-FIFO queue to
// the PTM.
// ---------------------------------------------------------------------------

struct engine_scenario {
  topo::topology topo = topo::make_fattree16();
  topo::routing routes{topo};
  std::vector<traffic::packet_stream> streams;
  double horizon = 0.005;

  engine_scenario() {
    util::rng rng{11};
    auto flows = traffic::make_uniform_flows(16, 1, rng);
    traffic::tg_util_config tg;
    tg.per_flow_rate = 30'000.0;
    tg.seed = 11;
    auto generators = traffic::make_generators(flows, tg);
    streams = traffic::per_host_streams(generators, 16, horizon, rng);
  }

  // `switches` is the scheduler of every switch; host NICs are FIFO.
  [[nodiscard]] des::run_result run(
      const des::delay_policy& policy, obs::sink* sink = nullptr,
      core::scheduler_context switches = {},
      std::shared_ptr<const core::ptm_model> ptm = tiny_ptm()) const {
    core::engine_config cfg;
    cfg.partitions = 2;
    cfg.delay = policy;
    cfg.sink = sink;
    core::dqn_network net{topo, routes, std::move(ptm), std::move(switches),
                          cfg};
    return net.run(streams, horizon);
  }
};

void expect_identical_deliveries(const des::run_result& a,
                                 const des::run_result& b) {
  ASSERT_EQ(a.deliveries.size(), b.deliveries.size());
  for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
    EXPECT_EQ(a.deliveries[i].pid, b.deliveries[i].pid);
    EXPECT_EQ(std::memcmp(&a.deliveries[i].delivery_time,
                          &b.deliveries[i].delivery_time, sizeof(double)),
              0)
        << "delivery " << i;
  }
}

// Every queue of a FIFO network, host NICs included, takes the exact closed
// form under tiered.
TEST(delay_provider, tiered_on_fifo_network_equals_analytical_through_engine) {
  const engine_scenario sc;
  const auto analytical_result =
      sc.run({.backend = des::delay_backend::analytical});
  ASSERT_FALSE(analytical_result.deliveries.empty());
  expect_identical_deliveries(analytical_result,
                              sc.run({.backend = des::delay_backend::tiered}));
}

// With SP switches, the host NICs (FIFO) take the closed form and every
// switch queue takes the PTM: the analytical tier serves exactly the injected
// packets, one NIC visit each, and the PTM tier every packet a switch queue
// was offered.
TEST(delay_provider, tiered_sends_sp_switches_to_ptm_through_engine) {
  const engine_scenario sc;
  core::scheduler_context switches;
  switches.kind = sp;
  obs::sink sink;
  const auto result =
      sc.run({.backend = des::delay_backend::tiered}, &sink, switches);
  ASSERT_FALSE(result.deliveries.empty());
  ASSERT_EQ(result.drops, 0u);

  double injected = 0;
  for (const auto& stream : sc.streams)
    for (const auto& ev : stream)
      if (ev.time <= sc.horizon) ++injected;
  const auto& metrics = sink.metrics();
  EXPECT_EQ(metrics.counter("tiered.analytical_packets"), injected);
  EXPECT_GT(metrics.counter("tiered.ptm_packets"), 0.0);
  EXPECT_EQ(metrics.counter("tiered.ptm_packets"),
            metrics.counter("pfm.forwarded") - injected);
}

// The analytical backend never runs a PTM, so an engine on it builds and
// runs without one, directly and through the factory, and delivers exactly
// what an analytical engine built with a trained PTM delivers. The PTM and
// tiered backends still reject a missing PTM at construction.
TEST(delay_provider, analytical_engine_runs_without_a_ptm) {
  const engine_scenario sc;
  core::scheduler_context switches;
  switches.kind = sp;
  const des::delay_policy analytical{.backend = des::delay_backend::analytical};
  const auto with_ptm = sc.run(analytical, nullptr, switches);
  ASSERT_FALSE(with_ptm.deliveries.empty());
  expect_identical_deliveries(with_ptm,
                              sc.run(analytical, nullptr, switches, nullptr));

  des::estimator_context context;
  context.topo = &sc.topo;
  context.routes = &sc.routes;
  context.scheduler = switches;
  context.engine.partitions = 2;
  context.engine.delay = analytical;
  const auto estimator = des::make_estimator("deepqueuenet", context);
  expect_identical_deliveries(
      with_ptm, estimator->run({.host_streams = &sc.streams,
                                .horizon = sc.horizon}));

  for (const auto backend :
       {des::delay_backend::ptm, des::delay_backend::tiered}) {
    SCOPED_TRACE(des::to_string(backend));
    EXPECT_THROW((void)sc.run({.backend = backend}, nullptr, switches, nullptr),
                 std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// String-keyed estimator factory (des/estimator_factory.hpp).
// ---------------------------------------------------------------------------

TEST(estimator_factory, creates_every_advertised_estimator) {
  const engine_scenario sc;
  des::estimator_context context;
  context.topo = &sc.topo;
  context.routes = &sc.routes;
  context.ptm = tiny_ptm();

  util::rng rng{11};
  const auto flows = traffic::make_uniform_flows(16, 1, rng);
  const std::vector<double> rates(flows.size(), 30'000.0);
  context.flows = &flows;
  context.flow_rates_pps = &rates;
  context.mean_packet_size = 1000.0;

  for (const auto& name : des::estimator_names()) {
    const auto estimator = des::make_estimator(name, context);
    ASSERT_NE(estimator, nullptr) << name;
    EXPECT_EQ(estimator->estimator_name(), name);
  }
  // The alias resolves to the engine.
  EXPECT_STREQ(des::make_estimator("dqn", context)->estimator_name(),
               "deepqueuenet");
}

TEST(estimator_factory, rejects_unknown_and_untrained_names) {
  const engine_scenario sc;
  des::estimator_context context;
  context.topo = &sc.topo;
  context.routes = &sc.routes;
  context.ptm = tiny_ptm();

  EXPECT_THROW((void)des::make_estimator("quantum", context),
               std::invalid_argument);
  EXPECT_THROW((void)des::make_estimator("routenet", context),
               std::invalid_argument);
  EXPECT_THROW((void)des::make_estimator("mimicnet", context),
               std::invalid_argument);

  // Missing requirements are named loudly rather than dereferenced: the PTM
  // and tiered backends need a PTM.
  des::estimator_context incomplete;
  incomplete.topo = &sc.topo;
  incomplete.routes = &sc.routes;
  EXPECT_THROW((void)des::make_estimator("deepqueuenet", incomplete),
               std::invalid_argument);
  incomplete.engine.delay.backend = des::delay_backend::tiered;
  EXPECT_THROW((void)des::make_estimator("deepqueuenet", incomplete),
               std::invalid_argument);
}

}  // namespace
