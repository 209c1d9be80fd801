// Delay-provider API tests (core/delay_provider.hpp): backend parity against
// closed-form queueing theory, the tiered policy's FIFO rule (a FIFO queue
// always takes the exact closed form), its threshold/hysteresis state machine
// and error-budget shadow check on non-FIFO queues, the policy extremes
// reproducing the pure backends bit-for-bit through the engine, the per-run
// delay override of des::run_request, and the string-keyed estimator factory.
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

// The tiered backend keeps tier state, and runs its shadow check, for
// non-FIFO queues only; the probes that exercise them use strict priority.
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

TEST(delay_provider, tiered_hysteresis_state_machine) {
  des::delay_policy policy;
  policy.backend = des::delay_backend::tiered;
  policy.utilization_threshold = 0.5;
  policy.hysteresis = 0.1;
  policy.error_budget = 0;  // isolate the threshold machinery
  core::tiered_delay_provider provider{tiny_ptm(), policy};
  provider.prepare(4);

  probe pr{make_stream(10, 5e-6), 1e9, 1, sp};
  const auto call = [&](double utilization) {
    pr.state.utilization = utilization;
    return provider.estimate_sojourn(pr.state, 5e-5);
  };

  call(0.3);  // below threshold: analytical
  EXPECT_EQ(provider.stats().analytical_calls, 1u);
  EXPECT_EQ(provider.stats().ptm_calls, 0u);

  call(0.55);  // inside the band (not > 0.6): stays analytical
  EXPECT_EQ(provider.stats().analytical_calls, 2u);
  EXPECT_EQ(provider.stats().promotions, 0u);

  call(0.65);  // above threshold + band: promoted
  EXPECT_EQ(provider.stats().ptm_calls, 1u);
  EXPECT_EQ(provider.stats().promotions, 1u);

  call(0.45);  // inside the band (not < 0.4): stays PTM
  EXPECT_EQ(provider.stats().ptm_calls, 2u);
  EXPECT_EQ(provider.stats().demotions, 0u);

  call(0.35);  // below threshold - band: demoted
  EXPECT_EQ(provider.stats().analytical_calls, 3u);
  EXPECT_EQ(provider.stats().demotions, 1u);

  // A fresh device at exactly the threshold goes PTM (strict comparison, so
  // threshold 0 means pure PTM even for idle zero-utilization windows).
  pr.state.device = 2;
  call(0.5);
  EXPECT_EQ(provider.stats().ptm_calls, 3u);

  const auto stats = provider.stats();
  EXPECT_EQ(stats.analytical_packets, 3u * 10u);
  EXPECT_EQ(stats.ptm_packets, 3u * 10u);
  EXPECT_DOUBLE_EQ(stats.analytical_fraction(), 0.5);
}

TEST(delay_provider, tiered_unprepared_slot_decides_statelessly) {
  des::delay_policy policy;
  policy.backend = des::delay_backend::tiered;
  policy.utilization_threshold = 0.5;
  policy.hysteresis = 0.1;
  policy.error_budget = 0;
  core::tiered_delay_provider provider{tiny_ptm(), policy};  // no prepare()

  probe pr{make_stream(5, 5e-6), 1e9, /*device=*/5, sp};
  pr.state.utilization = 0.3;
  (void)provider.estimate_sojourn(pr.state, 5e-5);
  EXPECT_EQ(provider.stats().analytical_calls, 1u);
  pr.state.utilization = 0.7;
  (void)provider.estimate_sojourn(pr.state, 5e-5);
  EXPECT_EQ(provider.stats().ptm_calls, 1u);
  // Stateless fallback keeps no hysteresis memory: no transition counted.
  EXPECT_EQ(provider.stats().promotions, 0u);
}

TEST(delay_provider, tiered_error_budget_pins_device_to_ptm) {
  des::delay_policy policy;
  policy.backend = des::delay_backend::tiered;
  policy.utilization_threshold = 1e9;  // everything starts analytical
  policy.hysteresis = 0;
  policy.error_budget = 1e-9;  // no learned model clears this bar
  core::tiered_delay_provider provider{tiny_ptm(), policy};
  provider.prepare(4);

  probe pr{make_stream(10, 5e-6), 1e9, 1, sp};
  const auto first = provider.estimate_sojourn(pr.state, 5e-5);

  // The spot check ran both backends, failed the budget, and returned the
  // learned values; the device is pinned to the PTM permanently.
  EXPECT_EQ(provider.stats().budget_promotions, 1u);
  core::ptm_delay_provider learned{tiny_ptm()};
  const auto expected = learned.estimate_sojourn(pr.state, 5e-5);
  ASSERT_EQ(first.size(), expected.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_DOUBLE_EQ(first[i], expected[i]);

  pr.state.utilization = 0.0;  // far below threshold, but pinned wins
  (void)provider.estimate_sojourn(pr.state, 5e-5);
  EXPECT_EQ(provider.stats().ptm_calls, 2u);
  EXPECT_EQ(provider.stats().demotions, 0u);
}

TEST(delay_provider, tiered_error_budget_passes_with_generous_budget) {
  des::delay_policy policy;
  policy.backend = des::delay_backend::tiered;
  policy.utilization_threshold = 1e9;
  policy.hysteresis = 0;
  policy.error_budget = 1e9;  // any deviation is within budget
  core::tiered_delay_provider provider{tiny_ptm(), policy};
  provider.prepare(4);

  probe pr{make_stream(10, 5e-6), 1e9, 1, sp};
  const auto first = provider.estimate_sojourn(pr.state, 5e-5);
  EXPECT_EQ(provider.stats().budget_promotions, 0u);

  core::analytical_delay_provider analytical;
  const auto expected = analytical.estimate_sojourn(pr.state, 5e-5);
  ASSERT_EQ(first.size(), expected.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_DOUBLE_EQ(first[i], expected[i]);
  EXPECT_EQ(provider.stats().analytical_packets, 10u);
}

// The shadow check runs the PTM on a long window's last 128 rows only, from
// time_steps - 1 context rows earlier. Its predictions must equal the
// whole-window PTM's bit for bit: the histogram sum is built from those.
TEST(delay_provider, tiered_shadow_sample_matches_full_window_ptm) {
  des::delay_policy policy;
  policy.backend = des::delay_backend::tiered;
  policy.utilization_threshold = 1e9;
  policy.hysteresis = 0;
  policy.error_budget = 1e9;
  core::tiered_delay_provider provider{tiny_ptm(), policy};
  provider.prepare(4);
  obs::sink sink;
  provider.bind_sink(&sink);

  probe pr{make_stream(600, 5e-6), 1e9, 1, sp};
  std::vector<double> raw;
  pr.state.raw_out = &raw;
  const auto returned = provider.estimate_sojourn(pr.state, 0.0);
  EXPECT_EQ(provider.stats().budget_promotions, 0u);

  pr.state.raw_out = nullptr;
  core::analytical_delay_provider analytical;
  const auto closed_form = analytical.estimate_sojourn(pr.state, 0.0);
  core::ptm_delay_provider learned{tiny_ptm()};
  const auto whole = learned.estimate_sojourn(pr.state, 0.0);
  ASSERT_EQ(returned.size(), closed_form.size());
  ASSERT_EQ(raw.size(), closed_form.size());
  for (std::size_t i = 0; i < returned.size(); ++i) {
    EXPECT_EQ(returned[i], closed_form[i]) << "packet " << i;
    EXPECT_EQ(raw[i], closed_form[i]) << "packet " << i;
  }

  constexpr std::size_t samples = 128;
  const std::size_t n = pr.stream.size();
  double error_sum = 0;
  for (std::size_t i = n - samples; i < n; ++i)
    error_sum += std::abs(closed_form[i] - whole[i]);
  const auto shadow =
      sink.metrics().histogram("tiered.shadow_abs_error_seconds");
  EXPECT_EQ(shadow.count, samples);
  EXPECT_EQ(shadow.sum, error_sum);
}

TEST(delay_provider, tiered_shadow_failure_returns_full_window_ptm) {
  des::delay_policy policy;
  policy.backend = des::delay_backend::tiered;
  policy.utilization_threshold = 1e9;
  policy.hysteresis = 0;
  policy.error_budget = 1e-9;
  core::tiered_delay_provider provider{tiny_ptm(), policy};
  provider.prepare(4);

  probe pr{make_stream(600, 5e-6), 1e9, 1, sp};
  std::vector<double> raw;
  pr.state.raw_out = &raw;
  const auto returned = provider.estimate_sojourn(pr.state, 0.0);
  EXPECT_EQ(provider.stats().budget_promotions, 1u);

  core::ptm_delay_provider learned{tiny_ptm()};
  std::vector<double> expected_raw;
  pr.state.raw_out = &expected_raw;
  const auto expected = learned.estimate_sojourn(pr.state, 0.0);
  ASSERT_EQ(returned.size(), expected.size());
  ASSERT_EQ(raw.size(), expected_raw.size());
  for (std::size_t i = 0; i < returned.size(); ++i) {
    EXPECT_EQ(returned[i], expected[i]) << "packet " << i;
    EXPECT_EQ(raw[i], expected_raw[i]) << "packet " << i;
  }
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Under FIFO the closed form is the exact Lindley wait, so a FIFO queue takes
// it whatever the policy says: at threshold 0, which would send any other
// queue to the PTM, and with a budget no learned model clears, it neither
// runs the PTM nor takes a shadow sample.
TEST(delay_provider, tiered_fifo_queue_takes_the_closed_form) {
  des::delay_policy policy;
  policy.backend = des::delay_backend::tiered;
  policy.utilization_threshold = 0;
  policy.hysteresis = 0;
  policy.error_budget = 1e-9;
  core::tiered_delay_provider provider{tiny_ptm(), policy};
  provider.prepare(4);
  obs::sink sink;
  provider.bind_sink(&sink);

  probe pr{make_stream(600, 5e-6)};
  pr.state.utilization = 0.9;
  std::vector<double> raw;
  pr.state.raw_out = &raw;
  const auto returned = provider.estimate_sojourn(pr.state, 0.0);

  core::analytical_delay_provider analytical;
  std::vector<double> expected_raw;
  pr.state.raw_out = &expected_raw;
  const auto expected = analytical.estimate_sojourn(pr.state, 0.0);
  EXPECT_TRUE(same_bits(returned, expected));
  EXPECT_TRUE(same_bits(raw, expected_raw));
  EXPECT_TRUE(same_bits(raw, returned));  // no SEC stage: raw_out echoes

  const auto stats = provider.stats();
  EXPECT_EQ(stats.ptm_calls, 0u);
  EXPECT_EQ(stats.budget_promotions, 0u);
  EXPECT_EQ(stats.analytical_calls, 1u);
  EXPECT_EQ(stats.analytical_packets, pr.stream.size());
  EXPECT_EQ(sink.metrics().histogram("tiered.shadow_abs_error_seconds").count,
            0u);
}

// Threshold 0 sends every non-FIFO queue to the PTM: an SP queue's estimate
// and its pre-correction trace equal the pure PTM backend's bit for bit.
TEST(delay_provider, tiered_threshold_zero_sends_sp_queue_to_ptm) {
  des::delay_policy policy;
  policy.backend = des::delay_backend::tiered;
  policy.utilization_threshold = 0;
  policy.hysteresis = 0;
  core::tiered_delay_provider provider{tiny_ptm(), policy};
  provider.prepare(4);

  probe pr{make_stream(600, 5e-6), 1e9, 1, sp};
  std::vector<double> raw;
  pr.state.raw_out = &raw;
  const auto returned = provider.estimate_sojourn(pr.state, 0.0);

  core::ptm_delay_provider learned{tiny_ptm()};
  std::vector<double> expected_raw;
  pr.state.raw_out = &expected_raw;
  const auto expected = learned.estimate_sojourn(pr.state, 0.0);
  EXPECT_TRUE(same_bits(returned, expected));
  EXPECT_TRUE(same_bits(raw, expected_raw));
  EXPECT_EQ(provider.stats().ptm_calls, 1u);
  EXPECT_EQ(provider.stats().analytical_calls, 0u);
}

TEST(delay_provider, tiered_publish_emits_deltas_against_shared_sink) {
  des::delay_policy policy;
  policy.backend = des::delay_backend::tiered;
  policy.utilization_threshold = 1e9;
  policy.hysteresis = 0;
  policy.error_budget = 0;
  core::tiered_delay_provider provider{tiny_ptm(), policy};
  provider.prepare(4);

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
// the analytical one bit-for-bit at every threshold, and threshold 0 must
// send every non-FIFO queue to the PTM.
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
      core::scheduler_context switches = {}) const {
    core::engine_config cfg;
    cfg.partitions = 2;
    cfg.delay = policy;
    cfg.sink = sink;
    core::dqn_network net{topo, routes, tiny_ptm(), std::move(switches), cfg};
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
// form under tiered, so the threshold cannot move a delivery.
TEST(delay_provider, tiered_on_fifo_network_equals_analytical_through_engine) {
  const engine_scenario sc;
  const auto analytical_result =
      sc.run({.backend = des::delay_backend::analytical});
  ASSERT_FALSE(analytical_result.deliveries.empty());
  for (const double threshold : {0.0, 0.35, 1e9}) {
    SCOPED_TRACE(threshold);
    expect_identical_deliveries(
        analytical_result, sc.run({.backend = des::delay_backend::tiered,
                                   .utilization_threshold = threshold}));
  }
}

// With SP switches at threshold 0, the host NICs (FIFO) take the closed form
// and every switch queue takes the PTM.
TEST(delay_provider,
     tiered_threshold_zero_sends_sp_switches_to_ptm_through_engine) {
  const engine_scenario sc;
  core::scheduler_context switches;
  switches.kind = sp;
  obs::sink sink;
  const auto result = sc.run({.backend = des::delay_backend::tiered,
                              .utilization_threshold = 0,
                              .hysteresis = 0},
                             &sink, switches);
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

// The other extreme on SP switches, where the tier state is live: with no
// threshold to cross and the shadow check off, every queue takes the closed
// form.
TEST(delay_provider, tiered_huge_threshold_is_pure_analytical_through_engine) {
  const engine_scenario sc;
  core::scheduler_context switches;
  switches.kind = sp;
  const auto analytical_result =
      sc.run({.backend = des::delay_backend::analytical}, nullptr, switches);
  const auto tiered_result = sc.run({.backend = des::delay_backend::tiered,
                                     .utilization_threshold = 1e9,
                                     .hysteresis = 0,
                                     .error_budget = 0},
                                    nullptr, switches);
  ASSERT_FALSE(analytical_result.deliveries.empty());
  expect_identical_deliveries(analytical_result, tiered_result);
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

  // Missing requirements are named loudly rather than dereferenced.
  des::estimator_context incomplete;
  incomplete.topo = &sc.topo;
  incomplete.routes = &sc.routes;
  EXPECT_THROW((void)des::make_estimator("deepqueuenet", incomplete),
               std::invalid_argument);
}

}  // namespace
