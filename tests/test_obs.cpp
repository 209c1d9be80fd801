// Observability subsystem (src/obs) and the unified estimator run API:
// registry thread-safety, JSON export validity, the summary table's WARNING
// footer, null-sink overhead, the engine/DES instrumentation invariants on a
// FatTree16 run, lifecycle misuse errors, the engine_config builder chain,
// and call-compatibility of the des::estimator implementations.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/dutil.hpp"
#include "core/engine.hpp"
#include "des/network.hpp"
#include "des/run_api.hpp"
#include "obs/json.hpp"
#include "obs/metric_registry.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/sink.hpp"
#include "topo/builders.hpp"
#include "topo/routing.hpp"
#include "traffic/traffic_gen.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

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

// Runs fn(i) for every i in [0, n), striped across four threads.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  constexpr std::size_t workers = 4;
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    threads.emplace_back([&fn, n, w] {
      for (std::size_t i = w; i < n; i += workers) fn(i);
    });
  for (auto& thread : threads) thread.join();
}

TEST(obs_registry, counters_gauges_histograms_roundtrip) {
  obs::metric_registry reg;
  reg.add("c");
  reg.add("c", 2.5);
  reg.set("g", 7.0);
  reg.set("g", -1.0);  // last write wins
  reg.observe("h", 1.0);
  reg.observe("h", 3.0);
  EXPECT_DOUBLE_EQ(reg.counter("c"), 3.5);
  EXPECT_DOUBLE_EQ(reg.gauge("g"), -1.0);
  const auto h = reg.histogram("h");
  EXPECT_EQ(h.count, 2u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 3.0);
  EXPECT_NEAR(h.stddev(), 1.0, 1e-12);
  // Unknown names read as empty/zero rather than throwing.
  EXPECT_DOUBLE_EQ(reg.counter("missing"), 0.0);
  EXPECT_EQ(reg.histogram("missing").count, 0u);
}

TEST(obs_registry, histogram_merge_matches_joint_stream) {
  obs::histogram_stats a, b, joint;
  util::rng rng{5};
  for (int i = 0; i < 100; ++i) {
    const double v = rng.exponential(1.0);
    (i % 2 == 0 ? a : b).observe(v);
    joint.observe(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count, joint.count);
  EXPECT_NEAR(a.mean(), joint.mean(), 1e-12);
  EXPECT_NEAR(a.stddev(), joint.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min, joint.min);
  EXPECT_DOUBLE_EQ(a.max, joint.max);
}

TEST(obs_registry, concurrent_mutation_under_parallel_for_is_exact) {
  obs::metric_registry reg;
  constexpr std::size_t n = 20'000;
  parallel_for(n, [&](std::size_t i) {
    reg.add("hits");
    reg.observe("values", static_cast<double>(i % 10));
    reg.set("last", static_cast<double>(i));
  });
  EXPECT_DOUBLE_EQ(reg.counter("hits"), static_cast<double>(n));
  const auto h = reg.histogram("values");
  EXPECT_EQ(h.count, n);
  EXPECT_DOUBLE_EQ(h.sum, 4.5 * n);  // mean of 0..9 over full cycles
  EXPECT_DOUBLE_EQ(h.min, 0.0);
  EXPECT_DOUBLE_EQ(h.max, 9.0);
}

TEST(obs_sink, concurrent_events_all_recorded) {
  obs::sink sink;
  constexpr std::size_t n = 5'000;
  parallel_for(n, [&](std::size_t i) {
    obs::scoped_timer timer{&sink, "test", "span", i};
  });
  EXPECT_EQ(sink.trace().size(), n);
  EXPECT_EQ(sink.metrics().histogram("test.span.seconds").count, n);
}

TEST(obs_json, escape_and_number_edge_cases) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(obs::json_number(std::nan("")), "null");
  EXPECT_EQ(obs::json_number(INFINITY), "null");
  EXPECT_TRUE(obs::json_is_valid(obs::json_number(0.25)));
}

TEST(obs_json, validator_accepts_and_rejects) {
  EXPECT_TRUE(obs::json_is_valid(R"({"a": [1, 2.5e-3, null, true, "x\n"]})"));
  EXPECT_FALSE(obs::json_is_valid(""));
  EXPECT_FALSE(obs::json_is_valid("{"));
  EXPECT_FALSE(obs::json_is_valid(R"({"a": 1,})"));
  EXPECT_FALSE(obs::json_is_valid("[1 2]"));
  EXPECT_FALSE(obs::json_is_valid(R"("unterminated)"));
  EXPECT_FALSE(obs::json_is_valid("{} trailing"));
}

TEST(obs_sink, to_json_is_valid_and_carries_all_sections) {
  obs::sink sink;
  sink.count("engine.iterations", 3);
  sink.gauge("engine.wall_seconds", 0.5);
  sink.observe("ptm.epoch_mse", 0.125);
  sink.observe("ptm.epoch_mse", std::nan(""));  // must not break the export
  sink.event("engine", "iteration", 0, 0.0, 0.01, 5.0);
  sink.event("weird \"stage\"\n", "name\\", 1, 0.0, 0.0);  // escaping stress
  const std::string doc = sink.to_json();
  EXPECT_TRUE(obs::json_is_valid(doc));
  EXPECT_NE(doc.find("\"counters\""), std::string::npos);
  EXPECT_NE(doc.find("\"gauges\""), std::string::npos);
  EXPECT_NE(doc.find("\"histograms\""), std::string::npos);
  EXPECT_NE(doc.find("\"events\""), std::string::npos);
  EXPECT_NE(doc.find("engine.iterations"), std::string::npos);
  // The summary table renders one row per metric without throwing.
  const auto table = sink.summary_table();
  EXPECT_FALSE(table.to_string().empty());
}

TEST(obs_sink, footer_warns_on_data_loss_counters) {
  obs::sink clean;
  clean.count("engine.deliveries", 5);
  EXPECT_TRUE(clean.summary_table().footer().empty());

  obs::sink lossy;
  lossy.count("trace.dropped", 12);
  const auto table = lossy.summary_table();
  ASSERT_EQ(table.footer().size(), 1u);
  EXPECT_NE(table.footer()[0].find("trace.dropped"), std::string::npos);
  // Footer lines render into the text output too.
  EXPECT_NE(table.to_string().find("WARNING"), std::string::npos);

  util::text_table plain{{"a"}};
  plain.add_row({"1"});
  plain.add_footer("note");
  EXPECT_NE(plain.to_string().find("note"), std::string::npos);
  // CSV stays machine-clean: no footer lines.
  EXPECT_EQ(plain.to_csv().find("note"), std::string::npos);
}

TEST(obs_timer, null_sink_overhead_is_negligible) {
  // A null-sink span is a pointer store plus one branch — no clock reads.
  // Bound it loosely (200ns/span) so the test is robust on loaded CI boxes;
  // the real cost is a few ns (see bench_micro_kernels bm_obs_scoped_timer).
  constexpr std::size_t n = 1'000'000;
  util::stopwatch watch;
  for (std::size_t i = 0; i < n; ++i) {
    obs::scoped_timer timer{nullptr, "hot", "span", i};
  }
  EXPECT_LT(watch.elapsed_seconds(), 0.2);
}

TEST(obs_timer, records_event_and_histogram_with_value) {
  obs::sink sink;
  {
    obs::scoped_timer timer{&sink, "stage", "work", 7};
    timer.set_value(42.0);
  }
  const auto events = sink.trace().events_of("stage", "work");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].index, 7u);
  EXPECT_DOUBLE_EQ(events[0].value, 42.0);
  EXPECT_GE(events[0].duration, 0.0);
  EXPECT_EQ(sink.metrics().histogram("stage.work.seconds").count, 1u);
}

TEST(engine_config, designated_initializers_set_fields) {
  const core::engine_config designated{
      .partitions = 2, .apply_sec = false, .delay = {}};
  EXPECT_EQ(designated.partitions, 2u);
  EXPECT_FALSE(designated.apply_sec);
}

TEST(engine_obs, fattree_run_invariants_and_registry_equivalence) {
  const auto topo = topo::make_fattree16();
  const topo::routing routes{topo};
  const auto streams = make_streams(16, 20'000.0, 0.005, 3);

  obs::sink sink;
  const core::engine_config cfg{.partitions = 2, .sink = &sink};
  core::dqn_network net{topo, routes, shared_ptm(), {}, cfg};
  const auto result = net.run(streams, 0.005);
  EXPECT_FALSE(result.deliveries.empty());

  const auto& stats = net.stats();
  EXPECT_GE(stats.busy_seconds, stats.critical_path_seconds);
  EXPECT_GE(stats.device_inferences, stats.iterations);
  EXPECT_GT(stats.iterations, 0u);

  // The run published its engine_stats to the registry.
  const auto& metrics = sink.metrics();
  EXPECT_EQ(metrics.counter("engine.iterations"),
            static_cast<double>(stats.iterations));
  EXPECT_EQ(metrics.gauge("engine.converged"), stats.converged ? 1.0 : 0.0);
  EXPECT_EQ(metrics.gauge("engine.final_changed_devices"),
            static_cast<double>(stats.final_changed_devices));
  EXPECT_EQ(metrics.counter("engine.device_inferences"),
            static_cast<double>(stats.device_inferences));
  EXPECT_EQ(metrics.counter("engine.devices_skipped"),
            static_cast<double>(stats.devices_skipped));
  EXPECT_DOUBLE_EQ(metrics.gauge("engine.wall_seconds"), stats.wall_seconds);
  EXPECT_DOUBLE_EQ(metrics.gauge("engine.busy_seconds"), stats.busy_seconds);
  EXPECT_DOUBLE_EQ(metrics.gauge("engine.critical_path_seconds"),
                   stats.critical_path_seconds);

  // One trace event per IRSA iteration, indices 0..iterations-1.
  const auto iterations = sink.trace().events_of("engine", "iteration");
  ASSERT_EQ(iterations.size(), stats.iterations);
  for (std::size_t i = 0; i < iterations.size(); ++i)
    EXPECT_EQ(iterations[i].index, i);
  // The last iteration converged: no device changed its egress.
  EXPECT_DOUBLE_EQ(iterations.back().value, 0.0);

  EXPECT_TRUE(obs::json_is_valid(sink.to_json()));
}

TEST(engine_obs, misuse_errors_are_loud_and_typed) {
  const auto topo = topo::make_line(3);
  const topo::routing routes{topo};
  core::dqn_network net{topo, routes, shared_ptm(), {}, {}};
  // egress_stream before any run().
  EXPECT_THROW((void)net.egress_stream(0, 0), std::logic_error);

  const auto streams = make_streams(3, 30'000.0, 0.01, 4);
  (void)net.run(streams, 0.01);
  // set_device_context after run() cannot apply retroactively.
  EXPECT_THROW(net.set_device_context(0, core::scheduler_context{}),
               std::logic_error);
  // Out-of-range coordinates name the offending node/port.
  if (dqn::util::contracts_enabled) {
    EXPECT_THROW((void)net.egress_stream(9999, 0), dqn::util::contract_violation);
  }
  const auto devices = topo.devices();
  if (dqn::util::contracts_enabled) {
    EXPECT_THROW((void)net.egress_stream(devices.front(), 9999), dqn::util::contract_violation);
  }
}

TEST(run_api, estimators_are_call_compatible) {
  const auto topo = topo::make_line(3);
  const topo::routing routes{topo};
  const double horizon = 0.01;
  const auto streams = make_streams(3, 30'000.0, horizon, 6);

  des::network oracle{topo, routes, {}};
  core::dqn_network net{topo, routes, shared_ptm(), {}, {}};

  obs::sink sink;
  des::run_request request;
  request.host_streams = &streams;
  request.horizon = horizon;
  request.sink = &sink;

  for (des::estimator* est : {static_cast<des::estimator*>(&oracle),
                              static_cast<des::estimator*>(&net)}) {
    const auto result = est->run(request);
    EXPECT_FALSE(result.deliveries.empty()) << est->estimator_name();
    EXPECT_GT(result.wall_seconds, 0.0) << est->estimator_name();
  }
  EXPECT_STREQ(oracle.estimator_name(), "des");
  EXPECT_STREQ(net.estimator_name(), "deepqueuenet");

  // The request sink overrode the (null) configured sinks for both runs.
  EXPECT_GT(sink.metrics().counter("des.events"), 0.0);
  EXPECT_GT(sink.metrics().counter("engine.iterations"), 0.0);

  // A null host_streams pointer is rejected, not dereferenced.
  des::run_request bad;
  bad.horizon = horizon;
  EXPECT_THROW((void)oracle.run(bad), dqn::util::contract_violation);
  EXPECT_THROW((void)net.run(bad), dqn::util::contract_violation);
}

}  // namespace
