// Quickstart: the full DeepQueueNet workflow in ~60 lines of user code.
//
//   1. obtain a trained device model (DUtil trains one; DLib caches it),
//   2. describe a topology (here: a 4-switch line) and traffic,
//   3. compose the DeepQueueNet model and run it (SInit + SRun with IRSA),
//   4. compare against the packet-level DES oracle,
//   5. use packet-level visibility: inspect any device's egress trace.
//
// Run with `--json` for the profiled variant instead: a self-contained tiny
// pipeline (DUtil training + engine run + DES oracle) instrumented through
// one obs::sink, emitting the full registry snapshot as JSON on stdout —
// per-epoch PTM training loss, per-IRSA-iteration timings, DES counters.
// Two more profiling flags compose with it (each implies the profiled
// pipeline): `--chrome-trace <path>` writes the run's span timeline as
// Chrome trace-event JSON (load in chrome://tracing or ui.perfetto.dev),
// and `--journeys N` samples every packet's per-hop journey and prints the
// first N of them.
//
// Estimator selection (des/estimator_factory.hpp):
//   --estimator NAME       run the prediction through "des", "deepqueuenet",
//                          or "fluid" instead of the default engine;
//   --delay-backend NAME   sojourn backend for DeepQueueNet runs: "ptm"
//                          (default), "analytical", or "tiered"
//                          (core/delay_provider.hpp);
//   --tiered-smoke         self-contained tiered-vs-PTM timing check: trains
//                          a tiny model, runs the same scenario on an
//                          engine per backend, prints a one-line JSON
//                          summary;
//   --threads N            engine worker count (sharded work-stealing
//                          scheduler; default 2). With --json the snapshot
//                          also carries quickstart.measured_* gauges:
//                          measured wall at 1 and N workers plus speedup.
//
// Observability check:
//   --strict-obs           run the default workflow through one obs::sink,
//                          then fail (exit 3) if it reported data loss —
//                          dropped trace events. CI's verify job runs it.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>

#include "des/estimator_factory.hpp"
#include "des/run_api.hpp"
#include "examples/example_util.hpp"
#include "obs/json.hpp"
#include "obs/sink.hpp"

using namespace dqn;

namespace {

struct profile_options {
  bool json = false;
  std::string chrome_trace;    // output path; empty = off
  std::size_t journeys = 0;    // print the first N traced journeys
  [[nodiscard]] bool any() const {
    return json || !chrome_trace.empty() || journeys > 0;
  }
};

struct estimator_options {
  std::string estimator = "deepqueuenet";
  std::string delay_backend;  // empty = the engine default (ptm)
  bool tiered_smoke = false;
  // --threads N: engine worker count (engine_config::partitions over the
  // sharded work-stealing scheduler). 0 = the quickstart default (2).
  std::size_t threads = 0;
};

// --strict-obs: non-zero exit when the summary carries a data-loss WARNING
// footer (dropped trace events).
int strict_obs_verdict(const obs::sink& sink) {
  const auto table = sink.summary_table();
  if (table.footer().empty()) return 0;
  for (const auto& line : table.footer())
    std::fprintf(stderr, "[strict-obs] %s\n", line.c_str());
  return 3;
}

bool parse_backend(std::string_view name, des::delay_backend* out) {
  if (name == "ptm") *out = des::delay_backend::ptm;
  else if (name == "analytical") *out = des::delay_backend::analytical;
  else if (name == "tiered") *out = des::delay_backend::tiered;
  else return false;
  return true;
}

// --tiered-smoke: train a tiny model, run one scenario through a pure-PTM
// and a tiered engine (best of two runs each, same sink), and print a
// machine-readable one-line JSON summary. CI's perf-smoke job gates on
// analytical_fraction > 0, equal delivery counts and
// tiered_wall <= ptm_wall * 1.10.
int run_tiered_smoke() {
  core::dutil_config dutil_cfg;
  dutil_cfg.ports = 4;
  dutil_cfg.bandwidth_bps = examples::link_bps;
  dutil_cfg.streams = 30;
  dutil_cfg.packets_per_stream = 200;
  dutil_cfg.ptm.time_steps = 8;
  dutil_cfg.ptm.mlp_hidden = {24, 12};
  dutil_cfg.ptm.epochs = 8;
  dutil_cfg.seed = 7;
  std::fprintf(stderr, "[tiered-smoke] training a tiny device model...\n");
  auto bundle = core::train_device_model(dutil_cfg);
  auto ptm = std::make_shared<const core::ptm_model>(std::move(bundle.model));

  // A 20-device fat-tree at 30% max-link load with FIFO switches. Under
  // tiered every FIFO queue takes the exact closed form (a non-FIFO queue
  // would take the PTM), so here every queue, host NICs included, skips
  // the DNN inference the pure-PTM run does. The switches are FIFO so that
  // this saving clears the wall gate's 10% headroom by a wide margin; with
  // PTM switches it is the host NICs' share alone, within runner noise.
  const auto topo = topo::make_fattree16(examples::links());
  const topo::routing routes{topo};
  const double horizon = 0.02;
  const auto traffic_setup = examples::make_traffic_load(
      topo, routes, traffic::traffic_model::poisson, /*max link load=*/0.3,
      horizon, 7);

  des::estimator_context context;
  context.topo = &topo;
  context.routes = &routes;
  context.ptm = ptm;
  context.engine.partitions = 2;

  obs::sink sink;
  const des::run_request request{.host_streams = &traffic_setup.streams,
                                 .horizon = horizon,
                                 .sink = &sink};

  std::size_t ptm_deliveries = 0;
  std::size_t tiered_deliveries = 0;
  const auto best_wall = [&](des::delay_backend backend,
                             std::size_t* deliveries) {
    context.engine.delay.backend = backend;
    const auto net = des::make_estimator("deepqueuenet", context);
    double best = 0;
    for (int rep = 0; rep < 2; ++rep) {
      const auto result = net->run(request);
      *deliveries = result.deliveries.size();
      best = rep == 0 ? result.wall_seconds
                      : std::min(best, result.wall_seconds);
    }
    return best;
  };
  std::fprintf(stderr, "[tiered-smoke] running the pure-PTM backend...\n");
  const double ptm_wall = best_wall(des::delay_backend::ptm, &ptm_deliveries);
  std::fprintf(stderr, "[tiered-smoke] running the tiered backend...\n");
  const double tiered_wall =
      best_wall(des::delay_backend::tiered, &tiered_deliveries);
  const double fraction =
      sink.metrics().gauge("tiered.analytical_fraction");

  std::printf("{\"ptm_wall_seconds\": %.6f, \"tiered_wall_seconds\": %.6f, "
              "\"analytical_fraction\": %.4f, \"speedup\": %.3f, "
              "\"ptm_deliveries\": %zu, \"tiered_deliveries\": %zu}\n",
              ptm_wall, tiered_wall, fraction,
              tiered_wall > 0 ? ptm_wall / tiered_wall : 0.0, ptm_deliveries,
              tiered_deliveries);
  return 0;
}

// The profile mode (--json / --chrome-trace / --journeys). Deliberately
// trains a fresh tiny device model (no DLib cache) so the ptm.* per-epoch
// metrics are always present in the snapshot, then profiles a DeepQueueNet
// run and the DES oracle on the same scenario through the same sink, and
// finally measures the sharded engine's wall-clock speedup at `threads`
// workers versus a 1-worker engine (quickstart.measured_* gauges in the JSON
// snapshot).
// Only the requested documents go to stdout.
int run_profiled(const profile_options& options, std::size_t threads) {
  obs::sink sink;
  if (options.journeys > 0) sink.journeys().configure(/*sample_rate=*/1.0);

  core::dutil_config dutil_cfg;
  dutil_cfg.ports = 4;
  dutil_cfg.bandwidth_bps = examples::link_bps;
  dutil_cfg.streams = 30;
  dutil_cfg.packets_per_stream = 200;
  dutil_cfg.ptm.time_steps = 8;
  dutil_cfg.ptm.mlp_hidden = {24, 12};
  dutil_cfg.ptm.epochs = 8;
  dutil_cfg.seed = 7;
  dutil_cfg.sink = &sink;
  std::fprintf(stderr, "[profile] training a tiny device model...\n");
  auto bundle = core::train_device_model(dutil_cfg);
  auto ptm = std::make_shared<const core::ptm_model>(std::move(bundle.model));

  const auto topo = topo::make_line(3, examples::links());
  const topo::routing routes{topo};
  const double horizon = 0.02;
  const auto traffic_setup = examples::make_traffic_load(
      topo, routes, traffic::traffic_model::poisson, /*max link load=*/0.4,
      horizon, 7);

  const des::run_request request{.host_streams = &traffic_setup.streams,
                                 .horizon = horizon,
                                 .sink = &sink};

  std::fprintf(stderr, "[profile] running DeepQueueNet inference...\n");
  const std::size_t workers = threads > 0 ? threads : 2;
  des::estimator_context context;
  context.topo = &topo;
  context.routes = &routes;
  context.ptm = ptm;
  context.engine.partitions = workers;
  context.engine.sink = &sink;
  context.des.sink = &sink;
  const auto net = des::make_estimator("deepqueuenet", context);
  (void)net->run(request);

  std::fprintf(stderr, "[profile] running the DES oracle...\n");
  const auto oracle = des::make_estimator("des", context);
  (void)oracle->run(request);

  // Measured multi-worker speedup (wall clock, not projected): the same
  // scenario on a 1-worker engine and on the `threads`-worker one, best of 2
  // each. On a single-core machine the ratio is ~1; CI's perf gate runs the
  // Table-7 bench on a multi-core runner.
  {
    context.engine.partitions = 1;
    const auto single = des::make_estimator("deepqueuenet", context);
    const auto best_wall = [&](des::estimator& engine) {
      double best = 0;
      for (int rep = 0; rep < 2; ++rep) {
        const auto result = engine.run(request);
        best = rep == 0 ? result.wall_seconds
                        : std::min(best, result.wall_seconds);
      }
      return best;
    };
    std::fprintf(stderr,
                 "[profile] measuring wall-clock speedup at %zu workers...\n",
                 workers);
    const double single_wall = best_wall(*single);
    const double multi_wall = best_wall(*net);
    sink.gauge("quickstart.threads", static_cast<double>(workers));
    sink.gauge("quickstart.measured_wall_w1_seconds", single_wall);
    sink.gauge("quickstart.measured_wall_seconds", multi_wall);
    sink.gauge("quickstart.measured_speedup",
               multi_wall > 0 ? single_wall / multi_wall : 0.0);
    std::fprintf(stderr,
                 "[profile] measured wall: 1 worker %.4fs, %zu workers %.4fs "
                 "(%.2fx)\n",
                 single_wall, workers, multi_wall,
                 multi_wall > 0 ? single_wall / multi_wall : 0.0);
  }

  if (options.json) {
    const std::string doc = sink.to_json();
    std::printf("%s\n", doc.c_str());
    if (!obs::json_is_valid(doc)) {
      std::fprintf(stderr, "[profile] snapshot failed JSON validation\n");
      return 1;
    }
  }
  if (!options.chrome_trace.empty()) {
    const std::string trace = sink.to_chrome_trace();
    if (!obs::json_is_valid(trace)) {
      std::fprintf(stderr, "[profile] chrome trace failed JSON validation\n");
      return 1;
    }
    std::ofstream out{options.chrome_trace};
    if (!out) {
      std::fprintf(stderr, "[profile] cannot open %s for writing\n",
                   options.chrome_trace.c_str());
      return 1;
    }
    out << trace;
    std::fprintf(stderr,
                 "[profile] wrote %zu spans to %s (open in chrome://tracing "
                 "or ui.perfetto.dev)\n",
                 sink.trace().size(), options.chrome_trace.c_str());
  }
  if (options.journeys > 0) {
    const auto journeys = sink.journeys().journeys();
    std::printf("journeys traced: %zu (showing up to %zu)\n", journeys.size(),
                options.journeys);
    std::size_t shown = 0;
    for (const auto& journey : journeys) {
      if (shown++ >= options.journeys) break;
      std::printf("  pid %llu flow %llu send %.6fs deliver %.6fs\n",
                  static_cast<unsigned long long>(journey.pid),
                  static_cast<unsigned long long>(journey.flow),
                  journey.send_time, journey.delivery_time);
      for (const auto& hop : journey.hops)
        std::printf("    device %lld q%llu arrive %.6fs raw +%.2gs "
                    "corrected +%.2gs depart %.6fs\n",
                    static_cast<long long>(hop.device),
                    static_cast<unsigned long long>(hop.queue), hop.arrival,
                    hop.raw_delay, hop.corrected_delay, hop.departure);
    }
  }
  std::fprintf(stderr, "[profile] %zu trace events captured\n",
               sink.trace().size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  profile_options options;
  estimator_options est_options;
  bool strict_obs = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (arg == "--json") {
      options.json = true;
    } else if (arg == "--chrome-trace" && i + 1 < argc) {
      options.chrome_trace = argv[++i];
    } else if (arg == "--journeys" && i + 1 < argc) {
      options.journeys = static_cast<std::size_t>(std::strtoull(
          argv[++i], nullptr, 10));
    } else if (arg == "--estimator" && i + 1 < argc) {
      est_options.estimator = argv[++i];
    } else if (arg == "--delay-backend" && i + 1 < argc) {
      est_options.delay_backend = argv[++i];
    } else if (arg == "--tiered-smoke") {
      est_options.tiered_smoke = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      est_options.threads = static_cast<std::size_t>(std::strtoull(
          argv[++i], nullptr, 10));
      if (est_options.threads == 0) {
        std::fprintf(stderr, "--threads must be >= 1\n");
        return 2;
      }
    } else if (arg == "--strict-obs") {
      strict_obs = true;
    } else {
      std::fprintf(stderr,
                   "usage: quickstart [--json] [--chrome-trace <path>] "
                   "[--journeys N] [--threads N] "
                   "[--estimator des|deepqueuenet|fluid] "
                   "[--delay-backend ptm|analytical|tiered] [--tiered-smoke] "
                   "[--strict-obs]\n");
      return 2;
    }
  }
  des::delay_backend backend = des::delay_backend::ptm;
  if (!est_options.delay_backend.empty() &&
      !parse_backend(est_options.delay_backend, &backend)) {
    std::fprintf(stderr, "unknown --delay-backend \"%s\" (ptm | analytical | "
                 "tiered)\n", est_options.delay_backend.c_str());
    return 2;
  }
  if (est_options.estimator != "dqn") {
    // Reject unknown / needs-training estimator names before spending
    // minutes training the device model; make_estimator's message names the
    // alternatives (and the training entry points for routenet/mimicnet).
    const auto known = des::estimator_names();
    if (std::find(known.begin(), known.end(), est_options.estimator) ==
        known.end()) {
      try {
        (void)des::make_estimator(est_options.estimator, {});
      } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 2;
      }
    }
  }
  if (est_options.tiered_smoke) return run_tiered_smoke();
  if (options.any()) return run_profiled(options, est_options.threads);

  std::printf("=== DeepQueueNet quickstart ===\n\n");

  // One sink for the whole workflow when --strict-obs is on.
  obs::sink sink;

  // 1. Device model (trained once, then loaded from ./dqn_models).
  auto ptm = examples::example_device_model();

  // 2. Topology + routing + traffic: Line4, Poisson flows at ~30%% host load.
  const auto topo = topo::make_line(4, examples::links());
  const topo::routing routes{topo};
  const double horizon = 0.05;
  const auto traffic_setup = examples::make_traffic_load(
      topo, routes, traffic::traffic_model::poisson, /*max link load=*/0.5,
      horizon, 7);

  // 3. Estimation through the factory (des/estimator_factory.hpp): the
  //    default is the DeepQueueNet engine, but --estimator swaps in the DES
  //    or the fluid baseline behind the same run contract, and
  //    --delay-backend selects the engine's sojourn backend.
  const std::vector<double> flow_rates(traffic_setup.flows.size(),
                                       traffic_setup.per_flow_rate);
  des::estimator_context context;
  context.topo = &topo;
  context.routes = &routes;
  context.ptm = ptm;
  context.engine.partitions =
      est_options.threads > 0 ? est_options.threads : 2;
  context.engine.record_hops = true;
  context.engine.delay.backend = backend;
  context.flows = &traffic_setup.flows;
  context.flow_rates_pps = &flow_rates;
  context.mean_packet_size = 712.0;  // poisson traffic's mean packet size
  if (strict_obs) {
    context.engine.sink = &sink;
    context.des.sink = &sink;
  }
  const auto estimator = des::make_estimator(est_options.estimator, context);

  des::run_request request;
  request.host_streams = &traffic_setup.streams;
  request.horizon = horizon;
  if (strict_obs) request.sink = &sink;
  const auto prediction = estimator->run(request);
  const auto* net = dynamic_cast<const core::dqn_network*>(estimator.get());
  if (net != nullptr) {
    std::printf("DeepQueueNet (%s backend): %zu packets delivered in %.2fs "
                "wall time (%zu IRSA iterations; %zu workers)\n",
                to_string(backend), prediction.deliveries.size(),
                prediction.wall_seconds, net->stats().iterations,
                net->stats().workers);
  } else {
    std::printf("%s: %zu packets delivered in %.2fs wall time\n",
                estimator->estimator_name(), prediction.deliveries.size(),
                prediction.wall_seconds);
  }

  // 4. Ground truth from the DES and accuracy summary.
  const auto oracle = des::make_estimator("des", context);
  const auto truth = oracle->run(request);
  const auto cmp = core::compare_runs(truth, prediction, horizon / 10, 6);
  std::printf("DES oracle:   %zu packets delivered in %.2fs wall time\n\n",
              truth.deliveries.size(), truth.wall_seconds);
  std::printf("accuracy (normalized w1, lower is better):\n");
  std::printf("  avgRTT %.4f | p99RTT %.4f | avgJitter %.4f | p99Jitter %.4f\n",
              cmp.w1_avg_rtt, cmp.w1_p99_rtt, cmp.w1_avg_jitter,
              cmp.w1_p99_jitter);
  std::printf("  Pearson rho (avgRTT) = %.4f [%.4f, %.4f]\n\n",
              cmp.rho_avg_rtt.rho, cmp.rho_avg_rtt.ci_low,
              cmp.rho_avg_rtt.ci_high);

  // 5. Packet-level visibility (DeepQueueNet runs only): every device's
  //    egress stream is a packet trace any metric can be applied to.
  if (net != nullptr) {
    std::printf("per-device predicted traffic (packet-level visibility):\n");
    for (const auto node : topo.devices()) {
      std::size_t packets = 0;
      for (std::size_t port = 0; port < topo.port_count(node); ++port)
        packets += net->egress_stream(node, port).size();
      std::printf("  %-4s forwarded %zu packets\n", topo.at(node).name.c_str(),
                  packets);
    }
  }
  std::printf("\ndone. Try examples/quickstart --json for a profiled run, or "
              "examples/capacity_planning, scheduler_tuning, topology_design "
              "next.\n");
  if (strict_obs) return strict_obs_verdict(sink);
  return 0;
}
