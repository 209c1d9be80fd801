// Shared infrastructure for the reproduction benches: model caching through
// DLib, standard scenario construction, and environment knobs.
//
//   DQN_BENCH_SCALE  — multiplies horizons & training sizes (default 1.0;
//                      raise for tighter statistics, lower for quick runs)
//   DQN_MODEL_DIR    — PTM cache directory (default ./dqn_models)
//   DQN_PTM_ARCH     — "mlp" (default) or "attention"
//   DQN_BENCH_JSON   — when set, every engine/DES/DUtil phase the bench runs
//                      is profiled through one shared obs::sink and the
//                      registry snapshot is dumped as JSON at exit
//                      ("1" or "-" → stdout, anything else → that file path)
//
// Each bench binary prints the rows of its paper table/figure and exits;
// PTMs are trained on first use and cached on disk, so re-runs are fast.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "core/dlib.hpp"
#include "core/dutil.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "des/estimator_factory.hpp"
#include "des/network.hpp"
#include "obs/sink.hpp"
#include "topo/builders.hpp"
#include "topo/routing.hpp"
#include "traffic/traffic_gen.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace dqn::bench {

inline double bench_scale() {
  if (const char* env = std::getenv("DQN_BENCH_SCALE"); env != nullptr) {
    const double scale = std::atof(env);
    if (scale > 0) return scale;
  }
  return 1.0;
}

// The process-wide bench sink, or nullptr when DQN_BENCH_JSON is unset.
// Every helper below threads it through the engine/DES/DUtil configs, so a
// bench binary needs no code of its own to become profilable. The snapshot
// is dumped once, at exit, after all tables have printed.
inline obs::sink* bench_sink() {
  static obs::sink* instance = [] {
    const char* env = std::getenv("DQN_BENCH_JSON");
    if (env == nullptr || *env == '\0') return static_cast<obs::sink*>(nullptr);
    static obs::sink sink;
    static std::string destination{env};
    std::atexit([] {
      // Stamp the process's peak RSS (ru_maxrss is kilobytes on Linux) into
      // the snapshot so every profiled bench records what it cost;
      // run_all_benches.sh lifts it into BENCH_results.json.
      struct rusage usage {};
      if (getrusage(RUSAGE_SELF, &usage) == 0)
        sink.gauge("process.max_rss_bytes",
                   static_cast<double>(usage.ru_maxrss) * 1024.0);
      const std::string doc = sink.to_json();
      if (destination == "1" || destination == "-") {
        std::printf("%s\n", doc.c_str());
        return;
      }
      if (std::FILE* f = std::fopen(destination.c_str(), "w"); f != nullptr) {
        std::fprintf(f, "%s\n", doc.c_str());
        std::fclose(f);
        std::fprintf(stderr, "[obs] wrote profile snapshot to %s\n",
                     destination.c_str());
      } else {
        std::fprintf(stderr, "[obs] cannot open %s for writing\n",
                     destination.c_str());
      }
    });
    return &sink;
  }();
  return instance;
}

inline core::ptm_arch bench_arch() {
  if (const char* env = std::getenv("DQN_PTM_ARCH"); env != nullptr) {
    if (std::string{env} == "attention") return core::ptm_arch::attention;
  }
  return core::ptm_arch::mlp;
}

// The standard DUtil configuration the network-scale benches train with:
// a K-port switch over the full §5.2 mix (schedulers, loads 0.1-0.8,
// MAP/Poisson/On-Off arrivals). Counts scale with DQN_BENCH_SCALE.
inline core::dutil_config standard_dutil(std::size_t ports,
                                         std::size_t time_steps = 12,
                                         double bandwidth_bps = 10e9) {
  core::dutil_config cfg;
  cfg.ports = ports;
  cfg.bandwidth_bps = bandwidth_bps;
  cfg.streams = static_cast<std::size_t>(288 * bench_scale());
  cfg.packets_per_stream = 600;
  cfg.ptm.arch = bench_arch();
  cfg.ptm.time_steps = time_steps;
  cfg.ptm.mlp_hidden = {96, 48};
  cfg.ptm.lstm_hidden = {24, 12};
  cfg.ptm.epochs = static_cast<std::size_t>(22 * bench_scale()) + 2;
  cfg.seed = 20220822;  // SIGCOMM'22 conference date
  cfg.sink = bench_sink();
  return cfg;
}

// Train-or-load a PTM through DLib. The key encodes everything that shapes
// the model so changed configurations retrain rather than collide.
inline std::shared_ptr<const core::ptm_model> cached_model(
    const core::dutil_config& cfg) {
  core::device_model_library lib;
  const std::string key =
      core::device_model_library::model_key(cfg.ptm.arch, cfg.ports, cfg.seed) +
      "_t" + std::to_string(cfg.ptm.time_steps) + "_n" +
      std::to_string(cfg.streams) + "_e" + std::to_string(cfg.ptm.epochs) +
      "_bw" + std::to_string(static_cast<long long>(cfg.bandwidth_bps / 1e6)) +
      "_f" + std::to_string(core::feature_count) + "_r3";
  auto model = lib.fetch_or_train(key, [&] {
    std::printf("[dutil] training PTM %s (this is cached in %s)...\n", key.c_str(),
                lib.directory().string().c_str());
    auto bundle = core::train_device_model(cfg);
    std::printf("[dutil] trained in %.1fs, final MSE %.5f\n",
                bundle.report.train_seconds, bundle.report.epoch_mse.back());
    return std::move(bundle.model);
  });
  return std::make_shared<const core::ptm_model>(std::move(model));
}

// The one shared PTM that drives every network-scale bench: an 8-port
// device model over the full scheduler/traffic mix at the bench link rate
// (§6.1: a trained K-port PTM serves any topology with node degree <= K).
inline std::shared_ptr<const core::ptm_model> network_model() {
  auto cfg = standard_dutil(8, 12, /*bandwidth_bps=*/1e9);
  return cached_model(cfg);
}

// A network-scale scenario: topology + routing + per-host ingress streams.
// The topology lives behind a unique_ptr so the routing's back-pointer stays
// valid when the scenario itself is moved (e.g. into a vector).
struct scenario {
  std::unique_ptr<topo::topology> topo_ptr;
  std::unique_ptr<topo::routing> routes;
  std::vector<traffic::flow_spec> flows;
  std::vector<traffic::packet_stream> streams;
  std::vector<double> flow_rates;
  double horizon = 0;

  [[nodiscard]] const topo::topology& topo() const { return *topo_ptr; }
};

// The network-scale accuracy benches run with 1 Gbps links and traffic
// scaled down 10x relative to the paper's 10 Gbps: a pure time rescaling of
// the same queueing processes that keeps CPU packet counts tractable
// (DESIGN.md §2).
inline constexpr double bench_link_bps = 1e9;

inline topo::link_params bench_links() {
  topo::link_params lp;
  lp.bandwidth_bps = bench_link_bps;
  return lp;
}

// Mean packet size of each traffic model's size distribution (bytes).
inline double mean_packet_size(traffic::traffic_model model) {
  return model == traffic::traffic_model::anarchy ? 380.0 : 712.0;
}

inline scenario make_scenario(topo::topology topo_in, traffic::traffic_model model,
                              double per_flow_rate, double horizon,
                              std::uint64_t seed, std::size_t classes = 1) {
  scenario s;
  s.topo_ptr = std::make_unique<topo::topology>(std::move(topo_in));
  s.routes = std::make_unique<topo::routing>(*s.topo_ptr);
  s.horizon = horizon;
  util::rng rng{seed};
  const std::size_t hosts = s.topo().hosts().size();
  s.flows = traffic::make_uniform_flows(hosts, classes, rng);
  traffic::tg_util_config tg;
  tg.model = model;
  tg.per_flow_rate = per_flow_rate;
  tg.seed = seed;
  auto generators = traffic::make_generators(s.flows, tg);
  s.streams = traffic::per_host_streams(generators, hosts, horizon, rng);
  for (const auto& gen : generators) s.flow_rates.push_back(gen.mean_rate());
  return s;
}

// Like make_scenario, but the per-flow rate is calibrated so the most loaded
// link in the network (flows routed per ECMP) carries `target_max_load` of
// its capacity — keeping every queue inside the PTM's trained load range and
// the network stable, exactly as the paper's experiments do. The per-flow
// rates live in scenario::flow_rates for the RouteNet feature derivation.
inline scenario make_scenario_load(topo::topology topo_in,
                                   traffic::traffic_model model,
                                   double target_max_load, double horizon,
                                   std::uint64_t seed, std::size_t classes = 1) {
  // Pass 1: route unit-rate flows to find the most loaded link.
  auto probe_topo = std::make_unique<topo::topology>(std::move(topo_in));
  topo::routing probe_routes{*probe_topo};
  util::rng rng{seed};
  const auto hosts = probe_topo->hosts();
  auto flows = traffic::make_uniform_flows(hosts.size(), classes, rng);
  std::vector<double> link_flows(probe_topo->link_count(), 0.0);
  for (const auto& flow : flows) {
    const auto src = hosts.at(static_cast<std::size_t>(flow.src_host));
    const auto dst = hosts.at(static_cast<std::size_t>(flow.dst_host));
    const auto path = probe_routes.flow_path(src, dst, flow.flow_id);
    for (std::size_t hop = 0; hop + 1 < path.size(); ++hop) {
      const std::size_t port = probe_routes.egress_port(path[hop], dst, flow.flow_id);
      link_flows[probe_topo->peer_of(path[hop], port).link_index] += 1.0;
    }
  }
  double max_flows = 1.0;
  double min_bandwidth = probe_topo->link_at(0).bandwidth_bps;
  for (std::size_t l = 0; l < link_flows.size(); ++l) {
    max_flows = std::max(max_flows, link_flows[l]);
    min_bandwidth = std::min(min_bandwidth, probe_topo->link_at(l).bandwidth_bps);
  }
  const double per_flow_bps = target_max_load * min_bandwidth / max_flows;
  const double per_flow_rate = per_flow_bps / (8.0 * mean_packet_size(model));

  // Pass 2: build the actual scenario with the calibrated rate (same seed,
  // so the flow set is identical to the probe's).
  return make_scenario(std::move(*probe_topo), model, per_flow_rate, horizon,
                       seed, classes);
}

// Run the DES oracle and the DeepQueueNet engine on the same scenario and
// compare them with the §6 metrics.
struct scenario_result {
  des::run_result truth;
  des::run_result prediction;
  core::metric_comparison comparison;
  core::engine_stats engine_stats;
};

// The estimator_context both estimators of run_and_compare are built from —
// exposed so benches that need extra estimators (fluid rows, per-backend DQN
// runs) assemble them through the same factory path.
inline des::estimator_context compare_context(
    const scenario& s, std::shared_ptr<const core::ptm_model> ptm,
    const des::tm_config& tm, bool apply_sec = true, std::size_t partitions = 4,
    bool record_truth_hops = false) {
  des::estimator_context context;
  context.topo = &s.topo();
  context.routes = s.routes.get();
  context.des.tm = tm;
  context.des.record_hops = record_truth_hops;
  context.des.sink = bench_sink();
  context.ptm = std::move(ptm);
  context.scheduler.kind = tm.kind;
  context.scheduler.class_weights = tm.class_weights;
  context.scheduler.bandwidth_bps = bench_link_bps;
  context.engine.partitions = partitions;
  context.engine.apply_sec = apply_sec;
  context.engine.sink = bench_sink();
  context.flows = &s.flows;
  context.flow_rates_pps = &s.flow_rates;
  return context;
}

inline scenario_result run_and_compare(
    const scenario& s, std::shared_ptr<const core::ptm_model> ptm,
    const des::tm_config& tm, double bucket_seconds, bool apply_sec = true,
    std::size_t partitions = 4, bool record_truth_hops = false) {
  const auto context = compare_context(s, std::move(ptm), tm, apply_sec,
                                       partitions, record_truth_hops);
  const auto oracle = des::make_estimator("des", context);
  const auto net = des::make_estimator("deepqueuenet", context);

  des::run_request request;
  request.host_streams = &s.streams;
  request.horizon = s.horizon;
  scenario_result result;
  result.truth = oracle->run(request);
  result.prediction = net->run(request);
  // The engine_stats live on the concrete engine behind the contract; the
  // shared bench sink accumulates across runs, so read them directly.
  result.engine_stats = dynamic_cast<const core::dqn_network&>(*net).stats();
  result.comparison =
      core::compare_runs(result.truth, result.prediction, bucket_seconds, 6);
  return result;
}

inline std::vector<std::string> w1_row(const std::string& system,
                                       const std::string& label,
                                       const core::metric_comparison& cmp) {
  return {system,
          label,
          util::fmt(cmp.w1_avg_rtt, 4),
          util::fmt(cmp.w1_p99_rtt, 4),
          util::fmt(cmp.w1_avg_jitter, 4),
          util::fmt(cmp.w1_p99_jitter, 4)};
}

inline std::vector<std::string> rho_row(const std::string& system,
                                        const std::string& label,
                                        const core::metric_comparison& cmp) {
  auto cell = [](const stats::correlation_result& r) {
    return util::fmt(r.rho, 4) + " [" + util::fmt(r.ci_low, 4) + "," +
           util::fmt(r.ci_high, 4) + "]";
  };
  return {system,
          label,
          cell(cmp.rho_avg_rtt),
          cell(cmp.rho_p99_rtt),
          cell(cmp.rho_avg_jitter),
          cell(cmp.rho_p99_jitter)};
}

}  // namespace dqn::bench
