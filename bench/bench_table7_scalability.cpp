// Table 7: inference execution time with parallelization on fat-trees.
//
// For each network we run the same workload through (a) the sequential
// packet-level DES, (b) MimicNet (trained once on FatTree16), and (c)
// DeepQueueNet with 1/2/4/8 workers — the CPU-thread analogue of the
// paper's multi-GPU model parallelism (Figure 11; DESIGN.md §2).
//
// DeepQueueNet rows report MEASURED wall-clock time: the sharded engine
// (topology-aware shards + work stealing + lock-free boundary exchange)
// genuinely executes across cores, so speedup columns are real on
// any machine with free cores and flat on a loaded or single-core one.
//
// `--threads N` runs the CI perf-smoke slice instead: best-of-3 measured
// wall on the FatTree16 workload at N workers, emitted as one JSON line
// (with a delivery fingerprint so the gate can assert bit-identical results
// across thread counts). See .github/workflows/ci.yml perf-smoke.
#include "bench/common.hpp"

#include <cstdio>
#include <cstring>
#include <functional>

#include "baselines/mimicnet.hpp"
#include "core/delay_provider.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

using namespace dqn;

namespace {

// Order- and bit-sensitive digest of the delivery records (FNV-1a over pid +
// the raw delivery_time bits): equal fingerprints across thread counts means
// the sharded engine reproduced the exact same deliveries.
std::uint64_t delivery_fingerprint(const des::run_result& result) {
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (value >> shift) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  for (const auto& d : result.deliveries) {
    mix(d.pid);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d.delivery_time, sizeof bits);
    mix(bits);
  }
  return hash;
}

// The CI perf-smoke slice: FatTree16, the paper's execution profile
// (Algorithm 1 re-infers every device each iteration), best-of-3 measured
// wall at `threads` workers. One JSON line on stdout.
int run_threads_smoke(std::size_t threads) {
  const double scale = bench::bench_scale();
  auto ptm = bench::network_model();
  const auto s = bench::make_scenario_load(
      topo::make_fattree16(bench::bench_links()),
      traffic::traffic_model::poisson, 0.5, 0.15 * scale, 1000);
  core::scheduler_context ctx;
  ctx.bandwidth_bps = bench::bench_link_bps;
  core::engine_config cfg;
  cfg.partitions = threads;
  cfg.irsa_skip_unchanged = false;
  core::dqn_network net{s.topo(), *s.routes, ptm, ctx, cfg};
  double best_wall = 0;
  des::run_result result;
  for (int rep = 0; rep < 3; ++rep) {
    result = net.run(s.streams, s.horizon);
    best_wall = rep == 0 ? result.wall_seconds
                         : std::min(best_wall, result.wall_seconds);
  }
  const auto& stats = net.stats();
  std::printf("{\"threads\":%zu,\"wall_seconds\":%.6f,\"deliveries\":%zu,"
              "\"delivery_fingerprint\":\"%016llx\",\"iterations\":%zu,"
              "\"steals\":%llu,\"cross_shard_links\":%zu,"
              "\"shard_imbalance\":%.4f}\n",
              threads, best_wall, result.deliveries.size(),
              static_cast<unsigned long long>(delivery_fingerprint(result)),
              stats.iterations, static_cast<unsigned long long>(stats.steals),
              stats.cross_shard_links, stats.shard_imbalance);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string{argv[i]} == "--threads" && i + 1 < argc) {
      const long threads = std::atol(argv[i + 1]);
      DQN_ENSURE(threads > 0, "bench_table7: --threads must be >= 1");
      return run_threads_smoke(static_cast<std::size_t>(threads));
    }
  }

  std::printf("=== Table 7: inference execution time with parallelization ===\n\n");
  const double scale = bench::bench_scale();
  const des::tm_config fifo_tm;
  auto ptm = bench::network_model();

  // MimicNet trained once from a FatTree16 reference run.
  baselines::mimicnet_estimator mn;
  {
    auto s = bench::make_scenario_load(topo::make_fattree16(bench::bench_links()),
                                       traffic::traffic_model::poisson, 0.5,
                                       0.05 * scale, 777);
    des::network_config oracle_cfg;
    oracle_cfg.tm = fifo_tm;
    oracle_cfg.record_hops = true;
    des::network oracle{s.topo(), *s.routes, oracle_cfg};
    const auto truth = oracle.run(s.streams, s.horizon);
    mn.train(s.topo(), truth, 80);
  }

  struct scale_case {
    const char* name;
    std::function<topo::topology()> build;
    double load;
    double horizon;
  };
  const scale_case cases[] = {
      {"FatTree8", [] { return topo::make_fattree8(bench::bench_links()); },
       0.5, 0.15 * scale},
      {"FatTree16", [] { return topo::make_fattree16(bench::bench_links()); },
       0.5, 0.15 * scale},
      {"FatTree64", [] { return topo::make_fattree64(bench::bench_links()); },
       0.5, 0.06 * scale},
      {"FatTree128", [] { return topo::make_fattree128(bench::bench_links()); },
       0.5, 0.036 * scale},
  };

  // "time" for DeepQueueNet rows is MEASURED wall-clock time of the sharded
  // engine. Speedup columns therefore depend on free cores: near-linear on a
  // many-core box, flat on a loaded or single-core one.
  util::text_table table{
      {"topology", "method", "#workers", "packets", "time", "speedup"}};

  for (const auto& sc : cases) {
    const auto s = bench::make_scenario_load(
        sc.build(), traffic::traffic_model::poisson, sc.load, sc.horizon, 1000);
    std::size_t packets = 0;
    for (const auto& stream : s.streams) packets += stream.size();
    const std::string pkts = std::to_string(packets);
    const bool is_fattree16 = std::string{sc.name} == "FatTree16";

    // Sequential DES (hop recording off: pure simulation cost).
    {
      des::network_config oracle_cfg;
      oracle_cfg.tm = fifo_tm;
      oracle_cfg.record_hops = false;
      des::network oracle{s.topo(), *s.routes, oracle_cfg};
      util::stopwatch watch;
      const auto result = oracle.run(s.streams, sc.horizon);
      (void)result;
      table.add_row({sc.name, "DES", "-", pkts,
                     util::format_duration(watch.elapsed_seconds()), "-"});
    }

    // MimicNet.
    {
      util::stopwatch watch;
      const auto result = mn.predict(s.topo(), *s.routes, s.streams, sc.horizon);
      (void)result;
      table.add_row({sc.name, "MimicNet", "1", pkts,
                     util::format_duration(watch.elapsed_seconds()), "-"});
    }

    // DeepQueueNet with 1/2/4/8 workers: measured wall time.
    double base_seconds = 0;
    std::uint64_t base_fingerprint = 0;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}, std::size_t{8}}) {
      core::scheduler_context ctx;
      ctx.bandwidth_bps = bench::bench_link_bps;
      core::engine_config cfg;
      cfg.partitions = workers;
      // Measure the paper's execution profile: Algorithm 1 re-infers every
      // device each iteration (the default dependency-ordered schedule runs
      // one queue-graph level per round, so rounds hold few devices and
      // the parallel speedup is Amdahl-limited).
      cfg.irsa_skip_unchanged = false;
      core::dqn_network net{s.topo(), *s.routes, ptm, ctx, cfg};
      const auto result = net.run(s.streams, sc.horizon);
      const double seconds = net.stats().wall_seconds;
      const std::uint64_t fingerprint = delivery_fingerprint(result);
      std::string speedup = "baseline";
      if (workers == 1) {
        base_seconds = seconds;
        base_fingerprint = fingerprint;
      } else {
        speedup = util::fmt(base_seconds / seconds, 2) + "-fold";
        // The determinism contract, enforced in-bench: sharded execution
        // reproduces the single-worker deliveries bit for bit.
        DQN_ENSURE(fingerprint == base_fingerprint,
                   "table7: ", sc.name, " deliveries diverged at ", workers,
                   " workers (fingerprint mismatch)");
      }
      table.add_row({sc.name, "DeepQueueNet", std::to_string(workers), pkts,
                     util::format_duration(seconds), speedup});
      std::printf("[dqn] %-11s workers=%zu: %s measured wall "
                  "(%zu IRSA iterations, %llu steals, imbalance %.3f)\n",
                  sc.name, workers, util::format_duration(seconds).c_str(),
                  net.stats().iterations,
                  static_cast<unsigned long long>(net.stats().steals),
                  net.stats().shard_imbalance);
      if (is_fattree16) {
        if (obs::sink* sink = bench::bench_sink(); sink != nullptr) {
          const std::string suffix = "_w" + std::to_string(workers);
          sink->gauge("table7.measured_wall" + suffix, seconds);
          if (workers > 1)
            sink->gauge("table7.measured_speedup" + suffix,
                        base_seconds / seconds);
        }
      }
    }

    // Tiered delay backend (core/delay_provider.hpp): pure-PTM versus tiered
    // on the identical scenario and engine configuration. The network is
    // FIFO, so under tiered every queue takes the exact closed form
    // (analytical fraction 1). These rows report MEASURED wall time — the
    // tiered win is queues skipping DNN inference entirely, which shows up
    // on any machine regardless of core count.
    {
      auto context = bench::compare_context(s, ptm, fifo_tm,
                                            /*apply_sec=*/true,
                                            /*partitions=*/4);
      const auto measured_wall = [&](des::delay_backend backend,
                                     double* fraction) {
        context.engine.delay.backend = backend;
        const auto net = des::make_estimator("deepqueuenet", context);
        des::run_request request;
        request.host_streams = &s.streams;
        request.horizon = sc.horizon;
        const auto result = net->run(request);
        (void)result;
        const auto& engine = dynamic_cast<const core::dqn_network&>(*net);
        if (fraction != nullptr) {
          const auto* tiered = dynamic_cast<const core::tiered_delay_provider*>(
              &engine.provider());
          *fraction =
              tiered != nullptr ? tiered->stats().analytical_fraction() : 0.0;
        }
        return engine.stats().wall_seconds;
      };
      const double ptm_wall = measured_wall(des::delay_backend::ptm, nullptr);
      double fraction = 0;
      const double tiered_wall =
          measured_wall(des::delay_backend::tiered, &fraction);
      table.add_row({sc.name, "DQN-tiered", "4", pkts,
                     util::format_duration(tiered_wall),
                     util::fmt(ptm_wall / tiered_wall, 2) + "-fold vs ptm"});
      std::printf("[tiered] %-11s measured: ptm %s, tiered %s (%.2fx), "
                  "analytical fraction %.3f\n",
                  sc.name, util::format_duration(ptm_wall).c_str(),
                  util::format_duration(tiered_wall).c_str(),
                  ptm_wall / tiered_wall, fraction);
      if (obs::sink* sink = bench::bench_sink(); sink != nullptr) {
        sink->gauge("table7.tiered_speedup", ptm_wall / tiered_wall);
        sink->gauge("table7.ptm_wall_seconds", ptm_wall);
        sink->gauge("table7.tiered_wall_seconds", tiered_wall);
      }
    }
  }

  std::printf("\n%s\n", table.to_string().c_str());
  std::printf(
      "notes (DQN_BENCH_SCALE=%g):\n"
      " * DeepQueueNet rows are measured wall time of the sharded engine\n"
      "   (topology shards + work stealing + lock-free exchange);\n"
      "   speedup in workers is real and requires free cores to show —\n"
      "   CI's perf-smoke gate holds the 4-worker floor on a 4-vCPU runner;\n"
      " * the reproduced shapes are (a) DeepQueueNet speedup in workers,\n"
      "   (b) DQN time roughly flat in network size while DES grows with\n"
      "   it, (c) MimicNet fastest per execution unit on its native\n"
      "   fat-trees;\n"
      " * absolute DES-vs-DQN ordering is inverted relative to the paper:\n"
      "   per-packet DNN inference on CPU cores cannot beat a lean C++\n"
      "   DES kernel — the paper's 100-800x DES deficit comes from GPU\n"
      "   inference throughput (~1000x a core) against a full-stack OMNeT++\n"
      "   model. The partitioned-inference code path is identical\n"
      "   (DESIGN.md §2).\n",
      scale);
  return 0;
}
