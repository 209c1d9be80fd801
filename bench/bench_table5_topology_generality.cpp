// Table 5 + Table 9 + §6.1 SEC ablation: topology generality in the
// baseline configuration (FIFO + Poisson).
//
// One pre-trained device model is composed into nine different topologies
// with NO retraining: Line4/6, Abilene, GÉANT, 2dTorus 4x4/6x6, and
// FatTree16/64/128. RouteNet (trained on FatTree16 only, traffic-matrix
// input) is evaluated on every topology by re-deriving its path features —
// exactly the transfer the paper shows it cannot make. MimicNet runs on the
// fat-trees (the only family it supports).
//
// Expected shape (paper): DQN w1 stays ~1e-3..1e-1 everywhere; RouteNet is
// 1-3 orders worse, especially off-FatTree; MimicNet matches DQN's RTT
// accuracy on fat-trees but has clearly worse jitter; turning SEC off
// degrades DQN's accuracy substantially.
#include "bench/common.hpp"

#include <cstdio>
#include <functional>

#include "baselines/mimicnet.hpp"
#include "baselines/routenet.hpp"

using namespace dqn;

int main() {
  std::printf("=== Table 5 / Table 9: topology generality (FIFO + Poisson) ===\n\n");
  const double scale = bench::bench_scale();
  const des::tm_config fifo_tm;
  auto ptm = bench::network_model();

  struct topo_case {
    const char* name;
    std::function<topo::topology()> build;
    double load;     // target max-link utilisation
    double horizon;  // seconds
    bool fattree;
    bool ablate_sec;
  };
  const topo_case cases[] = {
      {"Line4", [] { return topo::make_line(4, bench::bench_links()); }, 0.6, 0.08 * scale, false, false},
      {"Line6", [] { return topo::make_line(6, bench::bench_links()); }, 0.6, 0.08 * scale, false, true},
      {"Abilene", [] { return topo::make_abilene(bench::bench_links()); }, 0.6, 0.06 * scale, false, false},
      {"GEANT", [] { return topo::make_geant(bench::bench_links()); }, 0.6, 0.04 * scale, false, false},
      {"2dTorus(4x4)", [] { return topo::make_torus2d(4, 4, bench::bench_links()); }, 0.6, 0.05 * scale, false, false},
      {"2dTorus(6x6)", [] { return topo::make_torus2d(6, 6, bench::bench_links()); }, 0.6, 0.03 * scale, false, false},
      {"FatTree16", [] { return topo::make_fattree16(bench::bench_links()); }, 0.6, 0.08 * scale, true, false},
      {"FatTree64", [] { return topo::make_fattree64(bench::bench_links()); }, 0.6, 0.02 * scale, true, true},
      {"FatTree128", [] { return topo::make_fattree128(bench::bench_links()); }, 0.6, 0.012 * scale, true, true},
  };

  util::text_table w1_table{{"system", "topology", "avgRTT(w1)", "p99RTT(w1)",
                             "avgJitter(w1)", "p99Jitter(w1)"}};
  util::text_table rho_table{{"system", "topology", "avgRTT rho[CI]",
                              "p99RTT rho[CI]", "avgJitter rho[CI]",
                              "p99Jitter rho[CI]"}};
  util::text_table ablation{{"topology", "avgRTT w1 (SEC on)",
                             "avgRTT w1 (SEC off)"}};

  // RouteNet: train once on FatTree16 + Poisson (the baseline config).
  baselines::routenet_estimator rn;
  {
    std::vector<baselines::routenet_estimator::training_example> examples;
    int run = 0;
    for (const double mult : {0.7, 1.0, 1.3}) {
      auto s = bench::make_scenario_load(topo::make_fattree16(bench::bench_links()),
                                         traffic::traffic_model::poisson,
                                         0.6 * mult, 0.06 * scale, 900 + run++);
      des::network_config oracle_cfg;
      oracle_cfg.tm = fifo_tm;
      des::network oracle{s.topo(), *s.routes, oracle_cfg};
      const auto truth = oracle.run(s.streams, s.horizon);
      auto batch = baselines::routenet_estimator::make_examples(
          s.topo(), *s.routes, s.flows, s.flow_rates, 712.0, truth);
      examples.insert(examples.end(), batch.begin(), batch.end());
    }
    rn.train(examples, 600);
  }

  // MimicNet: train once from a FatTree16 reference run with hop records.
  baselines::mimicnet_estimator mn;
  {
    auto s = bench::make_scenario_load(topo::make_fattree16(bench::bench_links()),
                                       traffic::traffic_model::poisson, 0.6,
                                       0.06 * scale, 950);
    des::network_config oracle_cfg;
    oracle_cfg.tm = fifo_tm;
    oracle_cfg.record_hops = true;
    des::network oracle{s.topo(), *s.routes, oracle_cfg};
    const auto truth = oracle.run(s.streams, s.horizon);
    mn.train(s.topo(), truth, 80);
  }

  for (const auto& tc : cases) {
    auto s = bench::make_scenario_load(tc.build(), traffic::traffic_model::poisson,
                                       tc.load, tc.horizon, 4000);
    const double bucket = tc.horizon / 8.0;
    const auto result = bench::run_and_compare(s, ptm, fifo_tm, bucket);
    w1_table.add_row(bench::w1_row("DQN", tc.name, result.comparison));
    rho_table.add_row(bench::rho_row("DQN", tc.name, result.comparison));
    std::printf("[dqn] %-14s done: %zu deliveries, %zu IRSA rounds, %s "
                "(cyclic stage bound %zu)\n",
                tc.name, result.truth.deliveries.size(),
                result.engine_stats.iterations,
                result.engine_stats.converged ? "converged" : "NOT converged",
                1 + s.topo().diameter());

    // RouteNet transfer.
    const auto rn_pred =
        rn.predict_flows(s.topo(), *s.routes, s.flows, s.flow_rates, 712.0);
    const auto rn_cmp =
        baselines::compare_routenet(result.truth, rn_pred, bucket, 6);
    w1_table.add_row(bench::w1_row("RN", tc.name, rn_cmp));
    rho_table.add_row(bench::rho_row("RN", tc.name, rn_cmp));

    // MimicNet on the fat-tree family.
    if (tc.fattree) {
      const auto mn_run = mn.predict(s.topo(), *s.routes, s.streams, tc.horizon);
      const auto mn_cmp = core::compare_runs(result.truth, mn_run, bucket, 6);
      w1_table.add_row(bench::w1_row("MN", tc.name, mn_cmp));
      rho_table.add_row(bench::rho_row("MN", tc.name, mn_cmp));
    }

    // §6.1 ablation: SEC off.
    if (tc.ablate_sec) {
      const auto no_sec =
          bench::run_and_compare(s, ptm, fifo_tm, bucket, /*apply_sec=*/false);
      ablation.add_row({tc.name, util::fmt(result.comparison.w1_avg_rtt, 4),
                        util::fmt(no_sec.comparison.w1_avg_rtt, 4)});
    }
  }

  std::printf("\n--- Table 5 (normalized w1, path-wise; lower is better) ---\n%s\n",
              w1_table.to_string().c_str());
  std::printf("--- Table 9 (Pearson rho with 95%% CI) ---\n%s\n",
              rho_table.to_string().c_str());
  std::printf("--- §6.1 ablation: statistical error correction ---\n%s\n",
              ablation.to_string().c_str());
  std::printf(
      "notes:\n"
      " * under FIFO this ablation is near-vacuous in our reproduction: the\n"
      "   queueing-theoretic priors leave SEC little bias to correct (its\n"
      "   significance gate then keeps it silent). The working SEC ablation\n"
      "   lives in bench_table6 (multi-class schedulers).\n"
      " * IRSA cannot be ablated — without it the mis-batching problem breaks\n"
      "   time order (§6.1).\n");
  return 0;
}
