// String-keyed estimator construction over the unified run contract
// (run_api.hpp) — the pattern of Sniper's QueueModel::create: callers name a
// backend ("des", "deepqueuenet", "fluid") and get a ready des::estimator,
// so benches, examples, and CLI flags select estimators without per-type
// plumbing.
//
// The factory lives in namespace dqn::des but links *above* core and
// baselines (CMake target dqn_estimators): run_api.hpp defines the contract
// at the bottom of the DAG, this header assembles the implementations at the
// top.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "des/network.hpp"
#include "des/run_api.hpp"
#include "topo/graph.hpp"
#include "topo/routing.hpp"
#include "traffic/traffic_gen.hpp"

namespace dqn::des {

// Everything any creatable estimator might bind at construction. Pointers
// are non-owning and must outlive the estimator; only the fields an
// estimator actually uses need to be set (make_estimator rejects a missing
// requirement loudly, naming the field).
struct estimator_context {
  const topo::topology* topo = nullptr;    // all estimators
  const topo::routing* routes = nullptr;   // all estimators
  network_config des;                      // "des": oracle configuration
  // "deepqueuenet": the trained PTM plus engine/scheduler configuration
  // (engine.delay selects the delay backend — see core/delay_provider.hpp;
  // the analytical backend needs no PTM).
  std::shared_ptr<const core::ptm_model> ptm;
  core::scheduler_context scheduler;
  core::engine_config engine;
  // "fluid": the traffic matrix is the fluid model's input interface.
  const std::vector<traffic::flow_spec>* flows = nullptr;
  const std::vector<double>* flow_rates_pps = nullptr;
  double mean_packet_size = 0;  // bytes
};

// Construct the estimator named `name`. Creatable names: "des",
// "deepqueuenet" (alias "dqn"), "fluid". "routenet" and "mimicnet" exist in
// the tree but need scenario-specific training, so requesting them throws
// std::invalid_argument pointing at their training entry points; any other
// name throws std::invalid_argument listing the known set.
[[nodiscard]] std::unique_ptr<estimator> make_estimator(
    std::string_view name, const estimator_context& context);

// The names make_estimator can construct, in display order.
[[nodiscard]] std::vector<std::string> estimator_names();

}  // namespace dqn::des
