#include "des/estimator_factory.hpp"

#include <stdexcept>

#include "baselines/fluid.hpp"
#include "util/check.hpp"

namespace dqn::des {

namespace {

void require(bool ok, const char* estimator, const char* what) {
  if (!ok)
    throw std::invalid_argument{std::string{"make_estimator(\""} + estimator +
                                "\"): estimator_context." + what +
                                " is required"};
}

}  // namespace

std::unique_ptr<estimator> make_estimator(std::string_view name,
                                          const estimator_context& context) {
  if (name == "des") {
    require(context.topo != nullptr, "des", "topo");
    require(context.routes != nullptr, "des", "routes");
    return std::make_unique<network>(*context.topo, *context.routes,
                                     context.des);
  }
  if (name == "deepqueuenet" || name == "dqn") {
    require(context.topo != nullptr, "deepqueuenet", "topo");
    require(context.routes != nullptr, "deepqueuenet", "routes");
    // Only the analytical backend runs without a PTM.
    require(context.ptm != nullptr ||
                context.engine.delay.backend == delay_backend::analytical,
            "deepqueuenet", "ptm");
    return std::make_unique<core::dqn_network>(*context.topo, *context.routes,
                                               context.ptm, context.scheduler,
                                               context.engine);
  }
  if (name == "fluid") {
    require(context.topo != nullptr, "fluid", "topo");
    require(context.routes != nullptr, "fluid", "routes");
    require(context.flows != nullptr, "fluid", "flows");
    require(context.flow_rates_pps != nullptr, "fluid", "flow_rates_pps");
    require(context.mean_packet_size > 0, "fluid", "mean_packet_size");
    return std::make_unique<baselines::fluid_estimator>(
        *context.topo, *context.routes, *context.flows,
        *context.flow_rates_pps, context.mean_packet_size);
  }
  if (name == "routenet")
    throw std::invalid_argument{
        "make_estimator(\"routenet\"): RouteNet needs scenario-specific "
        "training — construct baselines::routenet_estimator and call train() "
        "with make_examples() output (see bench_table4_traffic_generality.cpp)"};
  if (name == "mimicnet")
    throw std::invalid_argument{
        "make_estimator(\"mimicnet\"): MimicNet needs a DES reference run to "
        "train its mimics — construct baselines::mimicnet_estimator and call "
        "train() (see bench_table7_scalability.cpp)"};
  std::string known;
  for (const auto& candidate : estimator_names()) {
    if (!known.empty()) known += ", ";
    known += candidate;
  }
  throw std::invalid_argument{std::string{"make_estimator: unknown estimator "
                                          "\""} +
                              std::string{name} + "\" (known: " + known + ")"};
}

std::vector<std::string> estimator_names() {
  return {"des", "deepqueuenet", "fluid"};
}

}  // namespace dqn::des
