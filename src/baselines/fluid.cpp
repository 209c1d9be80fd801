#include "baselines/fluid.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

#include "baselines/constant_delay_replay.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/sink.hpp"
#include "util/stopwatch.hpp"

namespace dqn::baselines {

fluid_estimator::fluid_estimator(const topo::topology& topo,
                                 const topo::routing& routes,
                                 std::vector<traffic::flow_spec> flows,
                                 std::vector<double> flow_rates_pps,
                                 double mean_packet_size)
    : topo_{&topo},
      routes_{&routes},
      flows_{std::move(flows)},
      flow_rates_pps_{std::move(flow_rates_pps)},
      mean_packet_size_{mean_packet_size} {}

des::run_result fluid_estimator::run(const des::run_request& request) {
  if (topo_ == nullptr)
    throw std::logic_error{
        "fluid_estimator::run: construct with a scenario (topology, routing, "
        "flows, rates) before using the unified run API"};
  if (request.host_streams == nullptr)
    throw std::invalid_argument{"fluid_estimator::run: host_streams is null"};
  obs::scoped_timer timer{request.sink, "fluid", "run"};
  util::stopwatch watch;
  const auto delays = predict_mean_delays(*topo_, *routes_, flows_,
                                          flow_rates_pps_, mean_packet_size_);
  auto result = replay_constant_delays(*topo_, *request.host_streams,
                                       request.horizon, delays);
  result.wall_seconds = watch.elapsed_seconds();
  if (request.sink != nullptr) {
    request.sink->count("fluid.deliveries",
                        static_cast<double>(result.deliveries.size()));
    request.sink->count("fluid.drops", static_cast<double>(result.drops));
  }
  return result;
}

std::map<std::uint32_t, double> fluid_estimator::predict_mean_delays(
    const topo::topology& topo, const topo::routing& routes,
    const std::vector<traffic::flow_spec>& flows,
    const std::vector<double>& flow_rates_pps, double mean_packet_size) {
  if (flows.size() != flow_rates_pps.size())
    throw std::invalid_argument{"fluid_estimator: one rate per flow required"};
  const auto hosts = topo.hosts();
  auto host_node = [&](std::int32_t index) {
    return hosts.at(static_cast<std::size_t>(index));
  };

  // Aggregate the traffic matrix onto directed link loads (pps).
  // Directed link key: link index * 2 + (0 if used a->b else 1).
  std::vector<double> link_pps(topo.link_count() * 2, 0.0);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const auto dst = host_node(flows[f].dst_host);
    const auto path =
        routes.flow_path(host_node(flows[f].src_host), dst, flows[f].flow_id);
    for (std::size_t hop = 0; hop + 1 < path.size(); ++hop) {
      const std::size_t port =
          routes.egress_port(path[hop], dst, flows[f].flow_id);
      const auto peer = topo.peer_of(path[hop], port);
      const auto& link = topo.link_at(peer.link_index);
      const bool forward_direction = link.node_a == path[hop];
      link_pps[peer.link_index * 2 + (forward_direction ? 0 : 1)] +=
          flow_rates_pps[f];
    }
  }

  std::map<std::uint32_t, double> delays;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const auto dst = host_node(flows[f].dst_host);
    const auto path =
        routes.flow_path(host_node(flows[f].src_host), dst, flows[f].flow_id);
    double delay = 0;
    for (std::size_t hop = 0; hop + 1 < path.size(); ++hop) {
      const std::size_t port =
          routes.egress_port(path[hop], dst, flows[f].flow_id);
      const auto peer = topo.peer_of(path[hop], port);
      const auto& link = topo.link_at(peer.link_index);
      const bool forward_direction = link.node_a == path[hop];
      const double lambda =
          link_pps[peer.link_index * 2 + (forward_direction ? 0 : 1)];
      const double mu = link.bandwidth_bps / (8.0 * mean_packet_size);
      if (lambda >= mu) {
        delay = std::numeric_limits<double>::infinity();
        break;
      }
      // M/M/1 sojourn (queueing + service) plus propagation.
      delay += 1.0 / (mu - lambda) + link.propagation_delay;
    }
    delays[flows[f].flow_id] = delay;
  }
  return delays;
}

}  // namespace dqn::baselines
