#include "topo/routing.hpp"

#include <stdexcept>
#include <string>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace dqn::topo {

namespace {

// egress_port's failure, kept out of its per-packet body.
[[noreturn]] void throw_unreachable(const topology& topo, node_id current,
                                    node_id dst_host) {
  throw std::runtime_error{"routing: destination host " +
                           topo.at(dst_host).name + " (node " +
                           std::to_string(dst_host) +
                           ") unreachable from node " + topo.at(current).name +
                           " (node " + std::to_string(current) + ")"};
}

}  // namespace

routing::routing(const topology& topo, std::uint64_t ecmp_salt)
    : topo_{&topo}, salt_{ecmp_salt} {
  const std::size_t n = topo.node_count();
  next_ports_.assign(n, {});
  for (const node_id dst : topo.hosts()) {
    const auto dist = topo.hop_distances(dst);
    auto& table = next_ports_[static_cast<std::size_t>(dst)];
    table.assign(n, {});
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<node_id>(i);
      if (id == dst || dist[i] < 0) continue;
      // A port is a shortest-path next hop if it strictly decreases the
      // BFS distance to the destination.
      for (std::size_t port = 0; port < topo.port_count(id); ++port) {
        const auto peer = topo.peer_of(id, port);
        if (dist[static_cast<std::size_t>(peer.node)] == dist[i] - 1)
          table[i].push_back(port);
      }
    }
  }
}

const std::vector<std::size_t>& routing::equal_cost_ports(node_id current,
                                                          node_id dst_host) const {
  DQN_CHECK(dst_host >= 0 &&
                static_cast<std::size_t>(dst_host) < next_ports_.size() &&
                !next_ports_[static_cast<std::size_t>(dst_host)].empty(),
            "routing: node ", dst_host, " is not a known destination host");
  const auto& table = next_ports_[static_cast<std::size_t>(dst_host)];
  DQN_CHECK_RANGE(current, table.size());
  return table[static_cast<std::size_t>(current)];
}

std::size_t routing::egress_port(node_id current, node_id dst_host,
                                 std::uint32_t flow_id) const {
  const auto& ports = equal_cost_ports(current, dst_host);
  if (ports.empty()) throw_unreachable(*topo_, current, dst_host);
  if (ports.size() == 1) return ports.front();
  // Stable per-flow hash over the equal-cost set.
  std::uint64_t h = salt_ ^ (0x9e3779b97f4a7c15ULL * (flow_id + 1));
  h ^= static_cast<std::uint64_t>(current) * 0xbf58476d1ce4e5b9ULL;
  (void)util::splitmix64(h);
  return ports[util::splitmix64(h) % ports.size()];
}

std::vector<node_id> routing::flow_path(node_id src_host, node_id dst_host,
                                        std::uint32_t flow_id) const {
  std::vector<node_id> path{src_host};
  node_id current = src_host;
  // Guard against accidental loops: a shortest-path walk can never exceed
  // the node count.
  for (std::size_t steps = 0; steps <= topo_->node_count(); ++steps) {
    if (current == dst_host) return path;
    const std::size_t port = egress_port(current, dst_host, flow_id);
    current = topo_->peer_of(current, port).node;
    path.push_back(current);
  }
  throw std::runtime_error{"routing::flow_path: path did not terminate"};
}

}  // namespace dqn::topo
