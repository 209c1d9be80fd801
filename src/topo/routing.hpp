// Shortest-path routing with per-flow ECMP. The paper assumes routing tables
// are given in the setup phase and stable during simulation (§2.4); this
// module computes them once per topology. Equal-cost next hops are resolved
// by a stable hash of the flow id so a flow's packets never change path
// (avoiding reordering by design).
#pragma once

#include <cstdint>
#include <vector>

#include "topo/graph.hpp"

namespace dqn::topo {

class routing {
 public:
  // Computes BFS next-hop sets from every node towards every host.
  explicit routing(const topology& topo, std::uint64_t ecmp_salt = 0);

  // The egress port of `current` towards `dst_host` for this flow; throws
  // std::runtime_error naming both nodes if the destination is unreachable.
  [[nodiscard]] std::size_t egress_port(node_id current, node_id dst_host,
                                        std::uint32_t flow_id) const;

  // All equal-cost egress ports (for tests and for the PFM builder).
  [[nodiscard]] const std::vector<std::size_t>& equal_cost_ports(
      node_id current, node_id dst_host) const;

  // The full node path a flow takes from src_host to dst_host.
  [[nodiscard]] std::vector<node_id> flow_path(node_id src_host, node_id dst_host,
                                               std::uint32_t flow_id) const;

 private:
  const topology* topo_;
  std::uint64_t salt_;
  // next_ports_[dst][node] = equal-cost egress ports of `node` towards `dst`.
  std::vector<std::vector<std::vector<std::size_t>>> next_ports_;
};

}  // namespace dqn::topo
