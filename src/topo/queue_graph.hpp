// The egress-queue dependency graph that schedules IRSA (core/engine.hpp).
//
// A node is one device egress queue: a (device, egress port) pair. An edge
// runs from queue (u, p) to queue (v, q) wherever some destination's
// equal-cost next hops leave u through p and then leave v, u's peer on p,
// through q. Host egress streams are fixed inputs, so hosts own no queues.
// The graph depends only on (topology, routing), never on the traffic, and
// over-approximates every route a flow hash can pick.
//
// The queues are grouped into levels by peeling (Kahn's algorithm): level 0
// holds the queues fed by hosts alone, and each further level the queues
// whose feeders all sit in earlier levels. A peeled queue's arrivals
// therefore come from hosts and earlier levels only, and its level is its
// longest feeder chain. What no peel removes — every queue on a cycle and
// every queue a cycle feeds — forms one last, cyclic level. On an acyclic
// graph the level count is the longest queue chain (5 on FatTree8 to
// FatTree128, N on a line of N switches); on a torus every queue is in the
// cyclic level.
//
// Every packet that can enter a queue leaves one of its predecessors or a
// host, so a queue whose predecessors' streams did not change since it last
// ran has the same arrivals: the engine reuses its output (core/engine.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "topo/graph.hpp"
#include "topo/routing.hpp"

namespace dqn::topo {

class queue_graph {
 public:
  queue_graph(const topology& topo, const routing& routes);

  // Queues are numbered in (device, port) order, so device `node`'s port p
  // is queue_index(node, 0) + p.
  [[nodiscard]] std::size_t queue_count() const noexcept {
    return level_.size();
  }
  [[nodiscard]] std::size_t queue_index(node_id node, std::size_t port) const;

  // The queues that `queue` feeds: every queue a packet leaving it can enter
  // next.
  [[nodiscard]] std::span<const std::uint32_t> successors(
      std::size_t queue) const {
    return {targets_.data() + offsets_[queue],
            offsets_[queue + 1] - offsets_[queue]};
  }

  // The level of the egress queue behind `port` of device `node`.
  [[nodiscard]] std::size_t level_of(node_id node, std::size_t port) const;

  [[nodiscard]] std::size_t level_count() const noexcept { return levels_; }

  // True when some queues feed each other; they and every queue they feed
  // then form the last level.
  [[nodiscard]] bool cyclic() const noexcept { return cyclic_; }

 private:
  const topology* topo_;
  std::vector<std::size_t> first_queue_;  // node -> its port 0's queue index
  // The edges in CSR form: q feeds targets_[offsets_[q], offsets_[q + 1]).
  std::vector<std::size_t> offsets_;
  std::vector<std::uint32_t> targets_;
  std::vector<std::uint32_t> level_;      // queue index -> level
  std::size_t levels_ = 0;
  bool cyclic_ = false;
};

}  // namespace dqn::topo
