#include "topo/queue_graph.hpp"

#include <limits>

#include "util/check.hpp"

namespace dqn::topo {

namespace {

constexpr std::uint32_t unpeeled = std::numeric_limits<std::uint32_t>::max();

}  // namespace

queue_graph::queue_graph(const topology& topo, const routing& routes)
    : topo_{&topo}, first_queue_(topo.node_count(), 0) {
  std::size_t queues = 0;
  for (std::size_t i = 0; i < topo.node_count(); ++i) {
    first_queue_[i] = queues;
    const auto node = static_cast<node_id>(i);
    if (topo.at(node).kind == node_kind::device) queues += topo.port_count(node);
  }
  const auto queue_of = [this](node_id node, std::size_t port) {
    return static_cast<std::uint32_t>(
        first_queue_[static_cast<std::size_t>(node)] + port);
  };

  // Successors of queue (u, p) are queues of u's peer v, so one flag per
  // port of v records them without duplicates: flags[first_flag[q] + port].
  const auto devices = topo.devices();
  std::vector<std::size_t> first_flag(queues + 1, 0);
  for (const node_id u : devices) {
    for (std::size_t p = 0; p < topo.port_count(u); ++p) {
      const node_id v = topo.peer_of(u, p).node;
      const std::uint32_t q = queue_of(u, p);
      first_flag[q + 1] = first_flag[q] + (topo.at(v).kind == node_kind::device
                                                ? topo.port_count(v)
                                                : 0);
    }
  }
  std::vector<std::uint8_t> flags(first_flag[queues], 0);
  for (const node_id dst : topo.hosts()) {
    for (const node_id u : devices) {
      for (const std::size_t p : routes.equal_cost_ports(u, dst)) {
        const node_id v = topo.peer_of(u, p).node;
        if (topo.at(v).kind != node_kind::device) continue;
        for (const std::size_t port : routes.equal_cost_ports(v, dst))
          flags[first_flag[queue_of(u, p)] + port] = 1;
      }
    }
  }
  // The edges in CSR form (queue indices follow (device, port) order).
  offsets_.assign(queues + 1, 0);
  for (const node_id u : devices) {
    for (std::size_t p = 0; p < topo.port_count(u); ++p) {
      const std::uint32_t q = queue_of(u, p);
      const node_id v = topo.peer_of(u, p).node;
      for (std::size_t port = 0; port < first_flag[q + 1] - first_flag[q]; ++port)
        if (flags[first_flag[q] + port] != 0)
          targets_.push_back(queue_of(v, port));
      offsets_[q + 1] = targets_.size();
    }
  }

  // Kahn's peel, one level per round: a queue joins the round after its
  // last feeder was peeled, so its level is its longest feeder chain.
  std::vector<std::uint32_t> feeders(queues, 0);
  for (const std::uint32_t target : targets_) ++feeders[target];
  level_.assign(queues, unpeeled);
  std::vector<std::uint32_t> layer;
  for (std::uint32_t q = 0; q < queues; ++q)
    if (feeders[q] == 0) layer.push_back(q);
  std::vector<std::uint32_t> next_layer;
  for (; !layer.empty(); ++levels_) {
    for (const std::uint32_t q : layer) {
      level_[q] = static_cast<std::uint32_t>(levels_);
      for (const std::uint32_t target : successors(q))
        if (--feeders[target] == 0) next_layer.push_back(target);
    }
    layer.swap(next_layer);
    next_layer.clear();
  }
  // The rest lies on a cycle or behind one: the last level.
  for (std::uint32_t& level : level_) {
    if (level != unpeeled) continue;
    level = static_cast<std::uint32_t>(levels_);
    cyclic_ = true;
  }
  if (cyclic_) ++levels_;
}

std::size_t queue_graph::queue_index(node_id node, std::size_t port) const {
  DQN_CHECK(topo_->at(node).kind == node_kind::device, "queue_graph: node ",
            node, " is a host, not a device");
  DQN_CHECK(port < topo_->port_count(node), "queue_graph: port ", port,
            " out of range for node ", node);
  return first_queue_[static_cast<std::size_t>(node)] + port;
}

std::size_t queue_graph::level_of(node_id node, std::size_t port) const {
  return level_[queue_index(node, port)];
}

}  // namespace dqn::topo
