// Network topology: hosts and switches connected by full-duplex links. Each
// endpoint of a link occupies one port of its node; port indices are
// assigned in connection order and are the indices PFM forwarding tensors
// use. Links carry bandwidth and propagation delay — in DeepQueueNet links
// are devices too (§1, footnote 1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dqn::topo {

using node_id = std::int32_t;

enum class node_kind : std::uint8_t { host, device };  // device = switch/router

struct link {
  node_id node_a = -1;
  std::size_t port_a = 0;
  node_id node_b = -1;
  std::size_t port_b = 0;
  double bandwidth_bps = 10e9;   // the paper's evaluation uses 10 Gbps links
  double propagation_delay = 1e-6;  // seconds
};

struct node {
  node_kind kind = node_kind::device;
  std::string name;
  std::vector<std::size_t> links;  // indices into topology::links(), by port
};

class topology {
 public:
  node_id add_host(std::string name);
  node_id add_device(std::string name);

  // Connect two nodes with a full-duplex link; returns the link index.
  std::size_t connect(node_id a, node_id b, double bandwidth_bps = 10e9,
                      double propagation_delay = 1e-6);

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const noexcept { return links_.size(); }
  [[nodiscard]] const node& at(node_id id) const;
  [[nodiscard]] const link& link_at(std::size_t index) const;
  [[nodiscard]] const std::vector<node>& nodes() const noexcept { return nodes_; }
  [[nodiscard]] const std::vector<link>& links() const noexcept { return links_; }

  [[nodiscard]] std::size_t port_count(node_id id) const { return at(id).links.size(); }

  // The neighbour reached through `port` of node `id`, and the port on the
  // neighbour's side of that link.
  struct peer {
    node_id node = -1;
    std::size_t port = 0;
    std::size_t link_index = 0;
  };
  [[nodiscard]] peer peer_of(node_id id, std::size_t port) const;

  [[nodiscard]] std::vector<node_id> hosts() const;
  [[nodiscard]] std::vector<node_id> devices() const;

  // Hop-count diameter over all node pairs. 1 + diameter bounds IRSA's
  // rounds (Theorem 3.1) only on an acyclic egress-queue graph; a cycle,
  // as on a torus, can take more (core/engine.hpp).
  [[nodiscard]] std::size_t diameter() const;

  // BFS hop distance from `from` to every node (-1 if unreachable).
  [[nodiscard]] std::vector<int> hop_distances(node_id from) const;

 private:
  std::vector<node> nodes_;
  std::vector<link> links_;
};

}  // namespace dqn::topo
