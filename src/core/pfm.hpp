// Packet-level forwarding model (PFM, §3.2.2): exact forwarding of the
// ingress packet streams to egress queues via the device's forward() table
// (Eq. 6). Semantically this is the paper's 0/1 forwarding tensor F of shape
// K x K x N applied to the stacked ingress streams (Eq. 7); the hot path
// applies it sparsely (one gather per packet), and the dense tensor is
// available for inspection and tests. apply_forwarding is the reference
// path: the engine fuses the same routing into its link pass and routes
// each packet by its own destination (core/engine.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "traffic/packet.hpp"

namespace dqn::core {

// forward(flow_id, in_port) -> out_port (Eq. 6).
using forward_fn = std::function<std::size_t(std::uint32_t, std::size_t)>;

// Route every packet of every ingress stream to its egress queue; each
// returned stream is time-ordered by (original) arrival time.
[[nodiscard]] std::vector<traffic::packet_stream> apply_forwarding(
    const std::vector<traffic::packet_stream>& ingress, const forward_fn& forward,
    std::size_t ports);

// Dense forwarding tensor F = [f_{i,j,k}] with f = 1 iff the k-th packet of
// ingress port i goes to egress port j. N is the padded max stream length.
class forwarding_tensor {
 public:
  forwarding_tensor(std::size_t ports, std::size_t packets);

  void set(std::size_t in_port, std::size_t out_port, std::size_t k);
  [[nodiscard]] bool at(std::size_t in_port, std::size_t out_port,
                        std::size_t k) const;

  [[nodiscard]] std::size_t ports() const noexcept { return ports_; }
  [[nodiscard]] std::size_t packets() const noexcept { return packets_; }

  // Row-sum invariant: each real packet is forwarded to exactly one egress.
  [[nodiscard]] std::size_t fanout(std::size_t in_port, std::size_t k) const;

 private:
  [[nodiscard]] std::size_t index(std::size_t i, std::size_t j, std::size_t k) const;

  std::size_t ports_;
  std::size_t packets_;
  std::vector<std::uint8_t> bits_;
};

[[nodiscard]] forwarding_tensor build_forwarding_tensor(
    const std::vector<traffic::packet_stream>& ingress, const forward_fn& forward,
    std::size_t ports);

// Apply the dense tensor (reference implementation of Eq. 7's product); the
// result must equal apply_forwarding's — checked by the property tests.
[[nodiscard]] std::vector<traffic::packet_stream> apply_tensor(
    const forwarding_tensor& tensor,
    const std::vector<traffic::packet_stream>& ingress);

}  // namespace dqn::core
