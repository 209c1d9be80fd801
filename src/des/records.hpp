// Trace records produced by simulation runs. DES and DeepQueueNet emit the
// same record types, so every metric (RTT, jitter, per-device sojourn,
// anything a user computes later — the packet-level visibility claim) is a
// pure function of these traces.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "topo/graph.hpp"
#include "traffic/packet.hpp"

namespace dqn::des {

// One packet's passage through one device: arrival at the ingress port and
// departure (start of transmission) from the egress port. Sojourn =
// departure - arrival is the PTM's regression target.
struct hop_record {
  std::uint64_t pid = 0;
  std::uint32_t flow_id = 0;
  topo::node_id device = -1;
  std::size_t in_port = 0;
  std::size_t out_port = 0;
  double arrival = 0;
  double departure = 0;
  std::uint32_t size_bytes = 0;
  std::uint8_t priority = 0;
  std::uint16_t weight = 1;
  std::uint8_t protocol = 17;
};

// End-to-end delivery of one packet.
struct delivery_record {
  std::uint64_t pid = 0;
  std::uint32_t flow_id = 0;
  topo::node_id src = -1;
  topo::node_id dst = -1;
  double send_time = 0;
  double delivery_time = 0;

  [[nodiscard]] double latency() const noexcept { return delivery_time - send_time; }
};

struct run_result {
  std::vector<hop_record> hops;            // empty if hop recording disabled
  std::vector<delivery_record> deliveries; // sorted by delivery time
  std::uint64_t drops = 0;
  std::uint64_t events = 0;
  double wall_seconds = 0;
};

// Whether a sequence of pids rises strictly, which proves them distinct
// without a sort. Packet-level estimators feed each host's injected pids in
// stream order with add() and join the hosts in host order with append().
// Every in-repo traffic generator numbers pids in host order, so its pids
// pass; other input falls back to duplicate_pid.
struct rising_pids {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  bool empty = true;
  bool rising = true;

  void add(std::uint64_t pid) noexcept {
    if (empty)
      first = pid;
    else if (pid <= last)
      rising = false;
    last = pid;
    empty = false;
  }
  // Continues this sequence with `next`'s.
  void append(const rising_pids& next) noexcept {
    if (next.empty) return;
    if (empty) {
      *this = next;
      return;
    }
    rising = rising && next.rising && next.first > last;
    last = next.last;
  }
};

// The first pid, in pid order, that the packets sent by `horizon` carry
// twice, or none. Packet-level estimators reject such input; they call this
// when the pids they injected do not rise (rising_pids).
[[nodiscard]] std::optional<std::uint64_t> duplicate_pid(
    const std::vector<traffic::packet_stream>& host_streams, double horizon);

// Latency series per flow (delivery order) — the "path-wise" unit of the
// paper's accuracy metrics.
[[nodiscard]] std::map<std::uint32_t, std::vector<double>> per_flow_latencies(
    const run_result& result);

// All end-to-end latencies, in delivery order.
[[nodiscard]] std::vector<double> all_latencies(const run_result& result);

}  // namespace dqn::des
