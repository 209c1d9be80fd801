// Packet-level DES of a whole network: hosts inject their ingress streams,
// switches forward per the routing tables and schedule per the configured
// TM, and the run yields delivery and (optionally) per-hop records.
//
// Device semantics (consistent with the DeepQueueNet device model, §3.2.2):
//  * switch sojourn = scheduler waiting time (arrival -> start of tx);
//  * the outgoing link then adds len/C serialization + propagation (Eq. 5).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "des/records.hpp"
#include "des/run_api.hpp"
#include "des/simulator.hpp"
#include "des/traffic_manager.hpp"
#include "topo/graph.hpp"
#include "topo/routing.hpp"
#include "traffic/packet.hpp"

namespace dqn::des {

struct network_config {
  tm_config tm;             // applied to every device egress port...
  // ...unless overridden here per node (heterogeneous TM deployments:
  // e.g. WFQ at the aggregation layer, FIFO elsewhere).
  std::map<topo::node_id, tm_config> tm_overrides;
  bool record_hops = true;  // disable for the large scalability runs
  // Optional observability: when non-null the run records event counts, peak
  // heap depth, drops, and wall time (null = no-op, zero overhead).
  obs::sink* sink = nullptr;
};

class network : public estimator {
 public:
  // Every host must have exactly one link, its NIC's uplink; anything else
  // throws util::contract_violation naming the host.
  network(const topo::topology& topo, const topo::routing& routes,
          network_config config);

  // host_streams[i] is the ingress stream of topo.hosts()[i]. Packet
  // src_host/dst_host fields in the streams are host *indices* (as produced
  // by traffic::make_uniform_flows); they are translated to topology node
  // ids on injection. Runs the DES until `horizon` (finite and > 0) plus a
  // drain period.
  [[nodiscard]] run_result run(const std::vector<traffic::packet_stream>& host_streams,
                               double horizon);

  // Unified estimator contract (des/run_api.hpp).
  [[nodiscard]] run_result run(const run_request& request) override;
  [[nodiscard]] const char* estimator_name() const noexcept override {
    return "des";
  }

 private:
  struct egress_port {
    traffic_manager tm;
    bool busy = false;
    double bandwidth_bps = 0;
    double propagation_delay = 0;
    topo::node_id peer = -1;
    std::size_t peer_port = 0;
  };
  struct device_state {
    std::vector<egress_port> ports;
    // pid -> (arrival time, ingress port) while the packet sits in a queue.
    // Lookup-only by contract: entries are found and erased by pid, never
    // traversed, so the unordered container cannot leak iteration order
    // into results (the dqn-unordered-iteration check enforces this).
    std::unordered_map<std::uint64_t, std::pair<double, std::size_t>> pending;
  };

  // Start a run from an empty network: a fresh clock and event queue, and
  // idle ports with empty queues.
  void reset();
  void receive(topo::node_id node, std::size_t in_port, const traffic::packet& pkt);
  void try_transmit(topo::node_id node, std::size_t port);

  const topo::topology* topo_;
  const topo::routing* routes_;
  network_config config_;
  simulator sim_;
  std::vector<device_state> devices_;  // indexed by node id (hosts included)
  // Send time by injection index (traffic::packet::send_index), filled
  // during injection and read per delivery.
  std::vector<double> send_times_;
  run_result result_;
};

}  // namespace dqn::des
