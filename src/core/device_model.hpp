// The DeepQueueNet device model (Figure 4): PFM routes each ingress packet
// to its egress queue exactly; the PTM adds a predicted sojourn to every
// packet; the link model (Eq. 5) adds serialization + propagation. These are
// the "operators" the network model composes (§3.2.3).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/delay_provider.hpp"
#include "core/features.hpp"
#include "core/pfm.hpp"
#include "core/ptm.hpp"
#include "obs/handles.hpp"
#include "traffic/packet.hpp"

namespace dqn::obs {
class journey_tracer;
class sink;
}  // namespace dqn::obs

namespace dqn::core {

// One packet's predicted passage through a device (the DQN analogue of a
// des::hop_record; gives the packet-level visibility of §1).
struct predicted_hop {
  std::uint64_t pid = 0;
  std::size_t out_port = 0;
  double arrival = 0;    // at the egress queue
  double departure = 0;  // arrival + predicted sojourn
};

// Optional per-packet journey capture for process(): when `tracer` is
// non-null, every sampled packet's hop through this device is recorded
// (upserted, so IRSA re-runs overwrite with the converged value) with its
// PFM queue choice, pre-SEC PTM sojourn, and final corrected delay.
struct journey_capture {
  obs::journey_tracer* tracer = nullptr;
  std::int64_t device = -1;  // topology node id recorded with each hop
};

// The arguments of one device_model::process_queue call besides the queue
// itself. The caller resolves them once: the counter handles per run, the
// rest per device or per queue. Every pointer may be null (that output or
// hook is off), and default handles record nothing.
struct queue_call {
  bool apply_sec = true;
  std::vector<predicted_hop>* hops = nullptr;       // appended per kept packet
  std::vector<traffic::packet>* dropped = nullptr;  // appended per drop
  const journey_capture* journeys = nullptr;
  obs::counter_handle forwarded;  // pfm.forwarded: packets offered to the queue
  obs::counter_handle drops;      // pfm.drops
  nn::workspace* workspace = nullptr;
  delay_provider* delay = nullptr;
  std::int64_t device_id = -1;  // -1 = host NIC
  std::size_t iteration = 0;
};

class device_model {
 public:
  // The PTM is shared: one trained K-port model serves every device whose
  // degree is <= K (§6.1).
  device_model(std::shared_ptr<const ptm_model> ptm, scheduler_context ctx);

  // ingress[i]: time-ordered stream at ingress port i. Returns egress
  // streams ordered by predicted departure time. `hops`, if non-null,
  // receives the per-packet predictions; `dropped`, if non-null, receives
  // the packets the drop model discarded (scheduler_context::buffer_bytes).
  // `port_bandwidths`, when it has one entry per port, overrides the
  // context's uniform line rate for each egress port (heterogeneous links);
  // it feeds the unfinished-work feature, the drop replay, and the
  // feasibility projection. `journeys` opts sampled packets into per-hop
  // journey tracing (see journey_capture); `sink` records PFM/drop counters
  // through lock-free handles — both default to off and cost one branch.
  // `workspace`, if non-null, is the caller-owned inference arena handed to
  // every PTM predict call (one per worker thread; the engine reuses it
  // across devices and IRSA iterations so steady state allocates nothing).
  // Null falls back to the PTM's thread_local workspace.
  //
  // `delay` selects the sojourn backend (delay_provider.hpp): the engine
  // passes its configured provider; null falls back to this model's own PTM
  // backend (the pre-redesign behaviour). `device_id`/`iteration` identify
  // the call for the provider's per-device tiering state (-1 = host NIC).
  //
  // process() forwards the ingress once (PFM) and runs process_queue on
  // every egress port in port order.
  [[nodiscard]] std::vector<traffic::packet_stream> process(
      const std::vector<traffic::packet_stream>& ingress, const forward_fn& forward,
      bool apply_sec = true, std::vector<predicted_hop>* hops = nullptr,
      std::vector<traffic::packet>* dropped = nullptr,
      std::span<const double> port_bandwidths = {},
      const journey_capture* journeys = nullptr,
      obs::sink* sink = nullptr,
      nn::workspace* workspace = nullptr,
      delay_provider* delay = nullptr,
      std::int64_t device_id = -1,
      std::size_t iteration = 0) const;

  // One egress queue: `queue` is the time-ordered arrival series the PFM
  // forwarded to egress `port` (apply_forwarding's stream for that port),
  // drained at `line_bps`. Runs the drop-tail replay, the sojourn backend,
  // the strict-priority clamp and the feasibility projection, and returns
  // the port's egress stream in (departure time, pid) order. The engine
  // calls this directly, so it can infer a device's queues in separate IRSA
  // stages.
  [[nodiscard]] traffic::packet_stream process_queue(traffic::packet_stream queue,
                                                     std::size_t port,
                                                     double line_bps,
                                                     const queue_call& call) const;

  [[nodiscard]] const scheduler_context& context() const noexcept { return ctx_; }

 private:
  // Fallback backend when process() receives no provider: the shared PTM
  // behind the classic interface. Providers carry per-call metric state, so
  // the member is mutable; estimate_sojourn on the PTM backend is
  // thread-safe (the handles record through relaxed atomics).
  mutable ptm_delay_provider fallback_;
  scheduler_context ctx_;
};

// Link device (Eq. 5) for one packet: the time `ev` reaches the far end of
// the link, tau_out = tau_in + (len/C + l/c). apply_link and the engine's
// fused device visit both shift through this one expression, so they agree
// bit for bit.
[[nodiscard]] inline double link_shift(const traffic::packet_event& ev,
                                       double bandwidth_bps,
                                       double propagation_delay) noexcept {
  return ev.time +
         (static_cast<double>(ev.pkt.size_bytes) * 8.0 / bandwidth_bps +
          propagation_delay);
}

// Link device (Eq. 5) over a stream, re-sorted by (time, pid). The reference
// path: the engine fuses the shift into its PFM pass instead of copying.
[[nodiscard]] traffic::packet_stream apply_link(const traffic::packet_stream& in,
                                                double bandwidth_bps,
                                                double propagation_delay);

}  // namespace dqn::core
