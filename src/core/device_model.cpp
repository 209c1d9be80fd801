#include "core/device_model.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/journey.hpp"
#include "obs/sink.hpp"
#include "util/annotations.hpp"
#include "util/check.hpp"

namespace dqn::core {

namespace {

// Per-packet steady-state kernels of device_model::process_queue, which
// itself stages buffers (feature rows, sojourn vectors, egress streams) and
// so cannot be allocation-free; the per-packet arithmetic it runs over those
// pre-sized buffers lives here, where DQN_HOT_PATH holds (ast_lint.py rule:
// no allocation, no string-keyed obs inside marked bodies).

// Strict-priority prior bound: clamp each class-0 sojourn into
// [W_0, W_0 + max_packet * 8 / C] (rows is the flattened feature matrix).
DQN_HOT_PATH void clamp_sp_waits(const traffic::packet_stream& queue,
                                 const std::vector<double>& rows,
                                 std::vector<double>& sojourns,
                                 double line_bps) noexcept {
  const double residual_service_bound = 1600.0 * 8.0 / line_bps;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    if (queue[i].pkt.priority != 0) continue;
    const double w0 = rows[i * feature_count + f_own_class_work];
    sojourns[i] = std::clamp(sojourns[i], w0, w0 + residual_service_bound);
  }
}

// Feasibility projection along the transmission order: successive starts are
// at least one service time apart while the line is busy; predictions only
// move later. departures is pre-sized to queue.size() by the caller.
DQN_HOT_PATH void project_departures(const traffic::packet_stream& queue,
                                     const std::vector<double>& sojourns,
                                     const std::vector<std::size_t>& tx_order,
                                     std::vector<double>& departures,
                                     double line_bps) noexcept {
  double line_free_at = 0;
  for (const std::size_t i : tx_order) {
    const double arrival = queue[i].time;
    const double departure =
        std::max(arrival + sojourns[i], std::max(arrival, line_free_at));
    departures[i] = departure;
    line_free_at = departure + static_cast<double>(queue[i].pkt.size_bytes) *
                                   8.0 / line_bps;
  }
}

}  // namespace

device_model::device_model(std::shared_ptr<const ptm_model> ptm, scheduler_context ctx)
    : ptm_{std::move(ptm)}, ctx_{std::move(ctx)} {}

std::vector<traffic::packet_stream> device_model::process(
    const std::vector<traffic::packet_stream>& ingress, const forward_fn& forward,
    bool apply_sec, std::vector<predicted_hop>* hops,
    std::vector<traffic::packet>* dropped,
    std::span<const double> port_bandwidths, const journey_capture* journeys,
    obs::sink* sink, nn::workspace* workspace, delay_provider* delay,
    std::int64_t device_id, std::size_t iteration) const {
  const std::size_t ports = ingress.size();
  // PFM: exact forwarding into per-egress-queue arrival series.
  std::vector<traffic::packet_stream> queues =
      apply_forwarding(ingress, forward, ports);
  queue_call call;
  call.apply_sec = apply_sec;
  call.hops = hops;
  call.dropped = dropped;
  call.journeys = journeys;
  if (sink != nullptr) {
    call.forwarded = sink->counter_handle_for("pfm.forwarded");
    call.drops = sink->counter_handle_for("pfm.drops");
  }
  call.workspace = workspace;
  // Without a provider, the shared PTM (throws if it is null or untrained).
  std::optional<ptm_delay_provider> fallback;
  if (delay == nullptr) delay = &fallback.emplace(ptm_);
  call.delay = delay;
  call.device_id = device_id;
  call.iteration = iteration;
  std::vector<traffic::packet_stream> egress(ports);
  for (std::size_t out = 0; out < ports; ++out) {
    const double line_bps = port_bandwidths.size() == ports
                                ? port_bandwidths[out]
                                : ctx_.bandwidth_bps;
    egress[out] = process_queue(std::move(queues[out]), out, line_bps, call);
  }
  return egress;
}

traffic::packet_stream device_model::process_queue(traffic::packet_stream queue,
                                                   std::size_t port,
                                                   double line_bps,
                                                   const queue_call& call) const {
  DQN_ENSURE(call.delay != nullptr,
             "device_model::process_queue: queue_call::delay is required");
  if (queue.empty()) return queue;
  // Local copies: recording through a handle is non-const.
  obs::counter_handle forwarded = call.forwarded;
  obs::counter_handle drops = call.drops;
  forwarded.add(static_cast<double>(queue.size()));
  const journey_capture* const journeys = call.journeys;
  obs::journey_tracer* const tracer =
      (journeys != nullptr && journeys->tracer != nullptr &&
       journeys->tracer->enabled())
          ? journeys->tracer
          : nullptr;

  // Buffer management (drop-tail): the queue's byte backlog at each
  // arrival is an exact function of the ingress series (Lindley
  // recursion), so drops are decided deterministically — no learning
  // involved, like the PFM. Dropped packets leave the stream (their
  // latency is +inf).
  if (ctx_.buffer_bytes > 0) {
    // Exact FIFO drop-tail replay over the arrival series: track each kept
    // packet's (service start, service end) on the egress line and the
    // bytes waiting (excluding the packet in service, matching the DES
    // traffic manager's accounting). Deterministic, like the PFM.
    struct in_system_packet {
      double start, end;
      std::uint32_t bytes;
    };
    traffic::packet_stream kept;
    kept.reserve(queue.size());
    std::deque<in_system_packet> in_system;
    double bytes_in_system = 0;
    double last_end = 0;
    for (const auto& ev : queue) {
      while (!in_system.empty() && in_system.front().end <= ev.time) {
        bytes_in_system -= in_system.front().bytes;
        in_system.pop_front();
      }
      // FIFO: only the head can be in service; everything behind waits.
      const double in_service_bytes =
          (!in_system.empty() && in_system.front().start <= ev.time)
              ? in_system.front().bytes
              : 0.0;
      const double waiting_bytes = bytes_in_system - in_service_bytes;
      if (waiting_bytes + ev.pkt.size_bytes >
          static_cast<double>(ctx_.buffer_bytes)) {
        if (call.dropped != nullptr) call.dropped->push_back(ev.pkt);
        drops.add();
        continue;
      }
      const double service =
          static_cast<double>(ev.pkt.size_bytes) * 8.0 / line_bps;
      const double start = std::max(ev.time, last_end);
      last_end = start + service;
      in_system.push_back({start, last_end, ev.pkt.size_bytes});
      bytes_in_system += ev.pkt.size_bytes;
      kept.push_back(ev);
    }
    queue = std::move(kept);
    if (queue.empty()) return queue;
  }
  // Sojourn prediction over the arrival series, dispatched through the
  // delay-provider API (delay_provider.hpp): the caller's backend
  // (PTM / analytical / tiered) sees the full device state and returns one
  // sojourn per queued packet.
  scheduler_context port_ctx = ctx_;
  port_ctx.bandwidth_bps = line_bps;
  const auto rows = compute_features(queue, port_ctx);
  std::vector<double> raw_sojourns;
  std::vector<double>* const raw = tracer != nullptr ? &raw_sojourns : nullptr;
  const double window_seconds = queue.back().time - queue.front().time;

  device_state dstate;
  dstate.device = call.device_id;
  dstate.port = port;
  dstate.iteration = call.iteration;
  dstate.arrivals = &queue;
  dstate.feature_rows = rows;
  dstate.ctx = &port_ctx;
  dstate.apply_sec = call.apply_sec;
  dstate.workspace = call.workspace;
  dstate.raw_out = raw;
  auto sojourns = call.delay->estimate_sojourn(dstate, window_seconds);
  DQN_ENSURE(sojourns.size() == queue.size(), "device_model: provider '",
             call.delay->name(), "' returned ", sojourns.size(),
             " sojourns for ", queue.size(), " packets");

  // Scheduler-theoretic bound (prior knowledge, like the PFM): under
  // non-preemptive strict priority, the highest class waits exactly its
  // own-class backlog plus at most one residual lower-priority service:
  //   W_0 <= sojourn <= W_0 + max_packet * 8 / C.
  if (ctx_.kind == des::scheduler_kind::sp)
    clamp_sp_waits(queue, rows, sojourns, line_bps);

  // Post-PTM feasibility projection: the egress line serialises packets,
  // so successive transmission starts are at least one service time apart
  // while the line is busy. The constraint applies in *transmission*
  // order — which under SP/WFQ differs from arrival order (high-priority
  // packets jump the queue) — so project along the predicted-departure
  // ordering. Pushing predictions later (never earlier) removes
  // per-packet noise no physical line could produce — the same
  // prior-knowledge principle as the PFM.
  std::vector<std::size_t> tx_order(queue.size());
  for (std::size_t i = 0; i < tx_order.size(); ++i) tx_order[i] = i;
  if (ctx_.kind != des::scheduler_kind::fifo) {
    // Under FIFO the transmission order *is* the arrival order (already
    // the case), and keeping it makes the projection an exact FIFO
    // replay; for the other disciplines the predicted departures define
    // the order.
    std::sort(tx_order.begin(), tx_order.end(),
              [&](std::size_t a, std::size_t b) {
                const double da = queue[a].time + sojourns[a];
                const double db = queue[b].time + sojourns[b];
                if (da != db) return da < db;
                return queue[a].pkt.pid < queue[b].pkt.pid;
              });
  }
  std::vector<double> departures(queue.size());
  project_departures(queue, sojourns, tx_order, departures, line_bps);
  // Re-sequencing: egress streams are time series again (§3.2.4). The
  // projection starts each departure at or after the end of the previous
  // one in transmission order, so the stream built in that order is
  // already in (time, pid) order. Only a service time below the
  // timestamps' ulp can tie two departures out of pid order, and the sort
  // covers that case.
  traffic::packet_stream out_stream;
  out_stream.reserve(queue.size());
  for (const std::size_t i : tx_order)
    out_stream.push_back({queue[i].pkt, departures[i]});
  if (!std::is_sorted(out_stream.begin(), out_stream.end()))
    std::sort(out_stream.begin(), out_stream.end());
  for (std::size_t i = 0; i < queue.size(); ++i) {
    if (call.hops != nullptr)
      call.hops->push_back({queue[i].pkt.pid, port, queue[i].time, departures[i]});
    if (tracer != nullptr && tracer->sampled(queue[i].pkt.pid)) {
      obs::journey_hop hop;
      hop.device = journeys->device;
      hop.queue = port;
      hop.arrival = queue[i].time;
      hop.raw_delay = raw_sojourns[i];
      hop.corrected_delay = departures[i] - queue[i].time;
      hop.departure = departures[i];
      tracer->record_hop(queue[i].pkt.pid, hop);
    }
  }
  return out_stream;
}

traffic::packet_stream apply_link(const traffic::packet_stream& in,
                                  double bandwidth_bps, double propagation_delay) {
  if (bandwidth_bps <= 0)
    throw std::invalid_argument{"apply_link: bandwidth must be > 0"};
  traffic::packet_stream out;
  out.reserve(in.size());
  for (const auto& ev : in)
    out.push_back({ev.pkt, link_shift(ev, bandwidth_bps, propagation_delay)});
  // A constant-per-size shift can reorder mixed-size packets.
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dqn::core
