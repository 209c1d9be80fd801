#include "des/network.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>

#include "obs/scoped_timer.hpp"
#include "obs/sink.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace dqn::des {

namespace {

// Hosts always use a plain FIFO NIC regardless of the switch TM.
tm_config host_tm(const tm_config& base) {
  tm_config cfg;
  cfg.kind = scheduler_kind::fifo;
  cfg.classes = 1;
  cfg.buffer_packets = base.buffer_packets;
  return cfg;
}

}  // namespace

network::network(const topo::topology& topo, const topo::routing& routes,
                 network_config config)
    : topo_{&topo}, routes_{&routes}, config_{std::move(config)} {
  for (const topo::node_id host : topo.hosts())
    DQN_ENSURE(topo.port_count(host) == 1, "network: host ",
               topo.at(host).name, " has ", topo.port_count(host),
               " links; every host needs exactly one");
  for (const auto& entry : config_.tm_overrides) {
    const topo::node_id node = entry.first;
    DQN_ENSURE(node >= 0 && static_cast<std::size_t>(node) < topo.node_count(),
               "network: tm_overrides names node ", node,
               ", outside the topology (", topo.node_count(), " nodes)");
    DQN_ENSURE(topo.at(node).kind != topo::node_kind::host,
               "network: tm_overrides names node ", node, " (",
               topo.at(node).name, "), a host; a host NIC is always FIFO");
  }
}

void network::reset() {
  sim_ = simulator{};
  devices_.assign(topo_->node_count(), device_state{});
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const auto id = static_cast<topo::node_id>(i);
    const auto& node = topo_->at(id);
    auto& state = devices_[i];
    state.ports.reserve(node.links.size());
    const tm_config* node_tm = &config_.tm;
    if (const auto it = config_.tm_overrides.find(id);
        it != config_.tm_overrides.end())
      node_tm = &it->second;
    for (std::size_t port = 0; port < node.links.size(); ++port) {
      const auto& link = topo_->link_at(node.links[port]);
      const auto peer = topo_->peer_of(id, port);
      egress_port ep{
          traffic_manager{node.kind == topo::node_kind::host ? host_tm(config_.tm)
                                                             : *node_tm},
          false, link.bandwidth_bps, link.propagation_delay, peer.node, peer.port};
      state.ports.push_back(std::move(ep));
    }
  }
}

void network::receive(topo::node_id node, std::size_t in_port,
                      const traffic::packet& pkt) {
  const auto& info = topo_->at(node);
  if (info.kind == topo::node_kind::host) {
    if (pkt.dst_host == node) {
      delivery_record d;
      d.pid = pkt.pid;
      d.flow_id = pkt.flow_id;
      d.src = pkt.src_host;
      d.dst = pkt.dst_host;
      d.send_time = send_times_[pkt.send_index];
      d.delivery_time = sim_.now();
      result_.deliveries.push_back(d);
    }
    // Packets reaching a foreign host are dropped silently; shortest-path
    // routing never produces them.
    return;
  }
  auto& state = devices_[static_cast<std::size_t>(node)];
  const std::size_t out_port = routes_->egress_port(node, pkt.dst_host, pkt.flow_id);
  auto& port = state.ports[out_port];
  if (!port.tm.enqueue(pkt)) {
    ++result_.drops;
    return;
  }
  state.pending.emplace(pkt.pid, std::make_pair(sim_.now(), in_port));
  if (!port.busy) try_transmit(node, out_port);
}

void network::try_transmit(topo::node_id node, std::size_t port_index) {
  auto& state = devices_[static_cast<std::size_t>(node)];
  auto& port = state.ports[port_index];
  if (port.busy) return;
  auto pkt = port.tm.dequeue();
  if (!pkt) return;
  port.busy = true;
  const double now = sim_.now();

  if (topo_->at(node).kind == topo::node_kind::device) {
    const auto it = state.pending.find(pkt->pid);
    DQN_INVARIANT(it != state.pending.end(),
                  "network: dequeued packet ", pkt->pid,
                  " without pending record at node ", node);
    if (config_.record_hops) {
      hop_record h;
      h.pid = pkt->pid;
      h.flow_id = pkt->flow_id;
      h.device = node;
      h.in_port = it->second.second;
      h.out_port = port_index;
      h.arrival = it->second.first;
      h.departure = now;
      h.size_bytes = pkt->size_bytes;
      h.priority = pkt->priority;
      h.weight = pkt->weight;
      h.protocol = pkt->protocol;
      result_.hops.push_back(h);
    }
    state.pending.erase(it);
  }

  const double tx_time = static_cast<double>(pkt->size_bytes) * 8.0 / port.bandwidth_bps;
  const auto peer = port.peer;
  const auto peer_port = port.peer_port;
  const traffic::packet delivered = *pkt;
  // Line frees after serialization; the packet lands after propagation.
  sim_.schedule_in(tx_time, [this, node, port_index] {
    devices_[static_cast<std::size_t>(node)].ports[port_index].busy = false;
    try_transmit(node, port_index);
  });
  sim_.schedule_in(tx_time + port.propagation_delay,
                   [this, peer, peer_port, delivered] {
                     receive(peer, peer_port, delivered);
                   });
}

run_result network::run(const std::vector<traffic::packet_stream>& host_streams,
                        double horizon) {
  const auto hosts = topo_->hosts();
  DQN_ENSURE(host_streams.size() == hosts.size(),
             "network::run: one stream per host required (got ",
             host_streams.size(), " streams for ", hosts.size(), " hosts)");
  DQN_ENSURE(std::isfinite(horizon) && horizon > 0,
             "network::run: horizon must be finite and > 0 (got ", horizon,
             ")");
  reset();
  util::stopwatch watch;
  result_ = {};
  send_times_.clear();

  // Each injected packet takes the next index into send_times_, which
  // receive() reads back per delivery.
  rising_pids pids;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const topo::node_id host = hosts[i];
    double previous_send = -std::numeric_limits<double>::infinity();
    for (const auto& ev : host_streams[i]) {
      DQN_ENSURE(ev.time >= previous_send, "network::run: host ", i,
                 " stream goes back in time at pid ", ev.pkt.pid);
      previous_send = ev.time;
      if (ev.time > horizon) break;
      DQN_ENSURE(
          send_times_.size() <= std::numeric_limits<std::uint32_t>::max(),
          "network::run: the injected packets overflow the 32-bit send "
          "index");
      pids.add(ev.pkt.pid);
      traffic::packet pkt = ev.pkt;
      pkt.send_index = static_cast<std::uint32_t>(send_times_.size());
      send_times_.push_back(ev.time);
      // Streams address hosts by index among topo.hosts(); translate both
      // endpoints to topology node ids.
      pkt.src_host = host;
      DQN_ENSURE(pkt.dst_host >= 0 &&
                     static_cast<std::size_t>(pkt.dst_host) < hosts.size(),
                 "network::run: dst_host ", pkt.dst_host, " out of range for ",
                 hosts.size(), " hosts (pid ", pkt.pid, ")");
      pkt.dst_host = hosts[static_cast<std::size_t>(pkt.dst_host)];
      sim_.schedule_at(ev.time, [this, host, pkt] {
        // Host NIC: enqueue on the single uplink port.
        auto& state = devices_[static_cast<std::size_t>(host)];
        if (!state.ports[0].tm.enqueue(pkt)) {
          ++result_.drops;
          return;
        }
        if (!state.ports[0].busy) try_transmit(host, 0);
      });
    }
  }

  // Pids that rise in injection order are distinct; only other input pays
  // for the sort that finds a duplicate.
  if (!pids.rising) {
    const std::optional<std::uint64_t> duplicate =
        duplicate_pid(host_streams, horizon);
    DQN_ENSURE(!duplicate.has_value(), "network::run: pid ", *duplicate,
               " injected twice");
  }

  // Drain: generous allowance for queued packets to leave the network.
  {
    // Live event counting through a handle (lock-free per event) instead of
    // a one-shot count at the end; the handle is re-installed per run so a
    // run_request's sink override takes effect.
    sim_.set_event_counter(config_.sink != nullptr
                               ? config_.sink->counter_handle_for("des.events")
                               : obs::counter_handle{});
    obs::scoped_timer timer{config_.sink, "des", "run"};
    sim_.run(horizon * 1.5 + 1.0);
    sim_.set_event_counter({});
  }
  result_.events = sim_.events_processed();
  std::sort(result_.deliveries.begin(), result_.deliveries.end(),
            [](const delivery_record& a, const delivery_record& b) {
              if (a.delivery_time != b.delivery_time)
                return a.delivery_time < b.delivery_time;
              return a.pid < b.pid;
            });
  result_.wall_seconds = watch.elapsed_seconds();
  if (config_.sink != nullptr) {
    obs::sink& sink = *config_.sink;
    sink.count("des.drops", static_cast<double>(result_.drops));
    sink.count("des.deliveries", static_cast<double>(result_.deliveries.size()));
    sink.count("des.hops", static_cast<double>(result_.hops.size()));
    sink.gauge("des.max_heap_depth", static_cast<double>(sim_.max_queue_depth()));
    sink.observe("des.wall_seconds", result_.wall_seconds);
  }
  return std::move(result_);
}

run_result network::run(const run_request& request) {
  DQN_ENSURE(request.host_streams != nullptr,
             "network::run: request.host_streams is null");
  obs::sink* const saved = config_.sink;
  if (request.sink != nullptr) config_.sink = request.sink;
  try {
    run_result result = run(*request.host_streams, request.horizon);
    config_.sink = saved;
    return result;
  } catch (...) {
    config_.sink = saved;
    throw;
  }
}

}  // namespace dqn::des
