#include "core/engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "nn/kernels/gemm.hpp"
#include "nn/workspace.hpp"
#include "obs/journey.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "topo/queue_graph.hpp"
#include "topo/sharding.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace dqn::core {

namespace {

// Whether an egress queue's new stream differs from its previous one by any
// bit: a packet, the order or a time.
bool stream_moved(const traffic::packet_stream& a,
                  const traffic::packet_stream& b) {
  if (a.size() != b.size()) return true;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].pkt.pid != b[i].pkt.pid ||
        std::bit_cast<std::uint64_t>(a[i].time) !=
            std::bit_cast<std::uint64_t>(b[i].time))
      return true;
  return false;
}

// Pool seeds for `tasks` tasks: contiguous blocks, one per worker.
std::vector<std::vector<std::size_t>> spread(std::size_t tasks,
                                             std::size_t workers) {
  std::vector<std::vector<std::size_t>> seeds(workers);
  for (std::size_t t = 0; t < tasks; ++t)
    seeds[t * workers / tasks].push_back(t);
  return seeds;
}

// One device's state in the current IRSA round, kept until the round's
// barrier. The device pass fills `queues` and `run_starts`; each queue task
// then writes only its own port's element of `streams`, `port_moved` and
// `queue_seconds`. Only the ports whose queues run this round are written.
struct staged_slot {
  // Per egress port: the arrivals the device pass routed to it, moved on to
  // process_queue.
  std::vector<traffic::packet_stream> queues;
  // Per egress port, ports + 1 offsets into its queue: where each ingress
  // port's run starts, then the queue's size.
  std::vector<std::size_t> run_starts;
  std::vector<traffic::packet_stream> streams;
  std::vector<std::uint8_t> port_moved;  // per egress port: stream_moved
  std::vector<double> queue_seconds;     // per egress port: task CPU time
  double device_seconds = 0;             // the device pass's span time
  bool inferred = false;
};

// One egress queue: device `node`'s port `port`.
struct egress_queue {
  topo::node_id node;
  std::size_t port;
};

// Marks a feed packet the device pass routes to a queue that does not run
// this round.
constexpr std::uint32_t not_run = std::numeric_limits<std::uint32_t>::max();

// Queue-pass seeds, longest first (LPT): deals the tasks in descending
// size, ties by task index, each to the worker with the least load so far,
// ties by worker index. A worker pops its largest queues first, and a thief
// steals the smallest from the back. `order` and `load` are scratch.
void deal_longest_first(std::span<const std::size_t> sizes,
                        std::vector<std::size_t>& order,
                        std::vector<std::size_t>& load,
                        std::vector<std::vector<std::size_t>>& seeds) {
  order.resize(sizes.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&sizes](std::size_t a, std::size_t b) {
    if (sizes[a] != sizes[b]) return sizes[a] > sizes[b];
    return a < b;
  });
  load.assign(seeds.size(), 0);
  for (auto& seed : seeds) seed.clear();
  for (const std::size_t task : order) {
    const auto w = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    seeds[w].push_back(task);
    load[w] += sizes[task];
  }
}

// How many of the first k elements std::merge(a, a + na, b, b + nb) takes
// from `a` (the co-rank of k). Ties go to `a`, as in std::merge.
template <typename T, typename Less>
std::size_t co_rank(const T* a, std::size_t na, const T* b, std::size_t nb,
                    std::size_t k, Less less) {
  std::size_t lo = k > nb ? k - nb : 0;
  std::size_t hi = std::min(k, na);
  while (lo < hi) {
    const std::size_t i = lo + (hi - lo + 1) / 2;
    // Does a[i - 1] come out before b[k - i]?
    if (!less(b[k - i], a[i - 1]))
      lo = i;
    else
      hi = i - 1;
  }
  return lo;
}

// Output positions [lo, hi) of one level of a pairwise merge from `from`
// into `to`. Run r is [starts[r], starts[r + 1]); each even run merges with
// the next one at the pair's start, and a last unpaired run is copied. A
// piece that cuts a pair starts and ends at the co-ranks of its cuts (merge
// path), so the pieces of one level can merge at once.
template <typename T, typename Less>
void merge_level_piece(const T* from, T* to,
                       std::span<const std::size_t> starts, std::size_t lo,
                       std::size_t hi, Less less) {
  const std::size_t count = starts.size() - 1;
  for (std::size_t r = 0; r < count; r += 2) {
    const std::size_t first = starts[r];
    const std::size_t last = starts[std::min(r + 2, count)];
    if (last <= lo) continue;
    if (first >= hi) break;
    const std::size_t begin = std::max(first, lo);
    const std::size_t end = std::min(last, hi);
    if (r + 1 == count) {
      std::copy(from + begin, from + end, to + begin);
      continue;
    }
    const T* a = from + first;
    const T* b = from + starts[r + 1];
    const std::size_t na = starts[r + 1] - first;
    const std::size_t nb = last - starts[r + 1];
    const std::size_t a0 = co_rank(a, na, b, nb, begin - first, less);
    const std::size_t a1 = co_rank(a, na, b, nb, end - first, less);
    std::merge(a + a0, a + a1, b + (begin - first - a0),
               b + (end - first - a1), to + begin, less);
  }
}

// Merges the ordered runs of `data`, [starts[r], starts[r + 1]), into one
// ordered sequence in `data`: adjacent runs merge pairwise, level by level,
// between `data` and `spare`, and the two vectors swap when the last level
// lands in `spare`. `merge_level(from, to, starts)` runs one level, for
// example as merge_level_piece over the whole output. Empty runs are
// dropped first. `starts` and `spare` come back overwritten.
template <typename T, typename Level>
void merge_levels(std::vector<T>& data, std::vector<T>& spare,
                  std::span<std::size_t> starts, Level&& merge_level) {
  std::size_t count = 0;
  for (std::size_t r = 0; r + 1 < starts.size(); ++r)
    if (starts[r] != starts[r + 1]) starts[count++] = starts[r];
  starts[count] = data.size();
  if (count <= 1) return;
  spare.resize(data.size());
  T* from = data.data();
  T* to = spare.data();
  while (count > 1) {
    merge_level(static_cast<const T*>(from), to, starts.first(count + 1));
    std::size_t kept = 0;
    for (std::size_t r = 0; r < count; r += 2) starts[kept++] = starts[r];
    starts[kept] = data.size();
    count = kept;
    std::swap(from, to);
  }
  if (from != data.data()) std::swap(data, spare);
}

// Puts `queue` in (time, pid) order. Its run r is queue[starts[r],
// starts[r + 1]) and is normally ordered already; the runs then merge
// (merge_levels) on this thread. If a run is out of order, the queue is
// sorted instead. Pids are unique, so either way the result is the one
// std::sort gives.
void merge_runs(traffic::packet_stream& queue, std::span<std::size_t> starts,
                traffic::packet_stream& spare) {
  const auto at = [&queue](std::size_t offset) {
    return queue.begin() + static_cast<std::ptrdiff_t>(offset);
  };
  for (std::size_t r = 0; r + 1 < starts.size(); ++r) {
    if (!std::is_sorted(at(starts[r]), at(starts[r + 1]))) {
      std::sort(queue.begin(), queue.end());
      return;
    }
  }
  merge_levels(queue, spare, starts,
               [](const traffic::packet_event* from, traffic::packet_event* to,
                  std::span<const std::size_t> level) {
                 merge_level_piece(from, to, level, 0, level.back(),
                                   std::less<>{});
               });
}

}  // namespace

void engine_stats::publish(obs::sink& sink) const {
  sink.count("engine.iterations", static_cast<double>(iterations));
  sink.count("engine.device_inferences", static_cast<double>(device_inferences));
  sink.count("engine.devices_skipped", static_cast<double>(devices_skipped));
  sink.count("engine.steals", static_cast<double>(steals));
  sink.gauge("engine.workers", static_cast<double>(workers));
  sink.gauge("engine.cross_shard_links", static_cast<double>(cross_shard_links));
  sink.gauge("engine.wall_seconds", wall_seconds);
  sink.gauge("engine.busy_seconds", busy_seconds);
  sink.gauge("engine.critical_path_seconds", critical_path_seconds);
  sink.gauge("engine.shard_imbalance", shard_imbalance);
}

dqn_network::dqn_network(const topo::topology& topo, const topo::routing& routes,
                         std::shared_ptr<const ptm_model> ptm, scheduler_context ctx,
                         engine_config config)
    : topo_{&topo},
      routes_{&routes},
      provider_{make_delay_provider(std::move(ptm), config.delay)},
      device_{nullptr, std::move(ctx)},
      host_nic_{nullptr,
                scheduler_context{des::scheduler_kind::fifo, {},
                                  device_.context().bandwidth_bps}},
      config_{config},
      queue_graph_{topo, routes},
      queue_stage_(queue_graph_.queue_count(), 0) {
  DQN_ENSURE(config_.partitions > 0, "dqn_network: partitions >= 1");
  const auto hosts = topo.hosts();
  for (const topo::node_id host : hosts)
    DQN_ENSURE(topo.port_count(host) == 1, "dqn_network: host ",
               topo.at(host).name, " has ", topo.port_count(host),
               " links; every host needs exactly one");
  const auto devices = topo.devices();
  // Algorithm 1 is every queue in one stage; the ordered schedule runs one
  // stage per level of the graph.
  std::size_t stage_count = 1;
  if (config_.irsa_skip_unchanged) {
    for (const topo::node_id node : devices)
      for (std::size_t p = 0; p < topo.port_count(node); ++p)
        queue_stage_[queue_graph_.queue_index(node, p)] =
            static_cast<std::uint32_t>(queue_graph_.level_of(node, p));
    stage_count = queue_graph_.level_count();
  }

  // Shard the devices across the workers: BFS-grown connected shards keep
  // boundary windows mostly worker-local. The shard only decides where a
  // device runs, never a result.
  const std::size_t workers =
      std::max<std::size_t>(1, std::min(config_.partitions, devices.size()));
  const topo::shard_plan plan = topo::shard_devices(
      topo, devices, workers, topo::shard_strategy::topology);
  cross_shard_links_ = plan.cross_shard_links;
  // Per stage, chop each shard's devices that own a queue of the stage into
  // contiguous batches; ~4 batches per worker keeps rebalancing possible
  // without measurable deque traffic.
  stages_.resize(stage_count);
  for (std::size_t stage = 0; stage < stages_.size(); ++stage) {
    stage_plan& sp = stages_[stage];
    std::vector<std::vector<std::size_t>> members(plan.shards.size());
    for (std::size_t s = 0; s < plan.shards.size(); ++s) {
      for (const std::size_t d : plan.shards[s]) {
        for (std::size_t p = 0; p < topo.port_count(devices[d]); ++p) {
          if (queue_stage_[queue_graph_.queue_index(devices[d], p)] != stage)
            continue;
          members[s].push_back(d);
          sp.nodes.push_back(devices[d]);
          break;
        }
      }
    }
    const std::size_t batch_size =
        std::max<std::size_t>(1, sp.nodes.size() / (workers * 4));
    max_batch_ = std::max(max_batch_, batch_size);
    sp.seeds.resize(workers);
    for (std::size_t s = 0; s < members.size(); ++s) {
      const auto& shard = members[s];
      for (std::size_t start = 0; start < shard.size(); start += batch_size) {
        const auto end = std::min(shard.size(), start + batch_size);
        sp.seeds[s].push_back(sp.batches.size());
        sp.batches.emplace_back(
            shard.begin() + static_cast<std::ptrdiff_t>(start),
            shard.begin() + static_cast<std::ptrdiff_t>(end));
      }
    }
  }
  host_seeds_ = spread(hosts.size(), workers);
  shard_labels_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    shard_labels_.push_back("shard_" + std::to_string(w));
  pool_ = std::make_unique<util::work_stealing_pool>(workers);
  scratch_.resize(workers);
}

void dqn_network::set_device_context(topo::node_id node, scheduler_context ctx) {
  if (ran_)
    throw std::logic_error{
        "dqn_network::set_device_context: called after run(); device overrides "
        "must be installed before the first run (they do not apply "
        "retroactively)"};
  DQN_ENSURE(node >= 0 && static_cast<std::size_t>(node) < topo_->node_count(),
             "dqn_network::set_device_context: node ", node,
             " is outside the topology (", topo_->node_count(), " nodes)");
  DQN_ENSURE(topo_->at(node).kind != topo::node_kind::host,
             "dqn_network::set_device_context: node ", node, " (",
             topo_->at(node).name,
             ") is a host; a host NIC is always a FIFO queue");
  device_overrides_.insert_or_assign(node,
                                     device_model{nullptr, std::move(ctx)});
}

des::run_result dqn_network::run(
    const std::vector<traffic::packet_stream>& host_streams, double horizon) {
  return run(
      des::run_request{.host_streams = &host_streams, .horizon = horizon});
}

des::run_result dqn_network::run(const des::run_request& request) {
  DQN_ENSURE(request.host_streams != nullptr,
             "dqn_network::run: request.host_streams is null");
  const auto& host_streams = *request.host_streams;
  const double horizon = request.horizon;
  obs::sink* const sink = request.sink != nullptr ? request.sink : config_.sink;
  delay_provider& provider = *provider_;
  const auto hosts = topo_->hosts();
  const auto devices = topo_->devices();
  DQN_ENSURE(host_streams.size() == hosts.size(),
             "dqn_network::run: one stream per host required (got ",
             host_streams.size(), " streams for ", hosts.size(), " hosts)");
  DQN_ENSURE(std::isfinite(horizon) && horizon > 0,
             "dqn_network::run: horizon must be finite and > 0 (got ", horizon,
             ")");

  util::stopwatch watch;
  stats_ = {};
  ran_ = true;
  obs::scoped_timer run_timer{sink, "engine", "run"};
  // Hot-path metrics go through pre-resolved handles (lock-free to record);
  // journey tracing is active only when the sink's tracer was configured.
  obs::histogram_handle device_seconds_handle;
  obs::histogram_handle partition_busy_handle;
  obs::journey_tracer* tracer = nullptr;
  if (sink != nullptr) {
    device_seconds_handle =
        sink->histogram_handle_for("engine.device_infer_seconds");
    partition_busy_handle =
        sink->histogram_handle_for("engine.partition_busy_seconds");
    if (sink->journeys().enabled()) tracer = &sink->journeys();
    // Which GEMM backend this run's inference rides on (selected once at
    // startup; see nn/kernels/gemm.hpp).
    nn::kernels::report_dispatch(*sink);
  }
  // Arm the sojourn backend for this run: resolve its metric handles.
  provider.bind_sink(sink);
  provider.prepare(topo_->node_count());
  // The PFM counters, resolved once: each lookup takes the registry's lock.
  obs::counter_handle forwarded_handle;
  obs::counter_handle drops_handle;
  if (sink != nullptr) {
    forwarded_handle = sink->counter_handle_for("pfm.forwarded");
    drops_handle = sink->counter_handle_for("pfm.drops");
  }

  // The persistent worker pool, and one inference workspace per worker,
  // alive across SInit, devices and IRSA rounds: after the first pass the
  // arenas have grown to their high-water shapes and the PTM forward path
  // stops allocating entirely. Stealing moves a task to another worker's
  // workspace, which only affects arena warmth, never numerics.
  util::work_stealing_pool& pool = *pool_;
  const std::size_t workers = pool.size();
  std::vector<nn::workspace> worker_workspaces(workers);

  // SInit: place the injected streams as the hosts' (fixed) egress streams,
  // translating host indices to node ids. One pool task per host: it writes
  // only its host's egress slot, its host's slice of `send_times` and its
  // own pid tracker. A failed round names the lowest bad host, as a serial
  // loop would.
  obs::scoped_timer sinit_timer{sink, "engine", "sinit"};
  std::vector<std::vector<traffic::packet_stream>> egress(topo_->node_count());
  for (std::size_t i = 0; i < topo_->node_count(); ++i)
    egress[i].resize(topo_->port_count(static_cast<topo::node_id>(i)));
  // Send time by injection index (traffic::packet::send_index): host i's
  // packets take the indices from slice[i] on, in stream order.
  std::vector<std::size_t> slice(hosts.size() + 1, 0);
  for (std::size_t i = 0; i < hosts.size(); ++i)
    slice[i + 1] = slice[i] + host_streams[i].size();
  DQN_ENSURE(slice.back() <= std::numeric_limits<std::uint32_t>::max(),
             "dqn_network::run: ", slice.back(),
             " packets in the host streams overflow the 32-bit send index");
  std::vector<double> send_times(slice.back());
  std::vector<des::rising_pids> host_pids(hosts.size());
  (void)pool.run_round(host_seeds_, [&](std::size_t i, std::size_t worker) {
    auto& out = egress[static_cast<std::size_t>(hosts[i])][0];
    out.reserve(host_streams[i].size());
    double previous_send = -std::numeric_limits<double>::infinity();
    for (const auto& ev : host_streams[i]) {
      DQN_ENSURE(ev.time >= previous_send, "dqn_network::run: host ", i,
                 " stream goes back in time at pid ", ev.pkt.pid);
      previous_send = ev.time;
      if (ev.time > horizon) break;
      traffic::packet pkt = ev.pkt;
      pkt.src_host = hosts[i];
      DQN_ENSURE(pkt.dst_host >= 0 &&
                     static_cast<std::size_t>(pkt.dst_host) < hosts.size(),
                 "dqn_network::run: dst_host ", pkt.dst_host,
                 " out of range for ", hosts.size(), " hosts (pid ", pkt.pid,
                 ")");
      pkt.dst_host = hosts[static_cast<std::size_t>(pkt.dst_host)];
      const std::size_t index = slice[i] + out.size();
      pkt.send_index = static_cast<std::uint32_t>(index);
      send_times[index] = ev.time;
      host_pids[i].add(pkt.pid);
      if (tracer != nullptr && tracer->sampled(pkt.pid))
        tracer->record_send(pkt.pid, pkt.flow_id, ev.time);
      out.push_back({pkt, ev.time});
    }
    if (out.empty()) return;
    // NIC queueing prediction: the host's single FIFO egress queue at the
    // access link's rate, fed in (time, pid) order as the PFM feeds every
    // egress queue. Send times never decrease (checked above), so only
    // equal-time packets out of pid order need the sort.
    if (!std::is_sorted(out.begin(), out.end()))
      std::sort(out.begin(), out.end());
    queue_call call;
    call.apply_sec = config_.apply_sec;
    call.forwarded = forwarded_handle;
    call.drops = drops_handle;
    call.workspace = &worker_workspaces[worker];
    call.delay = &provider;  // device -1 (host NIC), iteration 0
    const double nic_bps =
        topo_->link_at(topo_->at(hosts[i]).links[0]).bandwidth_bps;
    out = host_nic_.process_queue(std::move(out), 0, nic_bps, call);
  });
  // Pids that rise in host order are distinct; only other input pays for
  // the sort that finds a duplicate.
  des::rising_pids pids;
  for (const auto& host : host_pids) pids.append(host);
  if (!pids.rising) {
    const std::optional<std::uint64_t> duplicate =
        des::duplicate_pid(host_streams, horizon);
    DQN_ENSURE(!duplicate.has_value(), "dqn_network::run: pid ", *duplicate,
               " injected twice");
  }
  sinit_timer.stop();

  // Hop records and drops of each egress queue's latest inference,
  // [node][port].
  std::vector<std::vector<std::vector<predicted_hop>>> queue_hops(
      topo_->node_count());
  std::vector<std::vector<std::vector<traffic::packet>>> queue_drops(
      topo_->node_count());
  for (const topo::node_id node : devices) {
    const auto n = static_cast<std::size_t>(node);
    queue_drops[n].resize(topo_->port_count(node));
    if (config_.record_hops) queue_hops[n].resize(topo_->port_count(node));
  }

  stats_.workers = workers;
  stats_.cross_shard_links = cross_shard_links_;

  std::vector<std::size_t> worker_inferences(workers, 0);
  std::vector<std::size_t> worker_skips(workers, 0);
  std::vector<double> worker_busy(workers, 0.0);
  std::vector<std::size_t> worker_tasks(workers, 0);
  if (sink != nullptr)
    sink->gauge("engine.steal_batch_devices", static_cast<double>(max_batch_));
  // Closes the accounting of one pool round of IRSA round `iteration`: its
  // CPU busy time joins the run's and its slowest worker the critical path.
  const auto close_pool_round = [&](std::size_t iteration) {
    double round_max = 0;
    for (std::size_t w = 0; w < workers; ++w) {
      const double busy = worker_busy[w];
      stats_.busy_seconds += busy;
      round_max = std::max(round_max, busy);
      if (sink != nullptr) {
        // One event per (pool round, worker): duration = CPU busy time,
        // value = tasks run (devices or queues inferred).
        sink->event("engine", shard_labels_[w], iteration, sink->now() - busy,
                    busy, static_cast<double>(worker_tasks[w]));
        partition_busy_handle.observe(busy);
      }
    }
    stats_.critical_path_seconds += round_max;
    std::fill(worker_busy.begin(), worker_busy.end(), 0.0);
    std::fill(worker_tasks.begin(), worker_tasks.end(), std::size_t{0});
  };

  // One egress state. During a round every worker reads its devices' feeds
  // in place from `egress` — the previous round's state (Algorithm 1 "pull
  // the packet flows from iteration t-1") — and nobody writes it. An inferred
  // device stages the new streams of the queues it ran in its own `next`
  // slot and records whether each of them moved. Between rounds this thread
  // moves the staged streams into `egress` and marks stale every queue a
  // stream that moved by any bit feeds; the pool's round barriers order the
  // two, so the per-packet path takes no locks. Host egress is fixed, so
  // host ports never move.
  //
  // A queue runs in a round when it is in the round's stage and it is
  // stale: some queue that feeds it, an edge of the queue graph, moved since
  // it last ran. A queue that is not stale has the arrivals of its last run,
  // so process_queue, a pure function of them, would give back its egress,
  // hops and drops bit for bit; they stand.
  //
  // Each IRSA round is two pool rounds. The device pass routes each
  // visited device's feeds into its slot's queues that run; the queue pass
  // then infers every one of those queues as its own task, the stealable
  // unit.
  //
  // Stages run in order, each until none of its queues is stale: then no
  // queue of the stage would change a bit if it ran again, so the stage is
  // at Algorithm 1's fixed point (see the header for why this is reached).
  // A stage's first round infers every queue of the stage. A stage whose
  // queues feed none of its own, every level but a cyclic one, leaves
  // nothing stale in itself and ends after that round.
  std::vector<staged_slot> next(topo_->node_count());
  // Every queue is stale until it first runs, in its stage's first round.
  std::vector<std::uint8_t> stale(queue_graph_.queue_count(), 1);
  // The queue pass's tasks and seeds, rebuilt every round.
  std::vector<egress_queue> queue_tasks;
  std::vector<std::size_t> queue_sizes;
  std::vector<std::vector<std::size_t>> queue_seeds(workers);
  std::vector<std::size_t> deal_order;
  std::vector<std::size_t> deal_load;

  for (std::size_t stage = 0; stage < stages_.size(); ++stage) {
    const stage_plan& sp = stages_[stage];
    // Whether queue q runs when its device is visited in this stage.
    const auto runs = [&](std::size_t q) {
      return queue_stage_[q] == stage && stale[q] != 0;
    };
    std::size_t left_stale = 0;  // queues of the stage a round left stale
    do {
      // Rounds are numbered across stages.
      const std::size_t iteration = stats_.iterations;
      obs::scoped_timer iteration_timer{sink, "engine", "iteration", iteration};

      // Worker spans cannot see the main thread's span stack, so the
      // iteration span's id is passed in as the explicit parent.
      const std::uint64_t iteration_span = iteration_timer.id();
      const util::work_stealing_pool::task_fn device_pass = [&](std::size_t batch,
                                                                std::size_t worker) {
        const double cpu_start = util::thread_cpu_seconds();
        std::vector<std::uint32_t>& routes = scratch_[worker].routes;
        for (const std::size_t d : sp.batches[batch]) {
          const topo::node_id node = devices[d];
          const auto n = static_cast<std::size_t>(node);
          obs::scoped_span device_span{sink,
                                       "engine",
                                       "device",
                                       static_cast<std::uint64_t>(node),
                                       0.0,
                                       iteration_span};
          // A visit with no stale queue of the stage is a skip: the
          // device's egress stands.
          const std::size_t ports = topo_->port_count(node);
          const std::size_t first = queue_graph_.queue_index(node, 0);
          bool any_runs = false;
          for (std::size_t p = 0; p < ports && !any_runs; ++p)
            any_runs = runs(first + p);
          if (!any_runs) {
            ++worker_skips[worker];
            continue;
          }
          // The ingress links (Eq. 5) and the PFM, reading each upstream
          // peer's egress stream in place: shift every packet by its link,
          // route it by its own destination, and keep it only when its
          // egress queue runs this round. Each queue gets one run per
          // ingress port, and a run is in (time, pid) order: the peer's line
          // spaced its departures at least one service time apart, and the
          // link delays each packet by its own service time plus a constant.
          // Merging the runs gives each queue the stream apply_link and then
          // apply_forwarding would give it. A first pass routes every packet
          // and counts the runs, so each queue is reserved at its exact size
          // before the second pass fills it.
          staged_slot& slot = next[n];
          slot.queues.resize(ports);
          slot.run_starts.assign(ports * (ports + 1), 0);
          const auto run_start = [&](std::size_t port,
                                     std::size_t in) -> std::size_t& {
            return slot.run_starts[port * (ports + 1) + in];
          };
          routes.clear();
          for (std::size_t in = 0; in < ports; ++in) {
            const auto peer = topo_->peer_of(node, in);
            for (const auto& ev :
                 egress[static_cast<std::size_t>(peer.node)][peer.port]) {
              const std::size_t out =
                  routes_->egress_port(node, ev.pkt.dst_host, ev.pkt.flow_id);
              if (!runs(first + out)) {
                routes.push_back(not_run);
                continue;
              }
              routes.push_back(static_cast<std::uint32_t>(out));
              ++run_start(out, in + 1);
            }
          }
          for (std::size_t p = 0; p < ports; ++p) {
            for (std::size_t in = 0; in < ports; ++in)
              run_start(p, in + 1) += run_start(p, in);
            slot.queues[p].clear();
            slot.queues[p].reserve(run_start(p, ports));
          }
          const std::uint32_t* route = routes.data();
          for (std::size_t in = 0; in < ports; ++in) {
            const auto peer = topo_->peer_of(node, in);
            const auto& link = topo_->link_at(peer.link_index);
            for (const auto& ev :
                 egress[static_cast<std::size_t>(peer.node)][peer.port]) {
              const std::uint32_t out = *route++;
              if (out == not_run) continue;
              slot.queues[out].push_back(
                  {ev.pkt,
                   link_shift(ev, link.bandwidth_bps, link.propagation_delay)});
            }
          }
          slot.streams.resize(ports);
          slot.port_moved.assign(ports, 0);
          slot.queue_seconds.assign(ports, 0.0);
          slot.inferred = true;
          device_span.set_value(1.0);  // 1 = inferred (skips end with value 0)
          slot.device_seconds = device_span.stop();
          ++worker_inferences[worker];
          ++worker_tasks[worker];
        }
        worker_busy[worker] += util::thread_cpu_seconds() - cpu_start;
      };
      stats_.steals += pool.run_round(sp.seeds, device_pass);
      close_pool_round(iteration);

      // One queue task per queue that runs on an inferred device. Each
      // writes only its own queue's elements of the device's slot, drops and
      // hops.
      queue_tasks.clear();
      queue_sizes.clear();
      for (const topo::node_id node : sp.nodes) {
        const staged_slot& slot = next[static_cast<std::size_t>(node)];
        if (!slot.inferred) continue;
        const std::size_t first = queue_graph_.queue_index(node, 0);
        for (std::size_t p = 0; p < slot.queues.size(); ++p) {
          if (!runs(first + p)) continue;
          queue_tasks.push_back({node, p});
          queue_sizes.push_back(slot.queues[p].size());
        }
      }
      deal_longest_first(queue_sizes, deal_order, deal_load, queue_seeds);
      const util::work_stealing_pool::task_fn queue_pass = [&](std::size_t task,
                                                               std::size_t worker) {
        const auto [node, p] = queue_tasks[task];
        const auto n = static_cast<std::size_t>(node);
        obs::scoped_span queue_span{sink,
                                    "engine",
                                    "queue",
                                    static_cast<std::uint64_t>(node),
                                    static_cast<double>(p),
                                    iteration_span};
        const double cpu_start = util::thread_cpu_seconds();
        staged_slot& slot = next[n];
        const std::size_t ports = slot.queues.size();
        const device_model* model = &device_;
        if (const auto it = device_overrides_.find(node);
            it != device_overrides_.end())
          model = &it->second;
        const journey_capture capture{tracer, static_cast<std::int64_t>(node)};
        queue_call call;
        call.apply_sec = config_.apply_sec;
        call.journeys = tracer != nullptr ? &capture : nullptr;
        call.forwarded = forwarded_handle;
        call.drops = drops_handle;
        call.workspace = &worker_workspaces[worker];
        call.delay = &provider;
        call.device_id = static_cast<std::int64_t>(node);
        call.iteration = iteration;
        if (config_.record_hops) {
          queue_hops[n][p].clear();
          call.hops = &queue_hops[n][p];
        }
        queue_drops[n][p].clear();
        call.dropped = &queue_drops[n][p];
        merge_runs(slot.queues[p], {&slot.run_starts[p * (ports + 1)], ports + 1},
                   scratch_[worker].merge_spare);
        slot.streams[p] = model->process_queue(
            std::move(slot.queues[p]), p,
            topo_->link_at(topo_->at(node).links[p]).bandwidth_bps, call);
        slot.port_moved[p] = stream_moved(slot.streams[p], egress[n][p]);
        const double cpu = util::thread_cpu_seconds() - cpu_start;
        slot.queue_seconds[p] = cpu;
        worker_busy[worker] += cpu;
        ++worker_tasks[worker];
      };
      stats_.steals += pool.run_round(queue_seeds, queue_pass);
      close_pool_round(iteration);

      // Between rounds: move the staged streams in and clear the stale flag
      // of every queue that ran. Every stale queue of the stage ran, so none
      // is stale now. A device's inference time is its device pass plus its
      // queue tasks.
      for (const topo::node_id node : sp.nodes) {
        const auto n = static_cast<std::size_t>(node);
        staged_slot& slot = next[n];
        if (!slot.inferred) continue;
        slot.inferred = false;
        double device_seconds = slot.device_seconds;
        const std::size_t first = queue_graph_.queue_index(node, 0);
        for (std::size_t p = 0; p < slot.port_moved.size(); ++p) {
          if (!runs(first + p)) continue;
          stale[first + p] = 0;
          device_seconds += slot.queue_seconds[p];
          egress[n][p] = std::move(slot.streams[p]);
        }
        if (sink != nullptr) device_seconds_handle.observe(device_seconds);
      }
      // Then mark stale every queue a stream that moved feeds, counting the
      // stage's own. This comes second, so a queue that ran this round is
      // marked again when a feeder that ran beside it moved.
      left_stale = 0;
      for (const auto& [node, p] : queue_tasks) {
        if (next[static_cast<std::size_t>(node)].port_moved[p] == 0) continue;
        for (const std::uint32_t q :
             queue_graph_.successors(queue_graph_.queue_index(node, p))) {
          if (stale[q] == 0 && queue_stage_[q] == stage) ++left_stale;
          stale[q] = 1;
        }
      }
      ++stats_.iterations;
      iteration_timer.set_value(static_cast<double>(left_stale));
    } while (left_stale > 0);
  }
  for (std::size_t count : worker_inferences) stats_.device_inferences += count;
  for (std::size_t count : worker_skips) stats_.devices_skipped += count;
  // 0 = perfectly balanced; clamp against CPU-clock jitter on tiny runs.
  if (stats_.busy_seconds > 0)
    stats_.shard_imbalance =
        std::max(0.0, stats_.critical_path_seconds *
                              static_cast<double>(workers) /
                              stats_.busy_seconds -
                          1.0);

  // Collect deliveries on the pool. One round writes each host's run, its
  // access link's delivery of the peer's egress stream in (time, pid)
  // order, into the host's slice of one buffer. The runs then merge
  // pairwise, level by level, between that buffer and a spare; every level
  // is cut into one equal piece per worker. Pids are unique, so the result
  // is the one global sort of every record. These rounds add nothing to the
  // IRSA stats.
  des::run_result result;
  for (const auto& device : queue_drops)
    for (const auto& drops : device) result.drops += drops.size();
  const auto by_delivery = [](const des::delivery_record& a,
                              const des::delivery_record& b) {
    if (a.delivery_time != b.delivery_time)
      return a.delivery_time < b.delivery_time;
    return a.pid < b.pid;
  };
  const auto inbound_of = [&](std::size_t h) -> const traffic::packet_stream& {
    const auto peer = topo_->peer_of(hosts[h], 0);
    return egress[static_cast<std::size_t>(peer.node)][peer.port];
  };
  // Host h's run starts at run_starts[h]; it ends there plus its length
  // (run_ends[h]), short of the next slice only when foreign packets left.
  std::vector<std::size_t> run_starts(hosts.size() + 1, 0);
  for (std::size_t h = 0; h < hosts.size(); ++h)
    run_starts[h + 1] = run_starts[h] + inbound_of(h).size();
  std::vector<std::size_t> run_ends(hosts.size());
  std::vector<des::delivery_record> deliveries(run_starts.back());
  (void)pool.run_round(host_seeds_, [&](std::size_t h, std::size_t) {
    const topo::node_id host = hosts[h];
    const auto& link = topo_->link_at(topo_->peer_of(host, 0).link_index);
    const auto run =
        deliveries.begin() + static_cast<std::ptrdiff_t>(run_starts[h]);
    auto out = run;
    for (const auto& ev : inbound_of(h)) {
      // A foreign host drops the packet silently, as in the DES.
      if (ev.pkt.dst_host != host) continue;
      des::delivery_record& d = *out++;
      d.pid = ev.pkt.pid;
      d.flow_id = ev.pkt.flow_id;
      d.src = ev.pkt.src_host;
      d.dst = ev.pkt.dst_host;
      d.send_time = send_times[ev.pkt.send_index];
      d.delivery_time =
          link_shift(ev, link.bandwidth_bps, link.propagation_delay);
      if (tracer != nullptr && tracer->sampled(ev.pkt.pid))
        tracer->record_delivery(ev.pkt.pid, d.delivery_time);
    }
    run_ends[h] = run_starts[h] + static_cast<std::size_t>(out - run);
    // The inbound stream is in (time, pid) order and the access link
    // shifts it as it serialized it, so the run is normally in delivery
    // order already.
    if (!std::is_sorted(run, out, by_delivery))
      std::sort(run, out, by_delivery);
  });
  // Close the gaps foreign packets left, in host order.
  std::size_t kept = 0;
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    const std::size_t length = run_ends[h] - run_starts[h];
    if (kept != run_starts[h]) {
      const auto first = deliveries.begin();
      std::copy(first + static_cast<std::ptrdiff_t>(run_starts[h]),
                first + static_cast<std::ptrdiff_t>(run_ends[h]),
                first + static_cast<std::ptrdiff_t>(kept));
      run_starts[h] = kept;
    }
    kept += length;
  }
  deliveries.resize(kept);
  run_starts.back() = kept;
  std::vector<des::delivery_record> spare;
  const auto pieces = spread(workers, workers);
  const auto merge_level = [&](const des::delivery_record* from,
                               des::delivery_record* to,
                               std::span<const std::size_t> level) {
    const std::size_t n = level.back();
    (void)pool.run_round(pieces, [&](std::size_t piece, std::size_t) {
      merge_level_piece(from, to, level, n * piece / workers,
                        n * (piece + 1) / workers, by_delivery);
    });
  };
  merge_levels(deliveries, spare, std::span{run_starts}, merge_level);
  result.deliveries = std::move(deliveries);

  if (config_.record_hops) {
    for (const topo::node_id node : devices) {
      for (const auto& hops : queue_hops[static_cast<std::size_t>(node)]) {
        for (const auto& hop : hops) {
          des::hop_record h;
          h.pid = hop.pid;
          h.device = node;
          h.out_port = hop.out_port;
          h.arrival = hop.arrival;
          h.departure = hop.departure;
          result.hops.push_back(h);
        }
      }
    }
  }

  final_egress_ = std::move(egress);
  run_timer.stop();
  stats_.wall_seconds = watch.elapsed_seconds();
  result.wall_seconds = stats_.wall_seconds;
  if (sink != nullptr) {
    stats_.publish(*sink);
    provider.publish(*sink);
    sink->count("engine.deliveries", static_cast<double>(result.deliveries.size()));
    sink->count("engine.drops", static_cast<double>(result.drops));
  }
  return result;
}

const traffic::packet_stream& dqn_network::egress_stream(topo::node_id node,
                                                         std::size_t port) const {
  if (final_egress_.empty())
    throw std::logic_error{
        "dqn_network::egress_stream: no completed run; call run() before "
        "reading egress traces"};
  DQN_ENSURE(node >= 0 && static_cast<std::size_t>(node) < final_egress_.size(),
             "dqn_network::egress_stream: node ", node, " out of range (",
             final_egress_.size(), " nodes)");
  const auto& ports = final_egress_[static_cast<std::size_t>(node)];
  DQN_ENSURE(port < ports.size(), "dqn_network::egress_stream: port ", port,
             " out of range for node ", node, " (", ports.size(), " ports)");
  return ports[port];
}

}  // namespace dqn::core
