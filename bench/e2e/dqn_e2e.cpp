// End-to-end benchmark driver: one workload per process, one caller, closed
// loop (the next engine run starts when the previous one returns).
//
//   dqn_e2e --prime --cache DIR
//       Train the benchmark PTM and store it in DIR through DLib; records the
//       training time next to it. Runs in its own process so the measured
//       process's peak RSS does not include the training corpus.
//   dqn_e2e --workload NAME --seed N --seconds S --trace 0|1 --cache DIR
//           [--trace-dir DIR] [--out FILE] [--smoke]
//       Set up three times (median = setup_s), time engine runs for S
//       seconds with tracing off, each against a fixed reference kernel
//       (run_wall_ref), check every run's outputs, run the DES
//       reference once, and with --trace 1 add a traced pass, a per-layer
//       replay and an allocation count. Prints "workload metric value unit"
//       lines, then one JSON result as the last line of stdout.
//
// The scenario builder and the PTM configuration live here on purpose, not
// in bench/common.hpp: edits to the paper benches must never shift this
// benchmark.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include <malloc.h>
#include <sys/resource.h>

#include "core/delay_provider.hpp"
#include "core/device_model.hpp"
#include "core/dlib.hpp"
#include "core/dutil.hpp"
#include "core/engine.hpp"
#include "core/features.hpp"
#include "core/metrics.hpp"
#include "core/pfm.hpp"
#include "des/network.hpp"
#include "nn/workspace.hpp"
#include "obs/sink.hpp"
#include "topo/builders.hpp"
#include "topo/routing.hpp"
#include "topo/sharding.hpp"
#include "traffic/traffic_gen.hpp"
#include "util/keyed_vector.hpp"

// This TU replaces the global allocation functions with malloc/free-backed
// counting versions. GCC pairs the declared ::operator new with std::free at
// inlined call sites and warns, a known false positive for replacements that
// forward to malloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

// Allocation hook. It always keeps the live heap size and its peak
// (peak_heap_mb): unlike peak RSS, that does not depend on how much freed
// memory glibc keeps, which for one workload moved peak RSS by 40% between
// seeds whose allocations were within 7%. It counts allocations only while
// armed, so set-up and the driver's own bookkeeping stay out of the engine's
// numbers.
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_live_bytes{0};
std::atomic<bool> g_alloc_armed{false};
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* note_alloc(void* p, std::size_t size) {
  if (p == nullptr) throw std::bad_alloc{};
  const auto usable = static_cast<std::int64_t>(malloc_usable_size(p));
  const auto live = g_live_bytes.fetch_add(usable, std::memory_order_relaxed) + usable;
  auto peak = g_peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_live_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  if (g_alloc_armed.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  return note_alloc(std::malloc(size == 0 ? 1 : size), size);
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  return note_alloc(std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded),
                    size);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

using namespace dqn;

namespace {

using clock_type = std::chrono::steady_clock;

double since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

// ---------------------------------------------------------------------------
// The benchmark PTM: an 8-port MLP over the full DUtil scheduler/traffic mix
// at 1 Gbps. Small enough to train in a few seconds, and one trained K-port
// model serves every device of degree <= K (§6.1).
// ---------------------------------------------------------------------------

constexpr double link_bps = 1e9;

core::dutil_config ptm_training_config() {
  core::dutil_config cfg;
  cfg.ports = 8;
  cfg.bandwidth_bps = link_bps;
  cfg.streams = 57;
  cfg.packets_per_stream = 600;
  cfg.ptm.arch = core::ptm_arch::mlp;
  cfg.ptm.time_steps = 12;
  cfg.ptm.mlp_hidden = {96, 48};
  cfg.ptm.epochs = 6;
  cfg.seed = 20220822;
  return cfg;
}

std::string model_key() {
  const auto cfg = ptm_training_config();
  return core::device_model_library::model_key(cfg.ptm.arch, cfg.ports, cfg.seed) +
         "_e2e";
}

std::filesystem::path train_seconds_path(const std::filesystem::path& cache) {
  return cache / "train_seconds";
}

int prime(const std::filesystem::path& cache) {
  const core::device_model_library lib{cache};
  const auto start = clock_type::now();
  auto bundle = core::train_device_model(ptm_training_config());
  const double train_s = since(start);
  lib.store(model_key(), bundle.model);
  std::ofstream out{train_seconds_path(cache)};
  out.precision(17);
  out << train_s << '\n';
  if (!out) {
    std::fprintf(stderr, "dqn_e2e: cannot write %s\n",
                 train_seconds_path(cache).c_str());
    return 1;
  }
  std::fprintf(stderr, "[prime] trained PTM %s in %.2fs\n", model_key().c_str(),
               train_s);
  return 0;
}

// ---------------------------------------------------------------------------
// Workloads. Each stresses a different part of the engine (README.md).
// ---------------------------------------------------------------------------

struct workload_spec {
  std::string_view name;
  topo::topology (*build)(topo::link_params);
  traffic::traffic_model model;
  double load;  // calibrated utilization of the most loaded link
  des::scheduler_kind scheduler;
  std::size_t classes;
  std::uint64_t buffer_bytes;  // drop-tail per egress queue; 0 = unbounded
  des::delay_backend backend;
  bool irsa_skip;
  std::size_t workers;
  // Packets per run. Traffic is generated past `horizon` and cut at the
  // send time of the packet_budget-th packet, so every seed injects exactly
  // this many: over a 30 ms horizon a MAP sample path's count varied by 14%.
  std::uint64_t packet_budget;
  double horizon;
  // Accuracy guards against the DES. FIFO projection makes the FIFO
  // workloads near-exact, so there the limits only catch a broken engine.
  double w1_limit;
  double drop_rate_err_limit;
};

constexpr workload_spec workloads[] = {
    {"ft16_ptm_paper", topo::make_fattree16, traffic::traffic_model::poisson, 0.5,
     des::scheduler_kind::fifo, 1, 0, des::delay_backend::ptm, false, 4, 12'000,
     0.06, 0.01, 0.0},
    {"ft128_tiered", topo::make_fattree128, traffic::traffic_model::poisson, 0.5,
     des::scheduler_kind::fifo, 1, 0, des::delay_backend::tiered, true, 4,
     150'000, 0.08, 0.01, 0.0},
    {"ft16_sp_drops", topo::make_fattree16, traffic::traffic_model::map, 0.8,
     des::scheduler_kind::sp, 3, 8000, des::delay_backend::ptm, true, 1, 10'500,
     0.03, 0.5, 0.01},
};

const workload_spec* find_workload(std::string_view name) {
  for (const auto& w : workloads)
    if (w.name == name) return &w;
  return nullptr;
}

// Topology, routing and per-host traffic; the routing points at the
// topology, so both live behind unique_ptrs that never move.
struct scenario {
  std::unique_ptr<topo::topology> topo;
  std::unique_ptr<topo::routing> routes;
  std::vector<traffic::packet_stream> streams;
  double horizon = 0;  // send time of the last injected packet
  std::uint64_t injected = 0;
};

// Per-flow rate such that the most loaded link (flows routed per ECMP)
// carries `load` of its capacity, as the paper's experiments calibrate it.
double calibrated_flow_rate(const topo::topology& topo, const topo::routing& routes,
                            const std::vector<traffic::flow_spec>& flows,
                            double load) {
  const auto hosts = topo.hosts();
  std::vector<double> link_flows(topo.link_count(), 0.0);
  for (const auto& flow : flows) {
    const auto src = hosts.at(static_cast<std::size_t>(flow.src_host));
    const auto dst = hosts.at(static_cast<std::size_t>(flow.dst_host));
    const auto path = routes.flow_path(src, dst, flow.flow_id);
    for (std::size_t hop = 0; hop + 1 < path.size(); ++hop) {
      const std::size_t port = routes.egress_port(path[hop], dst, flow.flow_id);
      link_flows[topo.peer_of(path[hop], port).link_index] += 1.0;
    }
  }
  double max_flows = 1.0;
  for (const double f : link_flows) max_flows = std::max(max_flows, f);
  constexpr double mean_packet_bytes = 712.0;  // Poisson and MAP size mix
  return load * link_bps / max_flows / (8.0 * mean_packet_bytes);
}

// The flow matrix (sources, destinations, classes) and each flow's arrival
// process (MAP burst factor) are part of the workload and come from a fixed
// seed: drawing the matrix per seed moved the calibrated rate, and so the
// packet count, by up to 2x. The traffic seed drives the sample paths:
// arrival times and packet sizes.
constexpr std::uint64_t workload_seed = 1000;

void generate_traffic(const workload_spec& spec, std::uint64_t packets,
                      double horizon, std::uint64_t seed, scenario& s) {
  util::rng flow_rng{workload_seed};
  const std::size_t hosts = s.topo->hosts().size();
  const auto flows = traffic::make_uniform_flows(hosts, spec.classes, flow_rng);
  traffic::tg_util_config tg;
  tg.model = spec.model;
  tg.per_flow_rate = calibrated_flow_rate(*s.topo, *s.routes, flows, spec.load);
  tg.seed = workload_seed;
  auto generators = traffic::make_generators(flows, tg);
  util::rng rng{seed};
  s.streams = traffic::per_host_streams(generators, hosts, 2 * horizon, rng);
  std::vector<double> times;
  for (const auto& stream : s.streams)
    for (const auto& ev : stream) times.push_back(ev.time);
  if (times.size() < packets)
    throw std::runtime_error{"generated " + std::to_string(times.size()) +
                             " packets, fewer than the budget of " +
                             std::to_string(packets)};
  const auto last = times.begin() + static_cast<std::ptrdiff_t>(packets - 1);
  std::nth_element(times.begin(), last, times.end());
  s.horizon = *last;
  s.injected = 0;
  for (auto& stream : s.streams) {
    std::erase_if(stream, [&](const auto& ev) { return ev.time > s.horizon; });
    s.injected += stream.size();
  }
}

core::scheduler_context scheduler_of(const workload_spec& spec) {
  core::scheduler_context ctx;
  ctx.kind = spec.scheduler;
  ctx.bandwidth_bps = link_bps;
  ctx.buffer_bytes = spec.buffer_bytes;
  return ctx;
}

des::delay_policy delay_policy_of(const workload_spec& spec) {
  des::delay_policy policy;
  policy.backend = spec.backend;
  return policy;
}

// ---------------------------------------------------------------------------
// Reference kernel: fixed work that belongs to this file, timed right after
// every engine run. On a shared host the machine's speed drifts by 15-20%
// within minutes, and every workload drifts with it (README.md, Noise).
// Dividing each run's wall time by the kernel's cancels most of that drift, so
// the result tracks the program rather than the host. The kernel streams over
// a 32 MiB table and sums reads at a stride across it, which tracked the
// engine's drift better than a sort or a cache-resident loop did.
// ---------------------------------------------------------------------------

class reference_kernel {
 public:
  reference_kernel() : table_(std::size_t{1} << 22) {
    for (std::size_t i = 0; i < table_.size(); ++i)
      table_[i] = static_cast<double>((i * 2654435761u) % 1000) / 1000.0;
  }

  // Wall seconds of one pass of the fixed work.
  double run() {
    constexpr int passes = 4;
    const std::size_t mask = table_.size() - 1;
    const auto start = clock_type::now();
    double sum = 0;
    for (int pass = 0; pass < passes; ++pass)
      for (std::size_t i = 0; i < table_.size(); ++i) {
        const double v = table_[(i * 7919) & mask];
        table_[i] = table_[i] * 0.999 + v * 0.001;  // stays in [0, 1)
        sum += v;
      }
    const double seconds = since(start);
    if (!std::isfinite(sum)) throw std::logic_error{"reference kernel diverged"};
    return seconds;
  }

 private:
  std::vector<double> table_;
};

// ---------------------------------------------------------------------------
// Output checks.
// ---------------------------------------------------------------------------

// Order- and bit-sensitive digest of the delivery records (FNV-1a over pid +
// the raw delivery_time bits), as bench_table7 computes it.
std::uint64_t delivery_fingerprint(const des::run_result& result) {
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (value >> shift) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  for (const auto& d : result.deliveries) {
    mix(d.pid);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d.delivery_time, sizeof bits);
    mix(bits);
  }
  return hash;
}

// Empty when the run is valid, otherwise why it is not.
std::string check_run(const des::run_result& result, std::uint64_t injected,
                      std::uint64_t expected_fingerprint) {
  if (result.deliveries.size() + result.drops != injected)
    return "deliveries (" + std::to_string(result.deliveries.size()) +
           ") + drops (" + std::to_string(result.drops) + ") != injected (" +
           std::to_string(injected) + ")";
  for (const auto& d : result.deliveries)
    if (!std::isfinite(d.delivery_time) || d.delivery_time < d.send_time)
      return "pid " + std::to_string(d.pid) + " delivered at " +
             std::to_string(d.delivery_time) + " before its send time " +
             std::to_string(d.send_time) + " or not finite";
  if (delivery_fingerprint(result) != expected_fingerprint)
    return "delivery fingerprint differs from the workload's first run";
  return {};
}

struct run_tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  // Counts one engine run; a non-empty `why` fails it and is printed.
  void record(std::string_view what, const std::string& why) {
    ++attempted;
    if (why.empty()) return;
    ++failed;
    std::fprintf(stderr, "[check] %.*s run failed: %s\n",
                 static_cast<int>(what.size()), what.data(), why.c_str());
  }

  // Runs `run` (returning a des::run_result) and records it; a throw fails
  // the run like a failed check does.
  template <class Run>
  des::run_result checked(std::string_view what, std::uint64_t injected,
                          std::uint64_t expected_fingerprint, Run&& run) {
    des::run_result result;
    std::string why;
    try {
      result = run();
      why = check_run(result, injected, expected_fingerprint);
    } catch (const std::exception& e) {
      why = std::string{"threw: "} + e.what();
    }
    record(what, why);
    return result;
  }
};

// ---------------------------------------------------------------------------
// Statistics and reporting.
// ---------------------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

struct metric {
  std::string name;
  double value = 0;
  std::string unit;
  bool end_to_end = false;
  double p25 = std::nan("");  // set for timings with a sample spread
  double p75 = std::nan("");
  std::size_t samples = 0;
};

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

// ---------------------------------------------------------------------------
// The measured workload.
// ---------------------------------------------------------------------------

struct options {
  const workload_spec* spec = nullptr;
  std::uint64_t seed = 1000;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::filesystem::path cache;
  std::filesystem::path trace_dir = "bench/e2e/out";
  std::filesystem::path out;
};

// One set-up: everything a user pays before the first estimate is in hand.
struct setup_result {
  std::shared_ptr<const core::ptm_model> ptm;
  scenario s;
  std::unique_ptr<core::dqn_network> net;
  des::run_result first;
  double load_s = 0, topo_s = 0, traffic_s = 0, plan_s = 0, construct_s = 0,
         first_run_s = 0;

  [[nodiscard]] double total() const {
    return load_s + topo_s + traffic_s + construct_s + first_run_s;
  }
};

setup_result set_up(const workload_spec& spec, const options& opt,
                    std::size_t workers) {
  setup_result r;
  auto start = clock_type::now();
  const core::device_model_library lib{opt.cache};
  r.ptm = std::make_shared<const core::ptm_model>(lib.fetch(model_key()));
  r.load_s = since(start);

  start = clock_type::now();
  topo::link_params links;
  links.bandwidth_bps = link_bps;
  r.s.topo = std::make_unique<topo::topology>(spec.build(links));
  r.s.routes = std::make_unique<topo::routing>(*r.s.topo);
  r.topo_s = since(start);

  start = clock_type::now();
  generate_traffic(spec, opt.smoke ? spec.packet_budget / 4 : spec.packet_budget,
                   opt.smoke ? spec.horizon / 4 : spec.horizon, opt.seed, r.s);
  r.traffic_s = since(start);

  // The engine plans its shards inside every run; timed here on its own.
  start = clock_type::now();
  const auto plan = topo::shard_devices(*r.s.topo, r.s.topo->devices(), workers,
                                        topo::shard_strategy::topology);
  r.plan_s = since(start);
  (void)plan;

  start = clock_type::now();
  core::engine_config cfg;
  cfg.partitions = workers;
  cfg.irsa_skip_unchanged = spec.irsa_skip;
  cfg.delay = delay_policy_of(spec);
  r.net = std::make_unique<core::dqn_network>(*r.s.topo, *r.s.routes, r.ptm,
                                              scheduler_of(spec), cfg);
  r.construct_s = since(start);

  start = clock_type::now();
  r.first = r.net->run(r.s.streams, r.s.horizon);
  r.first_run_s = since(start);
  return r;
}

// Per-layer costs from replaying the public layer functions on the final
// run's converged state. Each function is called twice per device (or
// queue) and the second call is timed.
struct replay_result {
  double link_s = 0, pfm_s = 0, features_s = 0, windows_s = 0, delay_s = 0,
         ptm_delay_s = 0, analytical_delay_s = 0, nn_s = 0, process_s = 0;
  // How much longer each device's first process() call took than its second:
  // one-time costs a run pays per device, chiefly the tiered backend's
  // error-budget spot check, which runs the PTM on a whole window.
  double first_call_extra_s = 0;
  std::uint64_t ingress_pkts = 0, queued_pkts = 0, sec_corrections = 0;
};

template <class Fn>
auto second_call(Fn&& fn, double& seconds) {
  (void)fn();
  const auto start = clock_type::now();
  auto result = fn();
  seconds += since(start);
  return result;
}

replay_result replay_layers(const workload_spec& spec, const setup_result& setup,
                            std::size_t iteration) {
  const auto& topo = *setup.s.topo;
  const auto& routes = *setup.s.routes;
  const auto& net = *setup.net;
  const core::scheduler_context ctx = scheduler_of(spec);
  const core::device_model device{setup.ptm, ctx};
  core::ptm_delay_provider ptm_provider{setup.ptm};
  core::analytical_delay_provider analytical;
  // Fresh instances of the workload's backend: one for direct estimates, one
  // for process(), so neither call sequence shifts the other's tier state.
  auto provider = core::make_delay_provider(setup.ptm, delay_policy_of(spec));
  auto process_provider = core::make_delay_provider(setup.ptm, delay_policy_of(spec));
  provider->prepare(topo.node_count() + 1);
  process_provider->prepare(topo.node_count() + 1);
  nn::workspace ws;
  const std::size_t time_steps = setup.ptm->config().time_steps;

  replay_result r;
  for (const topo::node_id node : topo.devices()) {
    const std::size_t ports = topo.port_count(node);
    std::vector<traffic::packet_stream> ingress(ports);
    std::vector<double> bandwidths(ports);
    for (std::size_t p = 0; p < ports; ++p) {
      const auto peer = topo.peer_of(node, p);
      const auto& link = topo.link_at(peer.link_index);
      const auto& upstream = net.egress_stream(peer.node, peer.port);
      ingress[p] = second_call(
          [&] {
            return core::apply_link(upstream, link.bandwidth_bps,
                                    link.propagation_delay);
          },
          r.link_s);
      bandwidths[p] = topo.link_at(topo.at(node).links[p]).bandwidth_bps;
      r.ingress_pkts += ingress[p].size();
    }
    util::keyed_vector<std::uint32_t, topo::node_id> flow_dst;
    for (const auto& stream : ingress)
      for (const auto& ev : stream) flow_dst.push_back(ev.pkt.flow_id, ev.pkt.dst_host);
    flow_dst.finalize();
    const core::forward_fn forward = [&](std::uint32_t fid, std::size_t) {
      return routes.egress_port(node, flow_dst.at(fid), fid);
    };

    const auto queues = second_call(
        [&] { return core::apply_forwarding(ingress, forward, ports); }, r.pfm_s);
    for (std::size_t out = 0; out < ports; ++out) {
      // The queue the sojourn stage sees holds only the packets the drop
      // replay kept: exactly those in the port's final egress stream.
      traffic::packet_stream kept;
      if (spec.buffer_bytes > 0) {
        std::unordered_set<std::uint64_t> survivors;
        for (const auto& ev : net.egress_stream(node, out)) survivors.insert(ev.pkt.pid);
        for (const auto& ev : queues[out])
          if (survivors.count(ev.pkt.pid) != 0) kept.push_back(ev);
      } else {
        kept = queues[out];
      }
      if (kept.empty()) continue;
      r.queued_pkts += kept.size();
      core::scheduler_context port_ctx = ctx;
      port_ctx.bandwidth_bps = bandwidths[out];
      const auto rows = second_call(
          [&] { return core::compute_features(kept, port_ctx); }, r.features_s);
      const auto windows = second_call(
          [&] { return core::make_windows(rows, time_steps); }, r.windows_s);

      double busy = 0;
      for (const auto& ev : kept)
        busy += static_cast<double>(ev.pkt.size_bytes) * 8.0 / port_ctx.bandwidth_bps;
      const double window_seconds = kept.back().time - kept.front().time;
      core::device_state state;
      state.device = static_cast<std::int64_t>(node);
      state.port = out;
      state.iteration = iteration;
      state.arrivals = &kept;
      state.feature_rows = rows;
      state.ctx = &port_ctx;
      state.utilization =
          kept.size() < 2 ? 0.0 : busy / std::max(window_seconds, 1e-12);
      state.workspace = &ws;
      (void)second_call(
          [&] { return provider->estimate_sojourn(state, window_seconds); },
          r.delay_s);
      (void)second_call(
          [&] { return ptm_provider.estimate_sojourn(state, window_seconds); },
          r.ptm_delay_s);
      (void)second_call(
          [&] { return analytical.estimate_sojourn(state, window_seconds); },
          r.analytical_delay_s);
      std::vector<double> raw;
      const auto corrected = second_call(
          [&] { return ptm_provider.predict_windows(windows, true, &raw); }, r.nn_s);
      for (std::size_t i = 0; i < corrected.size(); ++i)
        if (corrected[i] != raw[i]) ++r.sec_corrections;
    }

    const auto process = [&] {
      return device.process(ingress, forward, true, nullptr, nullptr, bandwidths,
                            nullptr, nullptr, &ws, process_provider.get(),
                            static_cast<std::int64_t>(node), iteration);
    };
    auto start = clock_type::now();
    (void)process();
    const double first = since(start);
    start = clock_type::now();
    (void)process();
    const double second = since(start);
    r.process_s += second;
    r.first_call_extra_s += first - second;
  }
  return r;
}

// Values read from one traced run's sink.
struct traced_run {
  double wall_s = 0, sinit_s = 0, iterations_s = 0, collect_s = 0, device_p50 = 0,
         device_p90 = 0, busy_s = 0, critical_path_s = 0, imbalance = 0;
  double forwarded = 0, drops = 0;
  std::uint64_t steals = 0;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double read_train_seconds(const std::filesystem::path& cache) {
  std::ifstream in{train_seconds_path(cache)};
  double seconds = std::nan("");
  in >> seconds;
  return seconds;
}

int run_workload(const options& opt) {
  const workload_spec& spec = *opt.spec;
  const std::string name{spec.name};
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t workers = std::min(spec.workers, cores);
  std::vector<metric> metrics;
  const auto report = [&](std::string metric_name, double value, std::string unit,
                          bool end_to_end) -> metric& {
    return metrics.emplace_back(
        metric{std::move(metric_name), value, std::move(unit), end_to_end});
  };
  run_tally tally;
  std::uint64_t fingerprint = 0;

  // Set-up, three times; the last one's engine and scenario are measured.
  constexpr int setup_reps = 3;
  std::vector<double> setup_s, load_s, topo_s, traffic_s, plan_s, construct_s,
      first_run_s;
  setup_result setup;
  for (int rep = 0; rep < setup_reps; ++rep) {
    setup.net.reset();  // the engine points into the scenario it replaces
    setup = set_up(spec, opt, workers);
    if (rep == 0) fingerprint = delivery_fingerprint(setup.first);
    tally.record("set-up", check_run(setup.first, setup.s.injected, fingerprint));
    setup_s.push_back(setup.total());
    load_s.push_back(setup.load_s);
    topo_s.push_back(setup.topo_s);
    traffic_s.push_back(setup.traffic_s);
    plan_s.push_back(setup.plan_s);
    construct_s.push_back(setup.construct_s);
    first_run_s.push_back(setup.first_run_s);
  }
  auto& net = *setup.net;
  const auto& streams = setup.s.streams;
  const double horizon = setup.s.horizon;
  const std::uint64_t injected = setup.s.injected;

  // Peak heap and RSS cover the three set-ups (each with a full engine run)
  // and are read before the reference kernel allocates its table.
  const double heap_mb =
      static_cast<double>(g_peak_live_bytes.load()) / (1024.0 * 1024.0);
  const double rss_mb = peak_rss_mb();

  // Timed runs, tracing off, until the measurement window is used up. Each is
  // followed by one timing of the reference kernel.
  reference_kernel reference;
  (void)reference.run();  // fault the table in before timing
  std::vector<double> walls, rates, busy, refs, relative;
  const std::size_t min_runs = opt.smoke ? 3 : 5;
  const std::size_t max_runs = opt.smoke ? 3 : 10000;
  const auto window_start = clock_type::now();
  while (walls.size() < max_runs &&
         (walls.size() < min_runs || since(window_start) < opt.seconds)) {
    const auto start = clock_type::now();
    const auto result = tally.checked("timed", injected, fingerprint,
                                      [&] { return net.run(streams, horizon); });
    const double wall = since(start);
    const double ref = reference.run();
    walls.push_back(wall);
    refs.push_back(ref);
    relative.push_back(wall / ref);
    rates.push_back(static_cast<double>(result.deliveries.size()) / wall);
    busy.push_back(net.stats().busy_seconds);
  }
  const double run_wall = median(walls);

  // Traced pass: a fresh sink per run; timings are medians of three runs.
  std::vector<traced_run> traced;
  std::unique_ptr<obs::sink> last_sink;
  if (opt.trace) {
    for (int rep = 0; rep < 3; ++rep) {
      auto sink = std::make_unique<obs::sink>();
      des::run_request request;
      request.host_streams = &streams;
      request.horizon = horizon;
      request.sink = sink.get();
      traced_run t;
      const auto start = clock_type::now();
      (void)tally.checked("traced", injected, fingerprint,
                          [&] { return net.run(request); });
      t.wall_s = since(start);
      const auto& m = sink->metrics();
      t.sinit_s = m.histogram("engine.sinit.seconds").sum;
      t.iterations_s = m.histogram("engine.iteration.seconds").sum;
      t.collect_s =
          m.histogram("engine.run.seconds").sum - t.sinit_s - t.iterations_s;
      const auto device = m.histogram("engine.device_infer_seconds");
      t.device_p50 = device.p50();
      t.device_p90 = device.p90();
      t.forwarded = m.counter("pfm.forwarded");
      t.drops = m.counter("pfm.drops");
      const auto& stats = net.stats();
      t.busy_s = stats.busy_seconds;
      t.critical_path_s = stats.critical_path_seconds;
      t.imbalance = stats.shard_imbalance;
      t.steals = stats.steals;
      traced.push_back(t);
      last_sink = std::move(sink);
    }
  }
  const core::engine_stats stats = net.stats();
  const auto* tiered = dynamic_cast<const core::tiered_delay_provider*>(&net.provider());
  const double analytical_fraction =
      tiered != nullptr ? tiered->stats().analytical_fraction() : 0.0;
  replay_result replay;
  if (opt.trace) replay = replay_layers(spec, setup, stats.iterations - 1);

  // Shard-count determinism: a one-worker engine must reproduce the same
  // deliveries. It is built only after the measured engine (and its worker
  // threads) are gone. With --trace 1 its second run counts the engine's
  // heap allocations: one thread and a fixed history, so the count repeats.
  setup.net.reset();
  std::uint64_t allocs = 0, alloc_bytes = 0;
  if (workers > 1 || opt.trace) {
    core::engine_config cfg;
    cfg.irsa_skip_unchanged = spec.irsa_skip;
    cfg.delay = delay_policy_of(spec);
    core::dqn_network single{*setup.s.topo, *setup.s.routes, setup.ptm,
                             scheduler_of(spec), cfg};
    (void)tally.checked("one-worker", injected, fingerprint,
                        [&] { return single.run(streams, horizon); });
    if (opt.trace) {
      g_alloc_count.store(0);
      g_alloc_bytes.store(0);
      g_alloc_armed.store(true);
      (void)tally.checked("allocation-count", injected, fingerprint,
                          [&] { return single.run(streams, horizon); });
      g_alloc_armed.store(false);
      allocs = g_alloc_count.load();
      alloc_bytes = g_alloc_bytes.load();
    }
  }

  // The DES reference: accuracy of the estimate, and the baseline's cost.
  des::network_config des_cfg;
  des_cfg.tm.kind = spec.scheduler;
  des_cfg.tm.classes = spec.classes;
  des_cfg.tm.buffer_bytes = spec.buffer_bytes;
  des_cfg.record_hops = false;
  des::network oracle{*setup.s.topo, *setup.s.routes, des_cfg};
  const auto des_start = clock_type::now();
  const auto truth = oracle.run(streams, horizon);
  const double des_s = since(des_start);
  const auto cmp = core::compare_runs(truth, setup.first, horizon / 10, 6);
  const double drop_rate_err =
      std::abs(static_cast<double>(setup.first.drops) -
               static_cast<double>(truth.drops)) /
      static_cast<double>(injected);
  bool correct = tally.failed == 0;
  if (!(cmp.w1_avg_rtt <= spec.w1_limit && cmp.w1_p99_rtt <= spec.w1_limit)) {
    correct = false;
    std::fprintf(stderr, "[check] w1 against the DES too large: avg %.6g p99 %.6g "
                 "(limit %.3g)\n", cmp.w1_avg_rtt, cmp.w1_p99_rtt, spec.w1_limit);
  }
  if (!(drop_rate_err <= spec.drop_rate_err_limit)) {
    correct = false;
    std::fprintf(stderr, "[check] drop rate error %.6g above %.3g (DQN %llu, DES "
                 "%llu drops)\n", drop_rate_err, spec.drop_rate_err_limit,
                 static_cast<unsigned long long>(setup.first.drops),
                 static_cast<unsigned long long>(truth.drops));
  }

  const auto report_spread = [&](std::string metric_name,
                                 const std::vector<double>& values, std::string unit,
                                 bool end_to_end) {
    metric& m = report(std::move(metric_name), median(values), std::move(unit),
                       end_to_end);
    m.p25 = quantile(values, 0.25);
    m.p75 = quantile(values, 0.75);
    m.samples = values.size();
  };

  // ---- end-to-end metrics (tracing off) ----
  report_spread("run_wall_ref", relative, "ref", true);
  report("setup_s", median(setup_s), "s", true).samples = setup_s.size();
  report("peak_heap_mb", heap_mb, "MB", true);

  if (opt.trace) {
    report_spread("raw.run_wall_s", walls, "s", false);
    report_spread("raw.pkts_per_s", rates, "1/s", false);
    report_spread("raw.ref_kernel_s", refs, "s", false);
    report("raw.peak_rss_mb", rss_mb, "MB", false);
    const auto med = [&](auto field) {
      std::vector<double> values;
      for (const auto& t : traced) values.push_back(static_cast<double>(t.*field));
      return median(values);
    };
    const double iterations_s = med(&traced_run::iterations_s);
    const double busy_s = med(&traced_run::busy_s);
    const auto devices = static_cast<double>(setup.s.topo->devices().size());
    const auto inferences = static_cast<double>(stats.device_inferences);
    const auto visits = inferences + static_cast<double>(stats.devices_skipped);
    const auto ingress_pkts = static_cast<double>(replay.ingress_pkts);
    const auto queued_pkts = static_cast<double>(replay.queued_pkts);
    const auto ns = [](double seconds, double count) {
      return count > 0 ? seconds / count * 1e9 : 0.0;
    };
    report("core.engine.sinit_s", med(&traced_run::sinit_s), "s", false);
    report("core.engine.iterations_s", iterations_s, "s", false);
    report("core.engine.collect_s", med(&traced_run::collect_s), "s", false);
    report("core.engine.device_s_p50", med(&traced_run::device_p50), "s", false);
    report("core.engine.device_s_p90", med(&traced_run::device_p90), "s", false);
    report("core.engine.iterations", static_cast<double>(stats.iterations), "count",
           false);
    report("core.engine.device_inferences", inferences, "count", false);
    report("core.engine.skip_ratio",
           visits > 0 ? static_cast<double>(stats.devices_skipped) / visits : 0.0,
           "ratio", false);
    report("util.pool.busy_s", busy_s, "s", false);
    report("util.pool.critical_path_s", med(&traced_run::critical_path_s), "s",
           false);
    report("util.pool.idle_s", static_cast<double>(workers) * iterations_s - busy_s,
           "s", false);
    report("util.pool.steals", med(&traced_run::steals), "count", false);
    report("util.pool.imbalance", med(&traced_run::imbalance), "ratio", false);
    report("core.delay_provider.analytical_fraction", analytical_fraction, "ratio",
           false);
    report("core.delay_provider.ptm_ns_per_pkt", ns(replay.ptm_delay_s, queued_pkts),
           "ns", false);
    report("core.delay_provider.analytical_ns_per_pkt",
           ns(replay.analytical_delay_s, queued_pkts), "ns", false);
    report("core.sec.corrections", static_cast<double>(replay.sec_corrections),
           "count", false);
    report("core.pfm.forwarded", traced.back().forwarded, "count", false);
    report("core.pfm.drops", traced.back().drops, "count", false);
    report("des.run_s", des_s, "s", false);
    report("des.events_per_s", static_cast<double>(truth.events) / des_s, "1/s",
           false);
    report("obs.overhead_frac", med(&traced_run::wall_s) / run_wall - 1.0, "ratio",
           false);
    report("core.link.ns_per_pkt", ns(replay.link_s, ingress_pkts), "ns", false);
    report("core.pfm.ns_per_pkt", ns(replay.pfm_s, ingress_pkts), "ns", false);
    report("core.device_model.ns_per_pkt", ns(replay.process_s, ingress_pkts), "ns",
           false);
    report("core.device_model.rest_ns_per_pkt",
           ns(replay.process_s - replay.pfm_s - replay.features_s - replay.delay_s,
              ingress_pkts),
           "ns", false);
    report("core.features.ns_per_pkt", ns(replay.features_s, queued_pkts), "ns",
           false);
    report("core.features.windows_ns_per_pkt", ns(replay.windows_s, queued_pkts),
           "ns", false);
    report("core.delay_provider.ns_per_pkt", ns(replay.delay_s, queued_pkts), "ns",
           false);
    report("nn.ptm.ns_per_window", ns(replay.nn_s, queued_pkts), "ns", false);
    report("core.device_model.first_call_extra_s", replay.first_call_extra_s, "s",
           false);
    // The workers' work rebuilt from the replayed costs: every packet a device
    // processed in the run (pfm.forwarded less the host-NIC pass over the
    // injected packets) crossed a link and a process() call, a skipped visit
    // still rebuilds its ingress, and each device pays its first-call extra
    // once. Early IRSA iterations carry fewer packets than the converged
    // state, hence packets rather than visits. Against the untraced runs'
    // busy CPU time.
    const double device_pkts = traced.back().forwarded - static_cast<double>(injected);
    const double replayed =
        replay.link_s *
            (device_pkts / ingress_pkts +
             static_cast<double>(stats.devices_skipped) / devices) +
        replay.process_s * device_pkts / ingress_pkts + replay.first_call_extra_s;
    report("core.engine.replay_coverage", replayed / median(busy), "ratio", false);
    report("core.dlib.load_s", median(load_s), "s", false);
    report("topo.build_s", median(topo_s), "s", false);
    report("traffic.gen_s", median(traffic_s), "s", false);
    report("core.engine.construct_s", median(construct_s), "s", false);
    report("core.engine.first_run_s", median(first_run_s), "s", false);
    report("topo.sharding.plan_s", median(plan_s), "s", false);
    report("core.dutil.train_s", read_train_seconds(opt.cache), "s", false);
    report("core.engine.allocs_per_device_iter",
           visits > 0 ? static_cast<double>(allocs) / visits : 0.0, "count", false);
    report("core.engine.alloc_bytes_per_pkt",
           static_cast<double>(alloc_bytes) / static_cast<double>(injected), "B",
           false);
    report("accuracy.w1_avg_rtt", cmp.w1_avg_rtt, "ratio", false);
    report("accuracy.w1_p99_rtt", cmp.w1_p99_rtt, "ratio", false);
    report("accuracy.drop_rate_err", drop_rate_err, "ratio", false);

    std::filesystem::create_directories(opt.trace_dir);
    const auto trace_path = opt.trace_dir / (name + ".trace.json");
    std::ofstream trace_out{trace_path};
    trace_out << last_sink->to_chrome_trace();
    if (!trace_out) {
      std::fprintf(stderr, "dqn_e2e: cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }
  for (const auto& m : metrics)
    if (!std::isfinite(m.value)) {
      correct = false;
      std::fprintf(stderr, "[check] metric %s is not finite\n", m.name.c_str());
    }

  std::printf("%s failed_runs_frac %s frac\n", name.c_str(),
              number(static_cast<double>(tally.failed) /
                     static_cast<double>(tally.attempted))
                  .c_str());
  std::printf("%s packets_injected %llu count\n", name.c_str(),
              static_cast<unsigned long long>(injected));
  for (const auto& m : metrics) {
    std::printf("%s %s %s %s\n", name.c_str(), m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
    if (!std::isnan(m.p25))
      std::printf("%s %s.p25 %s %s\n%s %s.p75 %s %s\n", name.c_str(), m.name.c_str(),
                  number(m.p25).c_str(), m.unit.c_str(), name.c_str(), m.name.c_str(),
                  number(m.p75).c_str(), m.unit.c_str());
  }
  const auto metrics_json = [&](bool all) {
    std::string doc = "{";
    bool first = true;
    for (const auto& m : metrics) {
      if (!all && m.end_to_end == opt.trace) continue;
      doc += first ? "" : ", ";
      first = false;
      doc += "\"" + m.name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" +
             m.unit + "\"";
      if (all && !std::isnan(m.p25))
        doc += ", \"p25\": " + number(m.p25) + ", \"p75\": " + number(m.p75);
      if (all && m.samples > 0) doc += ", \"n\": " + std::to_string(m.samples);
      doc += "}";
    }
    return doc + "}";
  };
  const std::string head = std::string{"{\"correct\": "} + (correct ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(tally.attempted) +
                           ", \"failed\": " + std::to_string(tally.failed);
  if (!opt.out.empty()) {
    std::ofstream out{opt.out};
    out << head << ", \"workload\": \"" << name << "\", \"seed\": " << opt.seed
        << ", \"packets\": " << injected << ", \"metrics\": " << metrics_json(true)
        << "}\n";
    if (!out) {
      std::fprintf(stderr, "dqn_e2e: cannot write %s\n", opt.out.c_str());
      return 1;
    }
  }
  std::printf("%s, \"metrics\": %s}\n", head.c_str(), metrics_json(false).c_str());
  std::fflush(stdout);
  return 0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "dqn_e2e: %s\n"
               "usage: dqn_e2e --prime --cache DIR\n"
               "       dqn_e2e --workload NAME --cache DIR [--seed N] [--seconds S]\n"
               "               [--trace 0|1] [--trace-dir DIR] [--out FILE] [--smoke]\n"
               "workloads:",
               why);
  for (const auto& w : workloads)
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()), w.name.data());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  options opt;
  bool prime_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    const auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) usage("missing value after an option");
      return argv[++i];
    };
    if (arg == "--prime") {
      prime_only = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--workload") {
      opt.spec = find_workload(value());
      if (opt.spec == nullptr) usage("unknown workload");
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().data(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value().data(), nullptr);
      if (!(opt.seconds > 0)) usage("--seconds must be > 0");
    } else if (arg == "--trace") {
      const auto v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (arg == "--cache") {
      opt.cache = value();
    } else if (arg == "--trace-dir") {
      opt.trace_dir = value();
    } else if (arg == "--out") {
      opt.out = value();
    } else {
      usage("unknown option");
    }
  }
  if (opt.cache.empty()) usage("--cache is required");
  try {
    if (prime_only) return prime(opt.cache);
    if (opt.spec == nullptr) usage("--workload is required");
    return run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dqn_e2e: %s\n", e.what());
    return 1;
  }
}
