// SInit + SRun (§3.1.1): composes trained device models along the target
// topology into a DeepQueueNet model (Figure 1) and executes it.
//
// Execution is the Iterative Re-Sequencing Algorithm (IRSA, Algorithm 1):
// every device repeatedly re-infers its egress streams from its upstream
// neighbours' previous-iteration egress streams until the network reaches a
// fixed point; Theorem 3.1 bounds the iterations by the topology diameter.
// By default the engine orders that work on the egress-queue dependency
// graph (topo/queue_graph.hpp): it runs the graph's levels in order, so a
// queue neither on a cycle nor fed by one is inferred once, over its final
// arrivals, and only the last, cyclic level iterates — skipping devices no
// changed stream feeds, at most 1 + diameter rounds. Every fat-tree and line
// is acyclic; on a torus the cyclic level holds every queue. With
// irsa_skip_unchanged off the engine runs Algorithm 1 itself: every device,
// every round, until no egress stream changes.
//
// Parallelism: the device set is sharded across `partitions` persistent
// worker threads — the CPU analogue of the paper's model-parallel multi-GPU
// inference (Figure 11; DESIGN.md §2). Shards are built topology-aware by
// default (topo/sharding.hpp: BFS-grown clusters minimizing cross-shard
// links, MimicNet-style), device batches are the stealable unit
// (util/work_stealing_pool.hpp rebalances stragglers within an IRSA
// iteration), and the egress state workers read only changes between
// iterations, so the per-packet path takes no locks. A device visit reads
// its feeds in place: one pass over each upstream egress stream shifts
// every packet by the link and routes it by its own destination, fusing
// apply_link and apply_forwarding, which stay the reference path
// (determinism.engine_matches_layer_pipeline holds the engine to them bit
// for bit). SInit and delivery collection run on the same pool: SInit as
// one task per host, collection as per-host runs, then a pairwise merge
// tree. Delivery records are bit-identical across shard counts and
// strategies (tests/test_determinism.cpp).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/device_model.hpp"
#include "des/records.hpp"
#include "des/run_api.hpp"
#include "topo/graph.hpp"
#include "topo/routing.hpp"
#include "topo/sharding.hpp"
#include "util/work_stealing_pool.hpp"

namespace dqn::obs {
class metric_registry;
class sink;
}  // namespace dqn::obs

namespace dqn::core {

// Engine configuration. Remains an aggregate — brace/designated init keeps
// working — but the preferred construction style is the documented builder
// chain:
//
//   auto cfg = core::engine_config{}
//                  .with_partitions(4)
//                  .with_sec(false)
//                  .with_sink(&sink);
struct engine_config {
  std::size_t partitions = 1;      // "number of GPUs"
  std::size_t max_iterations = 0;  // 0 = 1 + diameter(G) (Theorem 3.1)
  bool apply_sec = true;           // §6.1 ablation hook
  bool record_hops = false;        // per-device predicted hops (visibility)
  // Run IRSA in dependency order (see the header comment): a queue outside
  // the cyclic level is inferred once, and the cyclic level re-infers only
  // devices a changed stream feeds — the skip this field is named after. Both save
  // work over the paper's Algorithm 1, which recomputes every device each
  // iteration; disable to run Algorithm 1 itself, the paper's execution
  // profile.
  bool irsa_skip_unchanged = true;
  // Optional observability (obs/sink.hpp): per-iteration IRSA timings and
  // convergence deltas, per-partition busy time, skip counts, and the full
  // engine_stats re-expressed as registry metrics. Null = zero-overhead.
  obs::sink* sink = nullptr;
  // Which sojourn backend the run rides on (core/delay_provider.hpp): the
  // paper's PTM (default), the queueing-theoretic closed forms, or the
  // tiered policy that routes each device by utilization. A run_request may
  // override this per run (des::run_request::delay).
  des::delay_policy delay;
  // How devices are assigned to workers (topo/sharding.hpp). `topology`
  // (default) BFS-grows connected shards that minimize cross-shard links;
  // `round_robin` is the legacy interleaving, kept as the determinism
  // reference. Either way results are bit-identical — the strategy only
  // decides where a device is computed.
  topo::shard_strategy sharding = topo::shard_strategy::topology;
  // Devices per stealable batch. 0 = auto: shards split into ~4 batches per
  // worker, small enough that a straggling shard rebalances within an IRSA
  // iteration, large enough that deque traffic stays off the profile.
  std::size_t steal_batch = 0;

  // Number of parallel inference partitions ("GPUs"); must be >= 1.
  engine_config& with_partitions(std::size_t n) noexcept {
    partitions = n;
    return *this;
  }
  // Iteration cap; 0 restores the 1 + diameter(G) bound of Theorem 3.1.
  engine_config& with_max_iterations(std::size_t n) noexcept {
    max_iterations = n;
    return *this;
  }
  // Enable/disable statistical error correction (§6.1 ablation).
  engine_config& with_sec(bool enabled) noexcept {
    apply_sec = enabled;
    return *this;
  }
  // Record per-device predicted hops into the run_result (visibility).
  engine_config& with_hop_records(bool enabled) noexcept {
    record_hops = enabled;
    return *this;
  }
  // Dependency-ordered IRSA (true) or the paper's Algorithm 1 (false).
  engine_config& with_irsa_skip(bool enabled) noexcept {
    irsa_skip_unchanged = enabled;
    return *this;
  }
  // Attach an observability sink (nullptr detaches).
  engine_config& with_sink(obs::sink* s) noexcept {
    sink = s;
    return *this;
  }
  // Install a full delay policy (backend + tiering knobs).
  engine_config& with_delay_policy(des::delay_policy policy) noexcept {
    delay = policy;
    return *this;
  }
  // Select the sojourn backend, keeping the policy's other knobs.
  engine_config& with_delay_backend(des::delay_backend backend) noexcept {
    delay.backend = backend;
    return *this;
  }
  // Select the device-to-worker sharding strategy.
  engine_config& with_sharding(topo::shard_strategy strategy) noexcept {
    sharding = strategy;
    return *this;
  }
  // Devices per stealable batch (0 = auto).
  engine_config& with_steal_batch(std::size_t devices) noexcept {
    steal_batch = devices;
    return *this;
  }
};

struct engine_stats {
  std::size_t iterations = 0;          // IRSA pool rounds actually run
  // IRSA convergence: the number of devices whose egress still changed in
  // the last round of the cyclic stage, and whether that was zero (the
  // fixed point). A run that stops at max_iterations with devices still
  // changing reports converged == false instead of passing for a fixed
  // point. An acyclic stage is final after its one round.
  bool converged = false;
  std::size_t final_changed_devices = 0;
  std::size_t device_inferences = 0;   // (device, round) inferences
  std::size_t devices_skipped = 0;     // IRSA-skip hits across rounds
  std::size_t workers = 1;             // worker threads the run executed on
  std::uint64_t steals = 0;            // work-stealing rebalances across iterations
  // Device-device links whose endpoints landed on different workers (the
  // boundary-exchange cut of the run's shard plan; see topo/sharding.hpp).
  std::size_t cross_shard_links = 0;
  double wall_seconds = 0;             // measured wall clock of run()
  // CPU-time accounting: total CPU time spent inside shard work, and its
  // critical path (sum over iterations of the slowest worker's CPU time).
  double busy_seconds = 0;
  double critical_path_seconds = 0;
  // How unevenly iteration work landed after stealing: 0 = every worker
  // equally busy, 1 = the slowest worker carried twice its fair share
  // (critical_path * workers / busy - 1, clamped at 0).
  double shard_imbalance = 0;

  // engine_stats is re-expressed on top of the obs registry: publish writes
  // every field as an "engine.*" counter/gauge, and from_registry
  // reconstructs an identical struct from those metrics (the struct is a
  // cached view; the registry is the source of truth when a sink is wired).
  void publish(obs::sink& sink) const;
  [[nodiscard]] static engine_stats from_registry(const obs::metric_registry& registry);
};

// Lifecycle: construct -> [set_device_context]* -> run() -> {stats(),
// egress_stream()}; run() may be called again with new streams (each run
// resets stats and egress state). Misuse is rejected loudly rather than
// silently degraded:
//  * set_device_context after the first run() throws std::logic_error
//    (overrides would not apply retroactively to completed runs);
//  * egress_stream before any run() throws std::logic_error;
//  * egress_stream with a node/port outside the topology throws
//    std::out_of_range naming the offending coordinates.
class dqn_network : public des::estimator {
 public:
  dqn_network(const topo::topology& topo, const topo::routing& routes,
              std::shared_ptr<const ptm_model> ptm, scheduler_context ctx,
              engine_config config);

  // Heterogeneous TM deployments: override the scheduler context of
  // individual devices (mirrors des::network_config::tm_overrides). Must be
  // called before the first run(); throws std::logic_error afterwards.
  void set_device_context(topo::node_id node, scheduler_context ctx);

  // Same contract as des::network::run: host_streams[i] feeds
  // topo.hosts()[i], src/dst are host indices. Returns delivery records (and
  // hop records when record_hops is set) comparable 1:1 with the DES.
  [[nodiscard]] des::run_result run(
      const std::vector<traffic::packet_stream>& host_streams, double horizon);

  // Unified estimator contract (des/run_api.hpp); a non-null request.sink
  // overrides the configured sink for this run.
  [[nodiscard]] des::run_result run(const des::run_request& request) override;
  [[nodiscard]] const char* estimator_name() const noexcept override {
    return "deepqueuenet";
  }

  [[nodiscard]] const engine_stats& stats() const noexcept { return stats_; }

  // The sojourn backend the next run() will dispatch through (selected by
  // engine_config::delay, or per run by run_request::delay_policy).
  [[nodiscard]] const delay_provider& provider() const noexcept {
    return *provider_;
  }

  // Packet-level visibility: the final egress stream of any device port.
  // Valid only after run(); out-of-range (node, port) throws.
  [[nodiscard]] const traffic::packet_stream& egress_stream(topo::node_id node,
                                                            std::size_t port) const;

 private:
  // The run both public overloads share: they differ only in where this
  // run's sink, sojourn backend and worker count come from.
  [[nodiscard]] des::run_result run_core(
      const std::vector<traffic::packet_stream>& host_streams, double horizon,
      obs::sink* sink, delay_provider& provider, std::size_t partitions);

  // The IRSA stage of the egress queue behind `port` of device `node`.
  [[nodiscard]] std::size_t stage_of(topo::node_id node, std::size_t port) const {
    return queue_stage_[static_cast<std::size_t>(node)][port];
  }

  // Reuse pool_ when its size matches; (re)build it otherwise. The pool —
  // and its parked worker threads — survives across run() calls, so repeated
  // runs and all IRSA iterations share one thread-creation cost.
  util::work_stealing_pool& ensure_pool(std::size_t workers);

  const topo::topology* topo_;
  const topo::routing* routes_;
  std::shared_ptr<const ptm_model> ptm_;
  std::unique_ptr<delay_provider> provider_;
  device_model device_;
  device_model host_nic_;  // FIFO NIC model for host uplinks
  std::unordered_map<topo::node_id, device_model> device_overrides_;
  engine_config config_;
  // The IRSA schedule, fixed per (topology, routing, irsa_skip_unchanged):
  // the stage of every device egress queue, [node][port], and whether the
  // last stage is cyclic (only the last can be). Algorithm 1 is one cyclic
  // stage.
  std::vector<std::vector<std::uint32_t>> queue_stage_;
  std::size_t stage_count_ = 1;
  bool last_stage_cyclic_ = true;
  engine_stats stats_;
  bool ran_ = false;
  std::unique_ptr<util::work_stealing_pool> pool_;
  // The second buffer of each pool worker's run merges in a device visit.
  // Like the pool it survives across run() calls, so a repeated run does not
  // grow it again.
  std::vector<traffic::packet_stream> merge_spares_;
  std::vector<std::vector<traffic::packet_stream>> final_egress_;
};

}  // namespace dqn::core
