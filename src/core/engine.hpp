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
// irsa_skip_unchanged off the engine runs Algorithm 1's schedule: it visits
// every device each round until no egress stream changes. Under both
// schedules a queue runs again only when a queue that feeds it, an edge of
// the graph, produced a stream that differs by any bit since the queue last
// ran; otherwise its arrivals and so its output are those of its last run,
// and they stand. The answer is Algorithm 1's, bit for bit.
//
// Parallelism: the work runs on `partitions` workers — the CPU analogue of
// the paper's model-parallel multi-GPU inference (Figure 11; DESIGN.md §2).
// The thread that calls run() is worker 0 and the rest are persistent pool
// threads (util/work_stealing_pool.hpp). Each IRSA round is two pool
// rounds. The device pass takes the devices in batches of about a quarter
// of a worker's share of the stage, drawn from shards built topology-aware
// once, at construction (topo/sharding.hpp: BFS-grown clusters minimizing
// cross-shard links, MimicNet-style). A device visit reads its feeds in
// place: one pass over each upstream egress stream shifts every packet by
// the link and routes it by its own destination, fusing apply_link and
// apply_forwarding, which stay the reference path
// (determinism.engine_matches_layer_pipeline holds the engine to them bit
// for bit), into the device's queues. The queue pass then infers each of
// those egress queues as its own task, the stealable unit, seeded longest
// first. The egress state workers read only changes between IRSA rounds,
// so the per-packet path takes no locks. SInit and delivery collection run
// on the same pool: SInit as one task per host, collection as per-host
// runs, then a pairwise merge tree. Delivery records are bit-identical
// across worker counts (tests/test_determinism.cpp).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/device_model.hpp"
#include "des/records.hpp"
#include "des/run_api.hpp"
#include "topo/graph.hpp"
#include "topo/queue_graph.hpp"
#include "topo/routing.hpp"
#include "util/work_stealing_pool.hpp"

namespace dqn::obs {
class sink;
}  // namespace dqn::obs

namespace dqn::core {

// Engine configuration, fixed when the engine is built. An aggregate: set
// it by field or designated initializer,
//
//   const core::engine_config cfg{.partitions = 4, .apply_sec = false,
//                                 .sink = &sink};
struct engine_config {
  std::size_t partitions = 1;      // "number of GPUs"
  std::size_t max_iterations = 0;  // 0 = 1 + diameter(G) (Theorem 3.1)
  bool apply_sec = true;           // §6.1 ablation hook
  bool record_hops = false;        // per-device predicted hops (visibility)
  // Run IRSA in dependency order (see the header comment): a queue outside
  // the cyclic level is inferred once, and the cyclic level re-infers only
  // devices a stream that moved beyond the convergence tolerance feeds — the
  // skip this field is named after. Disable to run Algorithm 1's schedule,
  // the paper's execution profile: every device visited each round, to the
  // fixed point, with the queues no moved stream feeds reused rather than
  // inferred again (bit-identical to re-inferring them).
  bool irsa_skip_unchanged = true;
  // Optional observability (obs/sink.hpp): per-iteration IRSA timings and
  // convergence deltas, per-partition busy time, skip counts, and the full
  // engine_stats re-expressed as registry metrics. Null = zero-overhead.
  obs::sink* sink = nullptr;
  // Which sojourn backend every run rides on (core/delay_provider.hpp): the
  // paper's PTM (default), the queueing-theoretic closed forms, or tiered:
  // the exact closed form for every FIFO queue and the PTM for the rest.
  // `ptm` may be null only on the analytical backend.
  des::delay_policy delay{};
};

struct engine_stats {
  std::size_t iterations = 0;          // IRSA rounds run (two pool rounds each)
  // IRSA convergence: the number of devices whose egress still changed in
  // the last round of the cyclic stage, and whether that was zero (the
  // fixed point). A run that stops at max_iterations with devices still
  // changing reports converged == false instead of passing for a fixed
  // point. An acyclic stage is final after its one round.
  bool converged = false;
  std::size_t final_changed_devices = 0;
  // Each round visits every device of its stage. A visit that runs at
  // least one queue is an inference; one that runs none is a skip (a device
  // the IRSA skip leaves out, or one whose queues no moved stream feeds).
  std::size_t device_inferences = 0;
  std::size_t devices_skipped = 0;
  std::size_t workers = 1;             // workers the run executed on (caller included)
  std::uint64_t steals = 0;            // work-stealing rebalances across iterations
  // Device-device links whose endpoints landed on different workers (the
  // boundary-exchange cut of the run's shard plan; see topo/sharding.hpp).
  std::size_t cross_shard_links = 0;
  double wall_seconds = 0;             // measured wall clock of run()
  // CPU-time accounting: total CPU time spent inside IRSA tasks, and its
  // critical path (sum over pool rounds of the slowest worker's CPU time).
  double busy_seconds = 0;
  double critical_path_seconds = 0;
  // How unevenly IRSA work landed after stealing: 0 = every worker
  // equally busy, 1 = the slowest worker carried twice its fair share
  // (critical_path * workers / busy - 1, clamped at 0).
  double shard_imbalance = 0;

  // Writes every field as an "engine.*" counter or gauge; a run with a sink
  // publishes its stats there.
  void publish(obs::sink& sink) const;
};

// Lifecycle: construct -> [set_device_context]* -> run() -> {stats(),
// egress_stream()}; run() may be called again with new streams (each run
// resets stats and egress state). The constructor fixes everything that
// depends only on (topology, routing, config): the IRSA schedule, the shard
// plan, each stage's device batches, and the worker pool.
// Misuse is rejected loudly rather than silently degraded, in every build:
//  * a host that does not have exactly one link throws
//    util::contract_violation at construction, and so does a null or
//    untrained PTM on the ptm and tiered backends (std::invalid_argument);
//  * set_device_context after the first run() throws std::logic_error
//    (overrides would not apply retroactively to completed runs);
//  * set_device_context on a host or on a node outside the topology throws
//    util::contract_violation;
//  * egress_stream before any run() throws std::logic_error;
//  * egress_stream with a node/port outside the topology throws
//    util::contract_violation naming the offending coordinates.
class dqn_network : public des::estimator {
 public:
  dqn_network(const topo::topology& topo, const topo::routing& routes,
              std::shared_ptr<const ptm_model> ptm, scheduler_context ctx,
              engine_config config);

  // Heterogeneous TM deployments: override the scheduler context of
  // individual devices (mirrors des::network_config::tm_overrides). Must be
  // called before the first run(); throws std::logic_error afterwards. A host
  // keeps its FIFO NIC, so `node` must be a device.
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

  // The sojourn backend every run() dispatches through, selected by
  // engine_config::delay.
  [[nodiscard]] const delay_provider& provider() const noexcept {
    return *provider_;
  }

  // Packet-level visibility: the final egress stream of any device port.
  // Valid only after run(); out-of-range (node, port) throws.
  [[nodiscard]] const traffic::packet_stream& egress_stream(topo::node_id node,
                                                            std::size_t port) const;

 private:
  // One IRSA stage's share of the shard plan: the device pass's tasks.
  // Each shard's devices that own a queue of the stage are chopped into
  // contiguous batches, which a worker drains in BFS order (cache-warm
  // neighbourhoods) and steals from stragglers. (The queue pass takes one
  // task per queue that runs, seeded each round.)
  struct stage_plan {
    std::vector<std::vector<std::size_t>> batches;  // batch -> device indices
    std::vector<std::vector<std::size_t>> seeds;    // worker -> batches
    std::vector<topo::node_id> nodes;               // the stage's devices
  };

  // A pool worker's scratch for the IRSA passes. It survives across run()
  // calls, so a repeated run does not grow it again.
  struct worker_scratch {
    std::vector<std::uint32_t> routes;   // device pass: each feed packet's port
    traffic::packet_stream merge_spare;  // queue pass: merge_runs' second buffer
  };

  const topo::topology* topo_;
  const topo::routing* routes_;
  std::unique_ptr<delay_provider> provider_;
  // Every queue call passes provider_, so the device models hold no PTM.
  device_model device_;
  device_model host_nic_;  // FIFO NIC model for host uplinks
  std::unordered_map<topo::node_id, device_model> device_overrides_;
  engine_config config_;
  // The egress-queue dependency graph: its edges tell a run which queues a
  // changed stream feeds, and its levels are the stages of the ordered
  // schedule.
  topo::queue_graph queue_graph_;
  // The IRSA schedule, fixed per (topology, routing, irsa_skip_unchanged):
  // the stage of every device egress queue, by queue index, and whether the
  // last stage is cyclic (only the last can be). Algorithm 1 is one cyclic
  // stage.
  std::vector<std::uint32_t> queue_stage_;
  bool last_stage_cyclic_ = true;
  std::vector<stage_plan> stages_;
  std::size_t cross_shard_links_ = 0;
  std::size_t max_batch_ = 0;  // the largest batch of any stage
  // SInit and collection take one task per host, in contiguous blocks per
  // worker.
  std::vector<std::vector<std::size_t>> host_seeds_;
  // Shard event labels: the event path is per round x worker, and allocating
  // labels there is measurable on large topologies.
  std::vector<std::string> shard_labels_;
  std::vector<worker_scratch> scratch_;  // one per pool worker
  engine_stats stats_;
  bool ran_ = false;
  std::vector<std::vector<traffic::packet_stream>> final_egress_;
  // The pool's parked worker threads serve every run and every pool round,
  // beside the calling thread. Declared last, so its threads are joined
  // before any member they use is destroyed.
  std::unique_ptr<util::work_stealing_pool> pool_;
};

}  // namespace dqn::core
