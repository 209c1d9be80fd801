// Device-level delay providers: the layer between the engine's per-queue
// inference loop and the sojourn models it can ride on (the interface mirrors
// Sniper's QueueModel hierarchy — one computeQueueDelay-style virtual,
// interchangeable backends, and a counter for the fraction served
// analytically).
//
// Three backends implement the interface:
//  * ptm_delay_provider       — the paper's learned PTM (+ SEC correction),
//                               exactly the pre-redesign inference path;
//  * analytical_delay_provider — queueing-theoretic closed forms evaluated
//                               per packet from the Lindley features the
//                               feature stage already computes (exact FIFO
//                               waits; SP/GPS priors for the rest), with the
//                               LDQBD/MAP machinery of src/queueing as the
//                               stationary reference (queueing/sojourn.hpp);
//  * tiered_delay_provider    — one stateless rule: a FIFO queue, host NICs
//                               included, takes the analytical backend,
//                               whose Lindley wait is exact for it; every
//                               other queue takes the PTM.
//
// Threading contract (matches the engine's partition loop): estimate_sojourn
// may be called concurrently, each call with its own workspace (or none); no
// backend keeps per-device state. bind_sink/prepare/publish are run-boundary
// calls made by a single thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/features.hpp"
#include "core/ptm.hpp"
#include "des/run_api.hpp"
#include "obs/handles.hpp"
#include "traffic/packet.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace dqn::obs {
class sink;
}  // namespace dqn::obs

namespace dqn::core {

// Everything a backend may consult about one egress queue's arrival series.
// Views are non-owning and valid only for the duration of the call.
struct device_state {
  std::int64_t device = -1;   // topology node id; -1 = host NIC model
  std::size_t port = 0;       // egress port within the device
  std::size_t iteration = 0;  // IRSA round this estimate belongs to
  const traffic::packet_stream* arrivals = nullptr;  // time-ordered series
  std::span<const double> feature_rows;  // (n, feature_count) raw features
  const scheduler_context* ctx = nullptr;  // port-resolved line rate
  // Offered load of the egress line over the arrival window. No backend
  // reads it and the engine leaves it 0; the bench/e2e layer replay still
  // writes it.
  double utilization = 0;
  bool apply_sec = true;            // §6.1 ablation flag (PTM backend only)
  nn::workspace* workspace = nullptr;  // caller-owned inference arena
  // Pre-correction sojourns for journey tracing (same length as the return
  // value); backends without a correction stage echo their estimates.
  std::vector<double>* raw_out = nullptr;
};

class delay_provider {
 public:
  virtual ~delay_provider() = default;

  // Predicted sojourn seconds (scheduler waiting time), one per packet in
  // state.arrivals, over the observation window `window_seconds`.
  [[nodiscard]] virtual std::vector<double> estimate_sojourn(
      const device_state& state, double window_seconds) = 0;

  // Short stable identifier: "ptm", "analytical", "tiered".
  [[nodiscard]] virtual const char* name() const noexcept = 0;

  // Run boundary: resolve lock-free metric handles against `sink` (nullptr
  // detaches). The engine calls this once per run, before any estimates.
  virtual void bind_sink(obs::sink* sink);

  // Run boundary: a no-op. No backend keeps per-device state, so none
  // overrides it; the hook stays because bench/e2e calls it, and the engine
  // still calls it once per run.
  virtual void prepare(std::size_t device_slots);

  // Run boundary: export counters/gauges accumulated since the last publish
  // (the engine calls this at the end of every sunk run).
  virtual void publish(obs::sink& sink);
};

// Construct the backend selected by `policy` over a shared trained PTM; the
// analytical backend needs none, so `ptm` may then be null.
[[nodiscard]] std::unique_ptr<delay_provider> make_delay_provider(
    std::shared_ptr<const ptm_model> ptm, const des::delay_policy& policy);

// ---------------------------------------------------------------------------
// Learned backend: runs ptm_model::predict_rows over the feature rows
// (+ SEC). This class is the only first-party predict call site outside the
// PTM itself — scripts/lint.sh enforces that everything else goes through a
// provider.
// ---------------------------------------------------------------------------
class ptm_delay_provider final : public delay_provider {
 public:
  explicit ptm_delay_provider(std::shared_ptr<const ptm_model> ptm);

  [[nodiscard]] std::vector<double> estimate_sojourn(
      const device_state& state, double window_seconds) override;
  [[nodiscard]] const char* name() const noexcept override { return "ptm"; }
  void bind_sink(obs::sink* sink) override;

  // Window-level access for model-study code (SEC residual figures, PTM
  // ablations, attention inspection): same contract as ptm_model::predict,
  // routed through the provider so the lint rule holds tree-wide.
  [[nodiscard]] std::vector<double> predict_windows(
      std::span<const double> windows, bool apply_sec = true,
      std::vector<double>* raw_out = nullptr) const;

  [[nodiscard]] const std::shared_ptr<const ptm_model>& model() const noexcept {
    return ptm_;
  }

 private:
  std::shared_ptr<const ptm_model> ptm_;
  obs::histogram_handle latency_seconds_;  // delay.ptm_seconds
};

// ---------------------------------------------------------------------------
// Analytical backend: per-packet closed forms from the raw feature rows.
// FIFO waits are the exact Lindley unfinished work; strict priority uses the
// own-or-higher-class work (the W_0 bound of §3.2.2's prior-knowledge
// clamp); weighted schedulers use the GPS wait estimate. No DNN, no SEC —
// cost is one table read per packet.
// ---------------------------------------------------------------------------
class analytical_delay_provider final : public delay_provider {
 public:
  analytical_delay_provider() = default;

  [[nodiscard]] std::vector<double> estimate_sojourn(
      const device_state& state, double window_seconds) override;
  [[nodiscard]] const char* name() const noexcept override {
    return "analytical";
  }
  void bind_sink(obs::sink* sink) override;

  // Stationary per-class mean waits for `ctx`'s discipline at arrival rate
  // `lambda_pps`, from the Appendix-B LDQBD model fed by a Poisson MAP
  // (queueing/sojourn.hpp adapter): the slow-but-exact reference the tests
  // hold this backend's empirical means against. `classes` <= 1 collapses to
  // single-class (M/M/1-like) service.
  [[nodiscard]] static std::vector<double> ldqbd_reference_waits(
      const scheduler_context& ctx, double lambda_pps, double mean_packet_bytes,
      std::size_t classes = 1, std::size_t truncation_level = 30);

 private:
  obs::histogram_handle latency_seconds_;  // delay.analytical_seconds
};

// ---------------------------------------------------------------------------
// Tiered backend: a FIFO queue takes the analytical backend, whose Lindley
// wait is exact for it; every other queue takes the PTM. The rule reads only
// the queue's scheduler, so an answer never depends on call order or thread.
// ---------------------------------------------------------------------------
class tiered_delay_provider final : public delay_provider {
 public:
  struct tier_stats {
    std::uint64_t analytical_packets = 0;
    std::uint64_t ptm_packets = 0;
    std::uint64_t analytical_calls = 0;
    std::uint64_t ptm_calls = 0;

    [[nodiscard]] double analytical_fraction() const noexcept {
      const std::uint64_t total = analytical_packets + ptm_packets;
      return total == 0
                 ? 0.0
                 : static_cast<double>(analytical_packets) /
                       static_cast<double>(total);
    }
  };

  explicit tiered_delay_provider(std::shared_ptr<const ptm_model> ptm);

  [[nodiscard]] std::vector<double> estimate_sojourn(
      const device_state& state, double window_seconds) override;
  [[nodiscard]] const char* name() const noexcept override { return "tiered"; }
  void bind_sink(obs::sink* sink) override;
  void publish(obs::sink& sink) override;

  [[nodiscard]] tier_stats stats() const noexcept;

 private:
  ptm_delay_provider ptm_;
  analytical_delay_provider analytical_;

  std::atomic<std::uint64_t> analytical_packets_{0};
  std::atomic<std::uint64_t> ptm_packets_{0};
  std::atomic<std::uint64_t> analytical_calls_{0};
  std::atomic<std::uint64_t> ptm_calls_{0};
  // publish() is documented single-thread (run boundary), but the guard makes
  // the contract checkable: concurrent publish() calls would double-count
  // deltas, so published_ is mutex-protected rather than trusted.
  util::mutex publish_mutex_;
  tier_stats published_ DQN_GUARDED_BY(publish_mutex_){};
};

}  // namespace dqn::core
