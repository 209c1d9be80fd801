// The unified estimator run contract. Every network performance estimator in
// the repo — the DES oracle (des::network), the DeepQueueNet engine
// (core::dqn_network), and the three baselines (fluid, RouteNet, MimicNet) —
// accepts the same run_request and produces the same des::run_result, so
// benches and examples switch estimators through one code path instead of
// per-type plumbing.
//
// A run_request is a non-owning view: `host_streams` must outlive the call
// (stream i feeds topo.hosts()[i]; packet src/dst fields are host indices).
// The packet-level estimators reject, with util::contract_violation, a
// horizon that is not finite and > 0, a stream whose send times decrease and
// a pid sent twice.
// `sink` is optional observability — when non-null it overrides any sink the
// estimator's own config carries for the duration of the run. Everything
// else an estimator needs (for the engine: its sojourn backend and worker
// count) is fixed when the estimator is built.
#pragma once

#include <cstdint>
#include <vector>

#include "des/records.hpp"
#include "traffic/packet.hpp"

namespace dqn::obs {
class sink;
}  // namespace dqn::obs

namespace dqn::des {

// Which sojourn-estimation backend a DeepQueueNet engine rides on (see
// core/delay_provider.hpp), chosen by core::engine_config::delay. `ptm` is
// the paper's per-device DNN; `analytical` the queueing-theoretic closed
// forms; `tiered` routes each device by the runtime policy below.
enum class delay_backend : std::uint8_t { ptm, analytical, tiered };

[[nodiscard]] inline const char* to_string(delay_backend backend) noexcept {
  switch (backend) {
    case delay_backend::ptm: return "ptm";
    case delay_backend::analytical: return "analytical";
    case delay_backend::tiered: return "tiered";
  }
  return "unknown";
}

// Runtime policy of the tiered backend, re-evaluated per device per IRSA
// iteration. A device starts on the analytical tier iff its egress-queue
// utilization is strictly below `utilization_threshold`, so threshold 0
// sends every non-FIFO queue to the PTM; FIFO queues, host NICs included,
// always take the exact closed form, and nothing below applies to them. A
// device is promoted to the PTM when utilization exceeds threshold +
// hysteresis and demoted back when it falls below threshold - hysteresis
// (the band prevents tier flapping across iterations). `error_budget` is the
// relative mean-sojourn deviation the analytical tier is allowed. A bounded
// shadow check runs both backends on the last 128 packets of a device's
// first analytical window (a window of at most 128 + time_steps - 1 packets
// whole) and records each packet's gap in the
// tiered.shadow_abs_error_seconds histogram; a mean gap beyond the budget
// promotes the device to the PTM for the rest of the run (<= 0 disables the
// check).
struct delay_policy {
  delay_backend backend = delay_backend::ptm;
  double utilization_threshold = 0.35;
  double hysteresis = 0.05;
  double error_budget = 0.25;
};

struct run_request {
  const std::vector<traffic::packet_stream>* host_streams = nullptr;
  double horizon = 0;
  obs::sink* sink = nullptr;
};

// Polymorphic face of the contract for code that selects estimators at
// runtime (see bench/ and tests/test_obs.cpp). Implementations bind their
// network context (topology, routing, trained models) at construction or via
// their own setters; run() may be called repeatedly.
class estimator {
 public:
  virtual ~estimator() = default;

  [[nodiscard]] virtual run_result run(const run_request& request) = 0;

  // Short stable identifier, e.g. "des", "deepqueuenet", "fluid".
  [[nodiscard]] virtual const char* estimator_name() const noexcept = 0;
};

}  // namespace dqn::des
