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
// forms; `tiered` gives every FIFO queue, host NICs included, the exact
// closed form and every other queue the PTM.
enum class delay_backend : std::uint8_t { ptm, analytical, tiered };

[[nodiscard]] inline const char* to_string(delay_backend backend) noexcept {
  switch (backend) {
    case delay_backend::ptm: return "ptm";
    case delay_backend::analytical: return "analytical";
    case delay_backend::tiered: return "tiered";
  }
  return "unknown";
}

struct delay_policy {
  delay_backend backend = delay_backend::ptm;
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
