#include "core/delay_provider.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/sink.hpp"
#include "queueing/sojourn.hpp"
#include "util/check.hpp"

namespace dqn::core {

namespace {

// Feature rows arrive flattened (n, feature_count).
std::size_t row_count(const device_state& state) {
  DQN_ENSURE(state.feature_rows.size() % feature_count == 0,
             "delay_provider: feature rows not a multiple of feature_count (",
             state.feature_rows.size(), ")");
  return state.feature_rows.size() / feature_count;
}

}  // namespace

void delay_provider::bind_sink(obs::sink* /*sink*/) {}
void delay_provider::prepare(std::size_t /*device_slots*/) {}
void delay_provider::publish(obs::sink& /*sink*/) {}

std::unique_ptr<delay_provider> make_delay_provider(
    std::shared_ptr<const ptm_model> ptm, const des::delay_policy& policy) {
  switch (policy.backend) {
    case des::delay_backend::ptm:
      return std::make_unique<ptm_delay_provider>(std::move(ptm));
    case des::delay_backend::analytical:
      return std::make_unique<analytical_delay_provider>();
    case des::delay_backend::tiered:
      return std::make_unique<tiered_delay_provider>(std::move(ptm));
  }
  throw std::invalid_argument{"make_delay_provider: unknown backend"};
}

// ---------------------------------------------------------------------------
// PTM backend
// ---------------------------------------------------------------------------

ptm_delay_provider::ptm_delay_provider(std::shared_ptr<const ptm_model> ptm)
    : ptm_{std::move(ptm)} {
  if (!ptm_ || !ptm_->trained())
    throw std::invalid_argument{"ptm_delay_provider: needs a trained PTM"};
}

void ptm_delay_provider::bind_sink(obs::sink* sink) {
  latency_seconds_ = sink != nullptr
                         ? sink->histogram_handle_for("delay.ptm_seconds")
                         : obs::histogram_handle{};
}

std::vector<double> ptm_delay_provider::predict_windows(
    std::span<const double> windows, bool apply_sec,
    std::vector<double>* raw_out) const {
  return ptm_->predict(windows, apply_sec, raw_out);
}

std::vector<double> ptm_delay_provider::estimate_sojourn(
    const device_state& state, double /*window_seconds*/) {
  auto sojourns =
      state.workspace != nullptr
          ? ptm_->predict_rows(state.feature_rows, *state.workspace,
                               state.apply_sec, state.raw_out)
          : ptm_->predict_rows(state.feature_rows, state.apply_sec,
                               state.raw_out);
  if (latency_seconds_)
    for (const double s : sojourns) latency_seconds_.observe(s);
  return sojourns;
}

// ---------------------------------------------------------------------------
// Analytical backend
// ---------------------------------------------------------------------------

void analytical_delay_provider::bind_sink(obs::sink* sink) {
  latency_seconds_ =
      sink != nullptr ? sink->histogram_handle_for("delay.analytical_seconds")
                      : obs::histogram_handle{};
}

std::vector<double> analytical_delay_provider::estimate_sojourn(
    const device_state& state, double /*window_seconds*/) {
  DQN_ENSURE(state.ctx != nullptr,
             "analytical_delay_provider: device_state.ctx is required");
  const std::size_t n = row_count(state);
  // Pick the closed-form wait for the discipline. FIFO's Lindley unfinished
  // work is the *exact* waiting time; SP's own-or-higher-class work is the
  // W_0 bound of the device model's prior-knowledge clamp; the weighted
  // disciplines use the GPS wait estimate (exact under permanent backlog).
  std::size_t column = f_gps_wait;
  switch (state.ctx->kind) {
    case des::scheduler_kind::fifo: column = f_unfinished_work; break;
    case des::scheduler_kind::sp: column = f_own_class_work; break;
    default: column = f_gps_wait; break;
  }
  std::vector<double> sojourns(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double wait = state.feature_rows[i * feature_count + column];
    DQN_INVARIANT(wait >= 0 && std::isfinite(wait),
                  "analytical_delay_provider: bad feature wait ", wait);
    sojourns[i] = wait;
  }
  if (latency_seconds_)
    for (const double s : sojourns) latency_seconds_.observe(s);
  if (state.raw_out != nullptr) *state.raw_out = sojourns;  // no SEC stage
  return sojourns;
}

std::vector<double> analytical_delay_provider::ldqbd_reference_waits(
    const scheduler_context& ctx, double lambda_pps, double mean_packet_bytes,
    std::size_t classes, std::size_t truncation_level) {
  DQN_ENSURE(lambda_pps > 0, "ldqbd_reference_waits: lambda must be > 0 (got ",
             lambda_pps, ")");
  DQN_ENSURE(mean_packet_bytes > 0,
             "ldqbd_reference_waits: mean packet size must be > 0 (got ",
             mean_packet_bytes, ")");
  DQN_ENSURE(ctx.bandwidth_bps > 0,
             "ldqbd_reference_waits: line rate must be > 0");
  const double mu = ctx.bandwidth_bps / (mean_packet_bytes * 8.0);

  // Poisson arrivals are the one-state MAP d0 = [[-lambda]], d1 = [[lambda]].
  queueing::matrix d0{1, 1};
  queueing::matrix d1{1, 1};
  d0(0, 0) = -lambda_pps;
  d1(0, 0) = lambda_pps;
  queueing::map_process arrivals{std::move(d0), std::move(d1)};

  queueing::scheduler_model_config config;
  const std::size_t k = std::max<std::size_t>(classes, 1);
  config.class_probs.assign(k, 1.0 / static_cast<double>(k));
  config.service_rate = mu;
  config.truncation_level = truncation_level;
  if (ctx.kind == des::scheduler_kind::sp) {
    config.discipline = queueing::scheduler_discipline::sp;
  } else {
    // FIFO collapses to single-class WFQ; WRR/DRR/WFQ share the GPS-style
    // state-dependent service split of Appendix B.1.2.
    config.discipline = queueing::scheduler_discipline::wfq;
    config.weights = ctx.class_weights.size() == k ? ctx.class_weights
                                                   : std::vector<double>(k, 1.0);
  }
  queueing::ldqbd_scheduler_model model{std::move(arrivals), std::move(config)};
  model.solve();
  return queueing::stationary_mean_waits(model, mu);
}

// ---------------------------------------------------------------------------
// Tiered backend
// ---------------------------------------------------------------------------

tiered_delay_provider::tiered_delay_provider(
    std::shared_ptr<const ptm_model> ptm)
    : ptm_{std::move(ptm)} {}

void tiered_delay_provider::bind_sink(obs::sink* sink) {
  ptm_.bind_sink(sink);
  analytical_.bind_sink(sink);
}

std::vector<double> tiered_delay_provider::estimate_sojourn(
    const device_state& state, double window_seconds) {
  const std::size_t n = row_count(state);
  // Under FIFO the closed form is the exact Lindley wait, not an estimate.
  if (state.ctx != nullptr && state.ctx->kind == des::scheduler_kind::fifo) {
    analytical_calls_.fetch_add(1, std::memory_order_relaxed);
    analytical_packets_.fetch_add(n, std::memory_order_relaxed);
    return analytical_.estimate_sojourn(state, window_seconds);
  }
  ptm_calls_.fetch_add(1, std::memory_order_relaxed);
  ptm_packets_.fetch_add(n, std::memory_order_relaxed);
  return ptm_.estimate_sojourn(state, window_seconds);
}

tiered_delay_provider::tier_stats tiered_delay_provider::stats() const noexcept {
  tier_stats s;
  s.analytical_packets = analytical_packets_.load(std::memory_order_relaxed);
  s.ptm_packets = ptm_packets_.load(std::memory_order_relaxed);
  s.analytical_calls = analytical_calls_.load(std::memory_order_relaxed);
  s.ptm_calls = ptm_calls_.load(std::memory_order_relaxed);
  return s;
}

void tiered_delay_provider::publish(obs::sink& sink) {
  // Counters are monotone totals; emit the delta since the last publish so a
  // sink shared across runs accumulates correctly. The fraction is the
  // lifetime ratio (a gauge: last write wins).
  const tier_stats now = stats();
  const util::lock_guard lock{publish_mutex_};
  const auto delta = [](std::uint64_t current, std::uint64_t prior) {
    return static_cast<double>(current - prior);
  };
  sink.count("tiered.analytical_packets",
             delta(now.analytical_packets, published_.analytical_packets));
  sink.count("tiered.ptm_packets",
             delta(now.ptm_packets, published_.ptm_packets));
  sink.count("tiered.analytical_calls",
             delta(now.analytical_calls, published_.analytical_calls));
  sink.count("tiered.ptm_calls", delta(now.ptm_calls, published_.ptm_calls));
  sink.gauge("tiered.analytical_fraction", now.analytical_fraction());
  published_ = now;
}

}  // namespace dqn::core
