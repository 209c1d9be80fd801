// Configuration of the live telemetry plane (obs/telemetry/telemetry.hpp):
// a background sampler that turns the metric registry into a bounded time
// series, OS resource gauges, and an optional embedded HTTP exposition
// endpoint, started with obs::sink::start_telemetry. Deliberately
// dependency-free (no sink include) so any config struct can embed it
// without layering cycles.
//
// The plane is opt-in everywhere: `enabled` defaults to false and a default
// config costs nothing. `metrics_port` stays independent of `enabled` so a
// caller can run the sampler without exposing an endpoint (in-process ring
// consumers, benches) — the server starts only when the port is >= 0.
#pragma once

#include <cstddef>
#include <string>

namespace dqn::obs::telemetry {

struct telemetry_config {
  // Master switch for the background sampler (and, with metrics_port >= 0,
  // the exposition server). Off = the plane is never constructed.
  bool enabled = false;
  // Sampling period of the snapshot + resource sampler. Every tick captures
  // one delta snapshot into the ring and refreshes the process.* gauges.
  unsigned sample_period_ms = 250;
  // Bounded ring of timestamped snapshots; 240 samples at the default
  // 250 ms period keeps a one-minute sliding window.
  std::size_t ring_capacity = 240;
  // HTTP exposition endpoint: < 0 = no server, 0 = bind an ephemeral port
  // (read the bound one back from telemetry_plane::metrics_port()), > 0 =
  // bind exactly this port.
  int metrics_port = -1;
  // Listener bind address; loopback by default — exposing run internals on
  // a routable interface is an explicit caller decision.
  std::string bind_address = "127.0.0.1";

  telemetry_config& with_enabled(bool on) noexcept {
    enabled = on;
    return *this;
  }
  telemetry_config& with_sample_period_ms(unsigned ms) noexcept {
    sample_period_ms = ms;
    return *this;
  }
  telemetry_config& with_ring_capacity(std::size_t capacity) noexcept {
    ring_capacity = capacity;
    return *this;
  }
  telemetry_config& with_metrics_port(int port) noexcept {
    metrics_port = port;
    return *this;
  }
  telemetry_config& with_bind_address(std::string address) {
    bind_address = std::move(address);
    return *this;
  }
};

}  // namespace dqn::obs::telemetry
