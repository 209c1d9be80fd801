// obs::sink — the one handle instrumented code carries. It bundles a
// metric_registry (aggregates), a trace_log (hierarchical span events), a
// journey_tracer (sampled per-packet paths), and a shared time base
// (seconds since sink construction) so events from the engine, the DES, and
// PTM training land on one timeline.
//
// The convention throughout the repo: config structs carry an optional
// `obs::sink*` that defaults to nullptr, and every instrumentation site is
// guarded by that pointer — a null sink costs one predictable branch
// (see tests/test_obs.cpp's overhead check). The sink itself is thread-safe;
// pass the same instance to concurrent stages freely.
//
// Hot paths should pre-resolve metric handles (counter_handle_for and
// friends) once and record through them lock-free; the string-keyed
// count/gauge/observe calls below remain as the compatibility path. This is
// enforced, not advisory: scripts/ast_lint.py rejects string-keyed sink
// calls (and handle resolution) inside any DQN_HOT_PATH function — see
// docs/CONCURRENCY.md §hot-path discipline.
//
// Exports: `to_json()` emits the full snapshot (counters, gauges,
// histograms with quantiles, events, journeys) as a JSON document;
// `to_chrome_trace()` renders the span timeline for chrome://tracing /
// Perfetto; `summary_table()` renders the aggregate metrics as a
// util::text_table for terminal output.
#pragma once

#include <string>
#include <string_view>

#include "obs/journey.hpp"
#include "obs/metric_registry.hpp"
#include "obs/trace_log.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace dqn::obs {

class sink {
 public:
  sink() = default;

  sink(const sink&) = delete;
  sink& operator=(const sink&) = delete;

  // Seconds since this sink was constructed — the epoch for event starts.
  [[nodiscard]] double now() const noexcept { return epoch_.elapsed_seconds(); }

  void count(std::string_view name, double delta = 1.0) {
    metrics_.add(name, delta);
  }
  void gauge(std::string_view name, double value) { metrics_.set(name, value); }
  void observe(std::string_view name, double value) {
    metrics_.observe(name, value);
  }
  void event(std::string_view stage, std::string_view name, std::uint64_t index,
             double start, double duration, double value = 0.0) {
    trace_.record({std::string{stage}, std::string{name}, index, start,
                   duration, value, 0, 0, thread_ordinal()});
  }

  // Pre-registered lock-free handles (see handles.hpp); resolve once
  // outside the hot loop, then record without taking any lock.
  [[nodiscard]] counter_handle counter_handle_for(std::string_view name) {
    return metrics_.counter_handle_for(name);
  }
  [[nodiscard]] gauge_handle gauge_handle_for(std::string_view name) {
    return metrics_.gauge_handle_for(name);
  }
  [[nodiscard]] histogram_handle histogram_handle_for(std::string_view name) {
    return metrics_.histogram_handle_for(name);
  }

  [[nodiscard]] metric_registry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const metric_registry& metrics() const noexcept { return metrics_; }
  [[nodiscard]] trace_log& trace() noexcept { return trace_; }
  [[nodiscard]] const trace_log& trace() const noexcept { return trace_; }
  [[nodiscard]] journey_tracer& journeys() noexcept { return journeys_; }
  [[nodiscard]] const journey_tracer& journeys() const noexcept {
    return journeys_;
  }

  // Full snapshot as one JSON document:
  //   {"counters": {...}, "gauges": {...}, "histograms": {...},
  //    "events": [...], "journeys": [...]}
  // Histogram objects carry p50/p90/p99/p999 next to the moments, the
  // counters map includes "trace.dropped" (ring-buffer evictions), and
  // events carry span_id/parent_id/thread — all additive next to the
  // original keys, so existing consumers keep parsing.
  [[nodiscard]] std::string to_json() const;

  // The span timeline as Chrome trace-event JSON (chrome_trace.hpp).
  [[nodiscard]] std::string to_chrome_trace() const;

  // Aggregate metrics (no events) as a rendered table. When events were
  // dropped (trace.dropped > 0) the table carries a WARNING footer — a
  // summary that silently hides data loss is worse than none.
  [[nodiscard]] util::text_table summary_table() const;

  void clear() {
    metrics_.clear();
    trace_.clear();
    journeys_.clear();
  }

 private:
  util::stopwatch epoch_;
  metric_registry metrics_;
  trace_log trace_;
  journey_tracer journeys_;
};

}  // namespace dqn::obs
