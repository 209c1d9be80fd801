// Hierarchical scoped spans: the structured replacement for flat trace
// events. A scoped_span times its scope and, on destruction (or an early
// stop()), records a trace_event carrying a process-unique span id, the id
// of its parent span, and the recording thread's ordinal — chrome_trace.hpp
// turns the result into a Perfetto-loadable timeline.
//
// Parent linkage is automatic within a thread: each thread keeps a stack of
// open spans, and a new span adopts the innermost open one as its parent.
// Across threads (engine workers, work-stealing pool tasks) pass the
// owning span's id() explicitly as the `parent` argument — the thread-local
// stack of the spawning thread is not visible from the worker.
//
// Null-sink cost is one branch in the constructor and one in stop(); no
// clock reads, ids, or allocation happen for a null sink.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/sink.hpp"

namespace dqn::obs {

// Sentinel for "adopt the calling thread's innermost open span".
inline constexpr std::uint64_t auto_parent = ~std::uint64_t{0};

class scoped_span {
 public:
  scoped_span(sink* s, std::string_view stage, std::string_view name,
              std::uint64_t index = 0, double value = 0.0,
              std::uint64_t parent = auto_parent);

  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

  ~scoped_span() { stop(); }

  // Update the payload recorded with the event (e.g. a loss computed after
  // construction but before scope exit).
  void set_value(double value) noexcept { value_ = value; }

  // Process-unique id of this span; 0 for a null sink. Pass it as `parent`
  // to spans opened on other threads on this span's behalf.
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  // Record now instead of at scope exit; idempotent. Returns the span's
  // duration in seconds (0 for a null sink or an already-stopped span).
  double stop();

 private:
  sink* sink_;
  std::string stage_;
  std::string name_;
  std::uint64_t index_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  double value_ = 0;
  double start_ = 0;
};

}  // namespace dqn::obs
