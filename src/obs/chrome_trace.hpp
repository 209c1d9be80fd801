// Chrome trace-event exporter: renders a trace_log's events as the JSON
// Trace Event Format consumed by chrome://tracing and ui.perfetto.dev.
// Every event becomes a complete ("ph":"X") slice with microsecond ts/dur,
// the recording thread's ordinal as tid, and span/parent ids under "args" —
// one dqn_network::run renders as a timeline of IRSA iterations fanning out
// into device visits and per-queue inference across the engine's workers.
#pragma once

#include <string>
#include <vector>

#include "obs/trace_log.hpp"

namespace dqn::obs {

[[nodiscard]] std::string to_chrome_trace(const std::vector<trace_event>& events);

}  // namespace dqn::obs
