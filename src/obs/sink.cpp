#include "obs/sink.hpp"

#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"

namespace dqn::obs {

std::string sink::to_json() const {
  registry_snapshot snap = metrics_.snapshot();
  const auto events = trace_.events();
  const auto journeys = journeys_.journeys();
  snap.counters["trace.dropped"] =
      snap.counters["trace.dropped"] + static_cast<double>(trace_.dropped());

  std::string out = "{";
  auto scalar_map = [&out](const char* key,
                           const std::map<std::string, double>& values) {
    out += '"';
    out += key;
    out += "\":{";
    bool first = true;
    for (const auto& [name, value] : values) {
      if (!first) out += ',';
      first = false;
      out += '"' + json_escape(name) + "\":" + json_number(value);
    }
    out += '}';
  };

  scalar_map("counters", snap.counters);
  out += ',';
  scalar_map("gauges", snap.gauges);

  out += ",\"histograms\":{";
  bool first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":{";
    out += "\"count\":" + json_number(static_cast<double>(h.count));
    out += ",\"sum\":" + json_number(h.sum);
    out += ",\"mean\":" + json_number(h.mean());
    out += ",\"stddev\":" + json_number(h.stddev());
    out += ",\"min\":" + json_number(h.min);
    out += ",\"max\":" + json_number(h.max);
    out += ",\"p50\":" + json_number(h.p50());
    out += ",\"p90\":" + json_number(h.p90());
    out += ",\"p99\":" + json_number(h.p99());
    out += ",\"p999\":" + json_number(h.p999());
    out += '}';
  }
  out += '}';

  out += ",\"events\":[";
  first = true;
  for (const auto& ev : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"stage\":\"" + json_escape(ev.stage) + '"';
    out += ",\"name\":\"" + json_escape(ev.name) + '"';
    out += ",\"index\":" + json_number(static_cast<double>(ev.index));
    out += ",\"start\":" + json_number(ev.start);
    out += ",\"duration\":" + json_number(ev.duration);
    out += ",\"value\":" + json_number(ev.value);
    out += ",\"span_id\":" + json_number(static_cast<double>(ev.span_id));
    out += ",\"parent_id\":" + json_number(static_cast<double>(ev.parent_id));
    out += ",\"thread\":" + json_number(static_cast<double>(ev.thread));
    out += '}';
  }
  out += ']';

  out += ",\"journeys\":[";
  first = true;
  for (const auto& journey : journeys) {
    if (!first) out += ',';
    first = false;
    out += "{\"pid\":" + json_number(static_cast<double>(journey.pid));
    out += ",\"flow\":" + json_number(static_cast<double>(journey.flow));
    out += ",\"send_time\":" + json_number(journey.send_time);
    out += ",\"delivery_time\":" + json_number(journey.delivery_time);
    out += ",\"hops\":[";
    bool first_hop = true;
    for (const auto& hop : journey.hops) {
      if (!first_hop) out += ',';
      first_hop = false;
      out += "{\"device\":" + json_number(static_cast<double>(hop.device));
      out += ",\"queue\":" + json_number(static_cast<double>(hop.queue));
      out += ",\"arrival\":" + json_number(hop.arrival);
      out += ",\"raw_delay\":" + json_number(hop.raw_delay);
      out += ",\"corrected_delay\":" + json_number(hop.corrected_delay);
      out += ",\"departure\":" + json_number(hop.departure);
      out += '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string sink::to_chrome_trace() const {
  return obs::to_chrome_trace(trace_.events());
}

util::text_table sink::summary_table() const {
  const registry_snapshot snap = metrics_.snapshot();
  util::text_table table{
      {"metric", "kind", "value", "mean", "min", "max", "p50", "p99"}};
  for (const auto& [name, value] : snap.counters)
    table.add_row({name, "counter", util::fmt(value, 0), "", "", "", "", ""});
  for (const auto& [name, value] : snap.gauges)
    table.add_row({name, "gauge", util::fmt(value, 6), "", "", "", "", ""});
  for (const auto& [name, h] : snap.histograms)
    table.add_row({name, "histogram", util::fmt(static_cast<double>(h.count), 0),
                   util::fmt(h.mean(), 6), util::fmt(h.min, 6),
                   util::fmt(h.max, 6), util::fmt(h.p50(), 6),
                   util::fmt(h.p99(), 6)});

  const auto it = snap.counters.find("trace.dropped");
  const double dropped = (it != snap.counters.end() ? it->second : 0.0) +
                         static_cast<double>(trace_.dropped());
  if (dropped > 0)
    table.add_footer("WARNING: trace.dropped = " + util::fmt(dropped, 0) +
                     " — the event ring overflowed; raise trace_log capacity "
                     "or lower event volume.");
  return table;
}

}  // namespace dqn::obs
