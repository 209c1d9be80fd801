#include "des/records.hpp"

#include <algorithm>

namespace dqn::des {

std::optional<std::uint64_t> duplicate_pid(
    const std::vector<traffic::packet_stream>& host_streams, double horizon) {
  std::size_t packets = 0;
  for (const auto& stream : host_streams) packets += stream.size();
  std::vector<std::uint64_t> pids;
  pids.reserve(packets);
  for (const auto& stream : host_streams)
    for (std::size_t i = 0; i < stream.size() && stream[i].time <= horizon; ++i)
      pids.push_back(stream[i].pkt.pid);
  // A merge sort: the rising pid runs of a host's flows make it cheaper
  // here than std::sort.
  std::stable_sort(pids.begin(), pids.end());
  const auto it = std::adjacent_find(pids.begin(), pids.end());
  if (it == pids.end()) return std::nullopt;
  return *it;
}

std::map<std::uint32_t, std::vector<double>> per_flow_latencies(
    const run_result& result) {
  std::map<std::uint32_t, std::vector<double>> out;
  for (const auto& d : result.deliveries) out[d.flow_id].push_back(d.latency());
  return out;
}

std::vector<double> all_latencies(const run_result& result) {
  std::vector<double> out;
  out.reserve(result.deliveries.size());
  for (const auto& d : result.deliveries) out.push_back(d.latency());
  return out;
}

}  // namespace dqn::des
