// Packet and packet-stream types shared by the DES substrate and the
// DeepQueueNet core. A packet carries the paper's feature vector
// p = <pid, fid, len, trp> (§3.2.1) plus the scheduling attributes the
// feature-engineering stage augments it with (§4.1).
#pragma once

#include <cstdint>
#include <vector>

namespace dqn::traffic {

struct packet {
  std::uint64_t pid = 0;       // unique packet id
  std::uint32_t flow_id = 0;   // fid
  std::uint32_t size_bytes = 0;
  std::uint8_t protocol = 17;  // trp: 6 = TCP, 17 = UDP
  std::uint8_t priority = 0;   // SP class (0 = highest priority)
  std::uint16_t weight = 1;    // WFQ/WRR/DRR weight
  std::int32_t src_host = -1;
  std::int32_t dst_host = -1;
  // The packet's injection index within one estimator run, set by the
  // estimator when the packet enters the network: it indexes the run's
  // send-time array. Input values are ignored. It fills what was tail
  // padding, so a packet stays 32 bytes.
  std::uint32_t send_index = 0;
};
static_assert(sizeof(packet) == 32, "a packet is 32 bytes on every hop");

// A packet at a point in time — one element of a packet stream tau (Eq. 2).
struct packet_event {
  packet pkt;
  double time = 0;  // arrival time at the observation point, seconds

  friend bool operator<(const packet_event& a, const packet_event& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.pkt.pid < b.pkt.pid;  // deterministic tie-break
  }
};

// A time series of packet arrivals, sorted by time.
using packet_stream = std::vector<packet_event>;

// Merge multiple sorted streams into one sorted stream.
[[nodiscard]] packet_stream merge_streams(std::vector<packet_stream> streams);

// Verify the stream is sorted by time (used by invariant tests and IRSA).
[[nodiscard]] bool is_time_ordered(const packet_stream& stream) noexcept;

}  // namespace dqn::traffic
