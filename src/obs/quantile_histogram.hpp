// Log-bucketed quantile histogram: fixed-size bucket array over a geometric
// grid (16 sub-buckets per octave, exponents 2^-40 .. 2^24), giving ~3%
// relative quantile resolution over ~19 decades of positive values with no
// per-sample allocation. This is what lets the obs layer report tail
// latency (p99/p99.9 — the metric the paper evaluates with W1 distance)
// from an always-on histogram instead of stored samples.
//
// Values below the grid (including zero and negatives) land in the
// underflow bucket, values above it in the overflow bucket; their quantile
// estimates degrade to the grid edges, so callers that track exact min/max
// (histogram_stats does) should clamp the returned quantile to [min, max].
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace dqn::obs {

class quantile_histogram {
 public:
  // Grid geometry: 64 octaves x 16 linear sub-buckets, plus underflow (index
  // 0) and overflow (last index).
  static constexpr int min_exponent = -40;  // 2^-40 ~ 9.1e-13
  static constexpr int max_exponent = 24;   // 2^24  ~ 1.7e7
  static constexpr std::size_t sub_buckets = 16;
  static constexpr std::size_t bucket_count =
      static_cast<std::size_t>(max_exponent - min_exponent) * sub_buckets + 2;

  // Bucket index of `value` (total function; never out of range).
  [[nodiscard]] static std::size_t bucket_of(double value) noexcept;
  // Representative value of bucket `index` (its geometric interior point).
  [[nodiscard]] static double bucket_value(std::size_t index) noexcept;

  void observe(double value) noexcept { add(bucket_of(value), 1); }
  void add(std::size_t bucket, std::uint64_t count) noexcept;
  void merge(const quantile_histogram& other) noexcept;

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  // Quantile estimate for q in [0, 1]: the representative value of the
  // bucket holding the ceil(q * total)-th sample. Returns 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;

  void clear() noexcept;

 private:
  std::array<std::uint64_t, bucket_count> counts_{};
  std::uint64_t total_ = 0;
};

}  // namespace dqn::obs
