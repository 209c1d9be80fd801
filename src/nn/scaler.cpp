#include "nn/scaler.hpp"

#include <algorithm>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace dqn::nn {

void min_max_scaler::fit(std::span<const double> flat_rows, std::size_t features) {
  if (features == 0 || flat_rows.size() % features != 0)
    throw std::invalid_argument{"min_max_scaler::fit: bad shape"};
  lo_.assign(features, std::numeric_limits<double>::infinity());
  hi_.assign(features, -std::numeric_limits<double>::infinity());
  for (std::size_t r = 0; r < flat_rows.size(); r += features)
    for (std::size_t f = 0; f < features; ++f) {
      lo_[f] = std::min(lo_[f], flat_rows[r + f]);
      hi_[f] = std::max(hi_[f], flat_rows[r + f]);
    }
}

void min_max_scaler::fit(const seq_batch& batch) {
  fit(batch.data(), batch.features());
}

double min_max_scaler::transform_one(std::size_t feature, double x) const {
  if (feature >= lo_.size())
    throw std::out_of_range{"min_max_scaler::transform_one: feature index"};
  const double range = hi_[feature] - lo_[feature];
  if (range <= 0) return 0;
  return (x - lo_[feature]) / range;
}

double min_max_scaler::inverse_one(std::size_t feature, double x) const {
  if (feature >= lo_.size())
    throw std::out_of_range{"min_max_scaler::inverse_one: feature index"};
  return lo_[feature] + x * (hi_[feature] - lo_[feature]);
}

void min_max_scaler::transform(std::span<double> flat_rows) const {
  const std::size_t features = lo_.size();
  if (!flat_rows.empty() && (features == 0 || flat_rows.size() % features != 0))
    throw std::invalid_argument{"min_max_scaler::transform: bad shape"};
  // Same arithmetic as transform_one, one row at a time.
  for (std::size_t r = 0; r < flat_rows.size(); r += features)
    for (std::size_t f = 0; f < features; ++f) {
      const double range = hi_[f] - lo_[f];
      double& x = flat_rows[r + f];
      x = range <= 0 ? 0.0 : (x - lo_[f]) / range;
    }
}

void min_max_scaler::transform(seq_batch& batch) const {
  if (batch.features() != lo_.size())
    throw std::invalid_argument{"min_max_scaler::transform: feature width mismatch"};
  transform(batch.data());
}

void min_max_scaler::save(std::ostream& out) const {
  const std::uint64_t n = lo_.size();
  out.write(reinterpret_cast<const char*>(&n), sizeof n);
  out.write(reinterpret_cast<const char*>(lo_.data()),
            static_cast<std::streamsize>(n * sizeof(double)));
  out.write(reinterpret_cast<const char*>(hi_.data()),
            static_cast<std::streamsize>(n * sizeof(double)));
}

void min_max_scaler::load(std::istream& in) {
  std::uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof n);
  lo_.assign(n, 0.0);
  hi_.assign(n, 0.0);
  in.read(reinterpret_cast<char*>(lo_.data()),
          static_cast<std::streamsize>(n * sizeof(double)));
  in.read(reinterpret_cast<char*>(hi_.data()),
          static_cast<std::streamsize>(n * sizeof(double)));
  if (!in) throw std::runtime_error{"min_max_scaler::load: truncated stream"};
}

void target_scaler::fit(std::span<const double> targets) {
  if (targets.empty()) throw std::invalid_argument{"target_scaler::fit: empty"};
  const auto [lo, hi] = std::minmax_element(targets.begin(), targets.end());
  lo_ = *lo;
  hi_ = *hi;
}

double target_scaler::transform(double y) const noexcept {
  const double range = hi_ - lo_;
  if (range <= 0) return 0;
  return (y - lo_) / range;
}

double target_scaler::inverse(double y) const noexcept {
  return lo_ + y * (hi_ - lo_);
}

void target_scaler::save(std::ostream& out) const {
  out.write(reinterpret_cast<const char*>(&lo_), sizeof lo_);
  out.write(reinterpret_cast<const char*>(&hi_), sizeof hi_);
}

void target_scaler::load(std::istream& in) {
  in.read(reinterpret_cast<char*>(&lo_), sizeof lo_);
  in.read(reinterpret_cast<char*>(&hi_), sizeof hi_);
  if (!in) throw std::runtime_error{"target_scaler::load: truncated stream"};
}

}  // namespace dqn::nn
