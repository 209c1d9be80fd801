// MinMax feature scaling to [0, 1], matching the paper's use of
// scikit-learn's MinMaxScaler (§4.1). Fitted bounds are persisted with the
// model so that inference applies the exact training-time transform.
#pragma once

#include <iosfwd>
#include <span>
#include <vector>

#include "nn/seq.hpp"

namespace dqn::nn {

class min_max_scaler {
 public:
  min_max_scaler() = default;

  // Fit per-feature bounds from rows of width `features`.
  void fit(std::span<const double> flat_rows, std::size_t features);
  void fit(const seq_batch& batch);

  // x' = (x - min) / (max - min); constant features map to 0.
  [[nodiscard]] double transform_one(std::size_t feature, double x) const;
  [[nodiscard]] double inverse_one(std::size_t feature, double x) const;
  // In place over rows of width features(); throws on a ragged span.
  void transform(std::span<double> flat_rows) const;
  void transform(seq_batch& batch) const;

  [[nodiscard]] bool fitted() const noexcept { return !lo_.empty(); }
  [[nodiscard]] std::size_t features() const noexcept { return lo_.size(); }

  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  std::vector<double> lo_;
  std::vector<double> hi_;
};

// Scalar target scaling (the sojourn-time label), same min-max convention.
class target_scaler {
 public:
  void fit(std::span<const double> targets);
  [[nodiscard]] double transform(double y) const noexcept;
  [[nodiscard]] double inverse(double y) const noexcept;
  [[nodiscard]] bool fitted() const noexcept { return hi_ > lo_; }

  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  double lo_ = 0;
  double hi_ = 0;
};

}  // namespace dqn::nn
