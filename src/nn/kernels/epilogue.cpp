#include "nn/kernels/epilogue.hpp"

#include <cmath>

#include "nn/kernels/tanh.hpp"

namespace dqn::nn::kernels {

namespace {

[[nodiscard]] double sigmoid(double x) noexcept {
  return 1.0 / (1.0 + std::exp(-x));
}

}  // namespace

void bias_act(double* c, const double* bias, std::size_t rows,
              std::size_t cols, unary act) {
  for (std::size_t r = 0; r < rows; ++r) {
    double* row = c + r * cols;
    switch (act) {
      case unary::identity:
        for (std::size_t j = 0; j < cols; ++j) row[j] += bias[j];
        break;
      case unary::relu:
        for (std::size_t j = 0; j < cols; ++j) {
          const double v = row[j] + bias[j];
          row[j] = v > 0 ? v : 0;
        }
        break;
      case unary::tanh:
        for (std::size_t j = 0; j < cols; ++j) row[j] += bias[j];
        tanh_row(row, cols);
        break;
      case unary::sigmoid:
        for (std::size_t j = 0; j < cols; ++j) row[j] = sigmoid(row[j] + bias[j]);
        break;
    }
  }
}

void lstm_gates(double* z, const double* bias, std::size_t batch,
                std::size_t hidden) {
  const std::size_t width = 4 * hidden;
  for (std::size_t bi = 0; bi < batch; ++bi) {
    double* row = z + bi * width;
    for (std::size_t j = 0; j < hidden; ++j) row[j] = sigmoid(row[j] + bias[j]);
    for (std::size_t j = hidden; j < 2 * hidden; ++j)
      row[j] = sigmoid(row[j] + bias[j]);
    for (std::size_t j = 2 * hidden; j < 3 * hidden; ++j)
      row[j] = std::tanh(row[j] + bias[j]);
    for (std::size_t j = 3 * hidden; j < width; ++j)
      row[j] = sigmoid(row[j] + bias[j]);
  }
}

void lstm_state(const double* gates, double* c, double* h, std::size_t batch,
                std::size_t hidden) {
  const std::size_t width = 4 * hidden;
  for (std::size_t bi = 0; bi < batch; ++bi) {
    const double* g = gates + bi * width;
    double* c_row = c + bi * hidden;
    double* h_row = h + bi * hidden;
    for (std::size_t j = 0; j < hidden; ++j) {
      const double cn = g[hidden + j] * c_row[j] + g[j] * g[2 * hidden + j];
      c_row[j] = cn;
      h_row[j] = g[3 * hidden + j] * std::tanh(cn);
    }
  }
}

}  // namespace dqn::nn::kernels
