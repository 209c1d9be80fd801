#include "nn/dense.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "nn/kernels/epilogue.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/kernels/tanh.hpp"
#include "util/check.hpp"

namespace dqn::nn {

double apply_activation(activation act, double x) noexcept {
  switch (act) {
    case activation::identity: return x;
    case activation::relu: return x > 0 ? x : 0;
    case activation::tanh: return kernels::tanh(x);
    case activation::sigmoid: return 1.0 / (1.0 + std::exp(-x));
  }
  return x;
}

double activation_grad_from_output(activation act, double y) noexcept {
  switch (act) {
    case activation::identity: return 1;
    case activation::relu: return y > 0 ? 1 : 0;
    case activation::tanh: return 1 - y * y;
    case activation::sigmoid: return y * (1 - y);
  }
  return 1;
}

dense::dense(std::size_t in_dim, std::size_t out_dim, activation act, util::rng& rng)
    : w_{matrix::glorot(in_dim, out_dim, rng)},
      b_(out_dim, 0.0),
      gw_{in_dim, out_dim},
      gb_(out_dim, 0.0),
      act_{act} {}

matrix dense::forward(const matrix& x) {
  last_x_ = x;
  last_y_ = forward_const(x);
  return last_y_;
}

matrix dense::forward_const(const matrix& x) const {
  matrix y = matmul(x, w_);
  add_row_vector(y, b_);
  if (act_ != activation::identity)
    for (auto& v : y.data()) v = apply_activation(act_, v);
  return y;
}

const matrix& dense::forward(const matrix& x, workspace& ws) const {
  return forward(x.data().data(), x.rows(), x.cols(), ws);
}

const matrix& dense::forward(const double* x, std::size_t rows, std::size_t lda,
                             workspace& ws) const {
  matrix& y = ws.take(rows, w_.cols());
  kernels::gemm_nn(x, lda, w_.data().data(), y.data().data(), rows, w_.cols(),
                   w_.rows(), /*accumulate=*/false);
  kernels::bias_act(y.data().data(), b_.data(), y.rows(), y.cols(),
                    static_cast<kernels::unary>(act_));
  return y;
}

const matrix& dense::forward(const double* x, std::size_t rows, std::size_t lda,
                             std::span<const std::size_t> w_rows,
                             workspace& ws) const {
  const std::size_t out = w_.cols();
  matrix& w = ws.take(w_rows.size(), out);
  for (std::size_t j = 0; j < w_rows.size(); ++j) {
    DQN_CHECK(w_rows[j] < w_.rows() && (j == 0 || w_rows[j - 1] < w_rows[j]),
              "dense::forward: weight rows must ascend below ", w_.rows());
    std::copy_n(w_.data().data() + w_rows[j] * out, out,
                w.data().data() + j * out);
  }
  matrix& y = ws.take(rows, out);
  // One call per k_block of the full layer: the SIMD kernels add each
  // block's partial sum to C as a unit, so a kept column must stay in its
  // original block. A block with no kept column would add +0.0 and is
  // skipped; with none kept at all, C is the zero the full call would sum.
  bool first = true;
  for (std::size_t j0 = 0; j0 < w_rows.size();) {
    const std::size_t block_end =
        (w_rows[j0] / kernels::k_block + 1) * kernels::k_block;
    std::size_t j1 = j0 + 1;
    while (j1 < w_rows.size() && w_rows[j1] < block_end) ++j1;
    kernels::gemm_nn(x + j0, lda, w.data().data() + j0 * out, y.data().data(),
                     rows, out, j1 - j0, /*accumulate=*/!first);
    first = false;
    j0 = j1;
  }
  if (first) y.fill(0.0);
  kernels::bias_act(y.data().data(), b_.data(), y.rows(), y.cols(),
                    static_cast<kernels::unary>(act_));
  return y;
}

matrix dense::backward(const matrix& grad_y) {
  if (last_x_.empty()) throw std::logic_error{"dense::backward before forward"};
  matrix grad_pre = grad_y;
  if (act_ != activation::identity) {
    for (std::size_t i = 0; i < grad_pre.size(); ++i)
      grad_pre.data()[i] *= activation_grad_from_output(act_, last_y_.data()[i]);
  }
  matmul_tn_acc(last_x_, grad_pre, gw_);
  for (std::size_t r = 0; r < grad_pre.rows(); ++r) {
    auto row = grad_pre.row(r);
    for (std::size_t c = 0; c < grad_pre.cols(); ++c) gb_[c] += row[c];
  }
  return matmul_nt(grad_pre, w_);
}

void dense::collect_params(param_list& out) {
  out.push_back({&w_.data(), &gw_.data()});
  out.push_back({&b_, &gb_});
}

void dense::save(std::ostream& out) const {
  save_matrix(out, w_);
  const std::uint64_t n = b_.size();
  out.write(reinterpret_cast<const char*>(&n), sizeof n);
  out.write(reinterpret_cast<const char*>(b_.data()),
            static_cast<std::streamsize>(n * sizeof(double)));
  const auto act = static_cast<std::int32_t>(act_);
  out.write(reinterpret_cast<const char*>(&act), sizeof act);
}

void dense::load(std::istream& in) {
  w_ = load_matrix(in);
  std::uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof n);
  b_.assign(n, 0.0);
  in.read(reinterpret_cast<char*>(b_.data()),
          static_cast<std::streamsize>(n * sizeof(double)));
  std::int32_t act = 0;
  in.read(reinterpret_cast<char*>(&act), sizeof act);
  if (!in) throw std::runtime_error{"dense::load: truncated stream"};
  act_ = static_cast<activation>(act);
  gw_ = matrix{w_.rows(), w_.cols()};
  gb_.assign(b_.size(), 0.0);
}

}  // namespace dqn::nn
