// Fully-connected layer with optional activation, explicit forward/backward.
#pragma once

#include <iosfwd>
#include <span>

#include "nn/matrix.hpp"
#include "nn/params.hpp"
#include "nn/workspace.hpp"
#include "util/rng.hpp"

namespace dqn::nn {

enum class activation { identity, relu, tanh, sigmoid };

[[nodiscard]] double apply_activation(activation act, double x) noexcept;
// Derivative expressed in terms of the activation output y = act(x).
[[nodiscard]] double activation_grad_from_output(activation act, double y) noexcept;

class dense {
 public:
  dense() = default;
  dense(std::size_t in_dim, std::size_t out_dim, activation act, util::rng& rng);

  // x: (batch, in_dim) → (batch, out_dim). Caches x and y for backward.
  [[nodiscard]] matrix forward(const matrix& x);
  // Inference-only forward: no caches touched (usable concurrently from
  // multiple threads on a const layer).
  [[nodiscard]] matrix forward_const(const matrix& x) const;
  // Allocation-free inference forward: result lives in `ws` until its next
  // reset. One GEMM whose epilogue adds the bias and applies the activation
  // as it stores (kernels::gemm_nn), no intermediates.
  [[nodiscard]] const matrix& forward(const matrix& x, workspace& ws) const;
  // Same over a strided input: row i is x[i*lda, i*lda + in_dim()). Rows may
  // overlap (lda < in_dim()); see kernels::gemm_nn for the contract.
  [[nodiscard]] const matrix& forward(const double* x, std::size_t rows,
                                      std::size_t lda, workspace& ws) const;
  // Column-elided forward over a strided input: input column j stands for
  // weight row w_rows[j] (strictly ascending, < in_dim()), so row i is
  // x[i*lda, i*lda + w_rows.size()) and every weight row w_rows leaves out
  // meets an input that is ±0.0 in every row. Gathers the named rows of W
  // into a ws slot and issues one GEMM per kernels::k_block-deep block of
  // the full layer (accumulate = false on the first, the epilogue on the
  // last), which keeps the association the SIMD kernels use on the full
  // input; the result equals forward() on the full input bit for bit on
  // every backend (finite W; kernels/gemm.hpp, Numerics).
  [[nodiscard]] const matrix& forward(const double* x, std::size_t rows,
                                      std::size_t lda,
                                      std::span<const std::size_t> w_rows,
                                      workspace& ws) const;

  // grad_y: (batch, out_dim) → returns grad_x; accumulates weight grads.
  [[nodiscard]] matrix backward(const matrix& grad_y);

  void collect_params(param_list& out);

  [[nodiscard]] std::size_t in_dim() const noexcept { return w_.rows(); }
  [[nodiscard]] std::size_t out_dim() const noexcept { return w_.cols(); }
  [[nodiscard]] const matrix& weights() const noexcept { return w_; }

  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  matrix w_;                     // (in, out)
  aligned_vector b_;             // (out)
  matrix gw_;
  aligned_vector gb_;
  activation act_ = activation::identity;
  matrix last_x_;
  matrix last_y_;
};

}  // namespace dqn::nn
