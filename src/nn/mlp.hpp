// Plain multi-layer perceptron regressor. Used by the RouteNet baseline's
// readout, the MimicNet mimic heads, and as the PTM's fast architecture
// variant (DESIGN.md §4).
#pragma once

#include <iosfwd>
#include <span>
#include <vector>

#include "nn/dense.hpp"
#include "nn/matrix.hpp"
#include "nn/params.hpp"
#include "util/rng.hpp"

namespace dqn::nn {

class mlp {
 public:
  mlp() = default;
  // layer_dims = {in, hidden..., out}; hidden layers use `act`, output is linear.
  mlp(const std::vector<std::size_t>& layer_dims, activation act, util::rng& rng);

  [[nodiscard]] matrix forward(const matrix& x);
  [[nodiscard]] matrix forward_const(const matrix& x) const;
  // Allocation-free inference forward: layer outputs ping-pong through `ws`
  // slots. Result valid until the next ws.reset().
  [[nodiscard]] const matrix& forward(const matrix& x, workspace& ws) const;
  // Same over a strided input (row i is x[i*lda, i*lda + in_dim()), rows may
  // overlap): only the first layer reads x, straight through the GEMM.
  [[nodiscard]] const matrix& forward(const double* x, std::size_t rows,
                                      std::size_t lda, workspace& ws) const;
  // Same with the first layer column-elided: input column j stands for its
  // weight row w_rows[j] (dense::forward's column-elided overload, which
  // keeps the result bit-identical to the full input's).
  [[nodiscard]] const matrix& forward(const double* x, std::size_t rows,
                                      std::size_t lda,
                                      std::span<const std::size_t> w_rows,
                                      workspace& ws) const;
  [[nodiscard]] matrix backward(const matrix& grad_y);

  void collect_params(param_list& out);

  [[nodiscard]] std::size_t in_dim() const;
  [[nodiscard]] std::size_t out_dim() const;

  void save(std::ostream& out) const;
  void load(std::istream& in);

 private:
  // Runs every layer after the first on the first layer's output.
  [[nodiscard]] const matrix& forward_after_first(const matrix& h1,
                                                  workspace& ws) const;

  std::vector<dense> layers_;
};

}  // namespace dqn::nn
