#include "nn/mlp.hpp"

#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace dqn::nn {

mlp::mlp(const std::vector<std::size_t>& layer_dims, activation act, util::rng& rng) {
  if (layer_dims.size() < 2)
    throw std::invalid_argument{"mlp: need at least input and output dims"};
  for (std::size_t i = 0; i + 1 < layer_dims.size(); ++i) {
    const bool last = i + 2 == layer_dims.size();
    layers_.emplace_back(layer_dims[i], layer_dims[i + 1],
                         last ? activation::identity : act, rng);
  }
}

matrix mlp::forward(const matrix& x) {
  matrix h = x;
  for (auto& layer : layers_) h = layer.forward(h);
  return h;
}

matrix mlp::forward_const(const matrix& x) const {
  matrix h = x;
  for (const auto& layer : layers_) h = layer.forward_const(h);
  return h;
}

const matrix& mlp::forward(const matrix& x, workspace& ws) const {
  return forward(x.data().data(), x.rows(), x.cols(), ws);
}

const matrix& mlp::forward(const double* x, std::size_t rows, std::size_t lda,
                           workspace& ws) const {
  if (layers_.empty()) throw std::logic_error{"mlp: not initialized"};
  return forward_after_first(layers_.front().forward(x, rows, lda, ws), ws);
}

const matrix& mlp::forward(const double* x, std::size_t rows, std::size_t lda,
                           std::span<const std::size_t> w_rows,
                           workspace& ws) const {
  if (layers_.empty()) throw std::logic_error{"mlp: not initialized"};
  return forward_after_first(
      layers_.front().forward(x, rows, lda, w_rows, ws), ws);
}

const matrix& mlp::forward_after_first(const matrix& h1, workspace& ws) const {
  const matrix* h = &h1;
  for (auto it = layers_.begin() + 1; it != layers_.end(); ++it)
    h = &it->forward(*h, ws);
  return *h;
}

matrix mlp::backward(const matrix& grad_y) {
  matrix g = grad_y;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = it->backward(g);
  return g;
}

void mlp::collect_params(param_list& out) {
  for (auto& layer : layers_) layer.collect_params(out);
}

std::size_t mlp::in_dim() const {
  if (layers_.empty()) throw std::logic_error{"mlp: not initialized"};
  return layers_.front().in_dim();
}

std::size_t mlp::out_dim() const {
  if (layers_.empty()) throw std::logic_error{"mlp: not initialized"};
  return layers_.back().out_dim();
}

void mlp::save(std::ostream& out) const {
  const std::uint64_t n = layers_.size();
  out.write(reinterpret_cast<const char*>(&n), sizeof n);
  for (const auto& layer : layers_) layer.save(out);
}

void mlp::load(std::istream& in) {
  std::uint64_t n = 0;
  in.read(reinterpret_cast<char*>(&n), sizeof n);
  if (!in) throw std::runtime_error{"mlp::load: truncated stream"};
  layers_.assign(static_cast<std::size_t>(n), dense{});
  for (auto& layer : layers_) layer.load(in);
}

}  // namespace dqn::nn
