// Inference workspace: an arena of reusable aligned buffers for the forward
// hot path. Layers take() scratch matrices instead of constructing them;
// reset() rewinds the cursor without freeing, so the second and every later
// forward pass over same-shaped inputs performs ZERO heap allocations
// (tests/test_kernels.cpp asserts this with a global-new counting hook).
//
// Lifetime rules (documented in docs/PERFORMANCE.md):
//  - One workspace per thread. The engine gives each partition worker its
//    own, reused across devices and IRSA iterations. No internal locking.
//  - The CALLER of a forward chain resets; callees only take. A callee that
//    reset() mid-chain would reclaim slots its caller still holds (e.g. the
//    input batch ptm::predict stages before seq_regressor::forward).
//  - A slot reference is valid until the next reset(). take() never moves
//    existing slots (deque-backed), so references handed out earlier in the
//    same pass stay stable while later slots are created.
//  - rewind(mark()) hands the slots taken since the mark out again; their
//    references are then reused. A caller that repeats a chain over chunks
//    of its input rewinds after each chunk, so the arena holds one chunk's
//    slots, not one per chunk.
#pragma once

#include <cstddef>
#include <deque>
#include <span>
#include <vector>

#include "nn/matrix.hpp"
#include "nn/seq.hpp"

namespace dqn::nn {

class workspace {
 public:
  workspace() = default;
  workspace(const workspace&) = delete;
  workspace& operator=(const workspace&) = delete;
  workspace(workspace&&) = default;
  workspace& operator=(workspace&&) = default;

  // Next matrix slot, reshaped to rows×cols. Contents are unspecified
  // (callers overwrite); use take_zeroed() for accumulators.
  [[nodiscard]] matrix& take(std::size_t rows, std::size_t cols) {
    matrix& m = next_matrix();
    if (rows * cols > m.capacity()) ++grow_count_;
    m.resize(rows, cols);
    return m;
  }

  [[nodiscard]] matrix& take_zeroed(std::size_t rows, std::size_t cols) {
    matrix& m = take(rows, cols);
    m.fill(0.0);
    return m;
  }

  [[nodiscard]] seq_batch& take_seq(std::size_t batch, std::size_t time,
                                    std::size_t features) {
    if (seq_cursor_ == seqs_.size()) seqs_.emplace_back();
    seq_batch& s = seqs_[seq_cursor_++];
    const std::size_t need = batch * time * features;
    if (need > s.capacity()) ++grow_count_;
    s.resize(batch, time, features);
    return s;
  }

  // Next index slot, resized to n (contents unspecified): the column maps a
  // caller builds for nn::dense's column-elided forward.
  [[nodiscard]] std::span<std::size_t> take_indices(std::size_t n) {
    if (index_cursor_ == indices_.size()) indices_.emplace_back();
    std::vector<std::size_t>& v = indices_[index_cursor_++];
    if (n > v.capacity()) ++grow_count_;
    v.resize(n);
    return v;
  }

  // The cursors at one point of a pass; see rewind().
  struct marker {
    std::size_t mats = 0, seqs = 0, indices = 0;
  };

  [[nodiscard]] marker mark() const noexcept {
    return {mat_cursor_, seq_cursor_, index_cursor_};
  }

  // Rewind the cursors to `m`, a mark() of this pass: the slots taken since
  // are taken again next, keeping their allocations.
  void rewind(marker m) noexcept {
    mat_cursor_ = m.mats;
    seq_cursor_ = m.seqs;
    index_cursor_ = m.indices;
  }

  // Rewind every cursor; keeps every allocation for reuse.
  void reset() noexcept {
    mat_cursor_ = 0;
    seq_cursor_ = 0;
    index_cursor_ = 0;
  }

  // Bytes currently held across all slots (the nn.workspace_bytes gauge).
  [[nodiscard]] std::size_t bytes() const noexcept {
    std::size_t total = 0;
    for (const matrix& m : mats_) total += m.capacity() * sizeof(double);
    for (const seq_batch& s : seqs_) total += s.capacity() * sizeof(double);
    for (const auto& v : indices_) total += v.capacity() * sizeof(std::size_t);
    return total;
  }

  // Times a take grew the arena (new slot or a slot's buffer). Steady state
  // over a fixed shape sequence means this stops moving — the zero-allocation
  // tests key off it alongside the operator-new hook.
  [[nodiscard]] std::size_t grow_count() const noexcept { return grow_count_; }

  [[nodiscard]] std::size_t slots_in_use() const noexcept {
    return mat_cursor_ + seq_cursor_ + index_cursor_;
  }

 private:
  [[nodiscard]] matrix& next_matrix() {
    if (mat_cursor_ == mats_.size()) mats_.emplace_back();
    return mats_[mat_cursor_++];
  }

  // deque: stable references across emplace_back, required by the lifetime
  // contract above.
  std::deque<matrix> mats_;
  std::deque<seq_batch> seqs_;
  std::deque<std::vector<std::size_t>> indices_;
  std::size_t mat_cursor_ = 0;
  std::size_t seq_cursor_ = 0;
  std::size_t index_cursor_ = 0;
  std::size_t grow_count_ = 0;
};

}  // namespace dqn::nn
