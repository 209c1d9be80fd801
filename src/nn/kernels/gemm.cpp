#include "nn/kernels/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

#include "nn/kernels/gemm_tables.hpp"
#include "nn/kernels/tanh.hpp"
#include "obs/sink.hpp"
#include "util/annotations.hpp"

namespace dqn::nn::kernels {

namespace {

// --- Naive reference (the seed repo's triple loops, zero-skip removed) -----
//
// Kept verbatim as the semantics the fast kernels are tested against: i-k-j
// with ascending-k accumulation per output element.

void naive_nn(const double* a, std::size_t lda, const double* b, double* c,
              std::size_t m, std::size_t n, std::size_t k, bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    double* c_row = c + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double aik = a[i * lda + kk];
      const double* b_row = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) c_row[j] += aik * b_row[j];
    }
  }
}

void naive_tn(const double* a, const double* b, double* c, std::size_t m,
              std::size_t n, std::size_t k, bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0);
  for (std::size_t kk = 0; kk < k; ++kk) {
    const double* a_row = a + kk * m;
    const double* b_row = b + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const double aki = a_row[i];
      double* c_row = c + i * n;
      for (std::size_t j = 0; j < n; ++j) c_row[j] += aki * b_row[j];
    }
  }
}

void naive_nt(const double* a, const double* b, double* c, std::size_t m,
              std::size_t n, std::size_t k, bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const double* a_row = a + i * k;
    double* c_row = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const double* b_row = b + j * k;
      double acc = 0;
      for (std::size_t kk = 0; kk < k; ++kk) acc += a_row[kk] * b_row[kk];
      c_row[j] += acc;
    }
  }
}

// --- Portable cache-blocked scalar kernel ----------------------------------
//
// Broadcast-A form shared by NN and TN (they differ only in how A is
// indexed; `lda` is the row stride of A as stored): k is blocked k_block
// deep so the B panel a row of C accumulates against stays L2-resident, and
// rows are processed in 4-row bundles so each B row loaded serves four
// accumulating C rows. Per C element, k is still consumed in ascending order
// straight into C — same association as the naive reference.

template <bool TransA>
inline double a_at(const double* a, std::size_t lda, std::size_t i,
                   std::size_t kk) noexcept {
  if constexpr (TransA)
    return a[kk * lda + i];
  else
    return a[i * lda + kk];
}

template <bool TransA>
void blocked_broadcast(const double* a, std::size_t lda, const double* b,
                       double* c, std::size_t m, std::size_t n, std::size_t k,
                       bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0);
  for (std::size_t k0 = 0; k0 < k; k0 += k_block) {
    const std::size_t k1 = std::min(k, k0 + k_block);
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      double* c0 = c + (i + 0) * n;
      double* c1 = c + (i + 1) * n;
      double* c2 = c + (i + 2) * n;
      double* c3 = c + (i + 3) * n;
      for (std::size_t kk = k0; kk < k1; ++kk) {
        const double* b_row = b + kk * n;
        const double a0 = a_at<TransA>(a, lda, i + 0, kk);
        const double a1 = a_at<TransA>(a, lda, i + 1, kk);
        const double a2 = a_at<TransA>(a, lda, i + 2, kk);
        const double a3 = a_at<TransA>(a, lda, i + 3, kk);
        for (std::size_t j = 0; j < n; ++j) {
          const double bj = b_row[j];
          c0[j] += a0 * bj;
          c1[j] += a1 * bj;
          c2[j] += a2 * bj;
          c3[j] += a3 * bj;
        }
      }
    }
    for (; i < m; ++i) {
      double* c_row = c + i * n;
      for (std::size_t kk = k0; kk < k1; ++kk) {
        const double aik = a_at<TransA>(a, lda, i, kk);
        const double* b_row = b + kk * n;
        for (std::size_t j = 0; j < n; ++j) c_row[j] += aik * b_row[j];
      }
    }
  }
}

void blocked_nn(const double* a, std::size_t lda, const double* b, double* c,
                std::size_t m, std::size_t n, std::size_t k, bool accumulate) {
  blocked_broadcast<false>(a, lda, b, c, m, n, k, accumulate);
}

void blocked_tn(const double* a, const double* b, double* c, std::size_t m,
                std::size_t n, std::size_t k, bool accumulate) {
  blocked_broadcast<true>(a, m, b, c, m, n, k, accumulate);
}

// NT (dot-product form): both streams are contiguous over k; 2×2 output
// tiling quarters the number of passes over B.
void blocked_nt(const double* a, const double* b, double* c, std::size_t m,
                std::size_t n, std::size_t k, bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0);
  std::size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const double* a0 = a + (i + 0) * k;
    const double* a1 = a + (i + 1) * k;
    std::size_t j = 0;
    for (; j + 2 <= n; j += 2) {
      const double* b0 = b + (j + 0) * k;
      const double* b1 = b + (j + 1) * k;
      double s00 = 0, s01 = 0, s10 = 0, s11 = 0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double x0 = a0[kk], x1 = a1[kk];
        const double y0 = b0[kk], y1 = b1[kk];
        s00 += x0 * y0;
        s01 += x0 * y1;
        s10 += x1 * y0;
        s11 += x1 * y1;
      }
      c[(i + 0) * n + j] += s00;
      c[(i + 0) * n + j + 1] += s01;
      c[(i + 1) * n + j] += s10;
      c[(i + 1) * n + j + 1] += s11;
    }
    for (; j < n; ++j) {
      const double* b0 = b + j * k;
      double s0 = 0, s1 = 0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        s0 += a0[kk] * b0[kk];
        s1 += a1[kk] * b0[kk];
      }
      c[(i + 0) * n + j] += s0;
      c[(i + 1) * n + j] += s1;
    }
  }
  for (; i < m; ++i) {
    const double* a0 = a + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const double* b0 = b + j * k;
      double s = 0;
      for (std::size_t kk = 0; kk < k; ++kk) s += a0[kk] * b0[kk];
      c[i * n + j] += s;
    }
  }
}

// --- CPU feature detection -------------------------------------------------

// __builtin_cpu_supports requires string literals, hence one function per
// feature set instead of a cpu_has(name) helper.
bool cpu_has_avx2_fma() noexcept {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("fma") != 0;
#else
  return false;
#endif
}

bool cpu_has_avx512f() noexcept {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

DQN_HOT_PATH const detail::gemm_table& table_for(backend be) noexcept {
  switch (be) {
    case backend::naive: return detail::naive_table();
    case backend::blocked: return detail::blocked_table();
    case backend::avx2: return detail::avx2_table();
    case backend::avx512: return detail::avx512_table();
  }
  return detail::naive_table();
}

backend select_startup_backend() noexcept {
  if (const char* env = std::getenv("DQN_KERNEL_BACKEND")) {
    const std::string_view want{env};
    for (const backend be : {backend::naive, backend::blocked, backend::avx2,
                             backend::avx512}) {
      if (want == to_string(be) && backend_supported(be)) return be;
    }
    // Unknown or unsupported request: fall through to auto-selection
    // (startup must not throw; report_dispatch makes the outcome visible).
  }
  return best_supported_backend();
}

std::atomic<backend>& active_slot() noexcept {
  static std::atomic<backend> slot{select_startup_backend()};
  return slot;
}

}  // namespace

namespace detail {

const gemm_table& naive_table() noexcept {
  static const gemm_table table{naive_nn, naive_tn, naive_nt, scalar_tanh_row};
  return table;
}

const gemm_table& blocked_table() noexcept {
  static const gemm_table table{blocked_nn, blocked_tn, blocked_nt,
                                 scalar_tanh_row};
  return table;
}

}  // namespace detail

const char* to_string(backend be) noexcept {
  switch (be) {
    case backend::naive: return "naive";
    case backend::blocked: return "blocked";
    case backend::avx2: return "avx2";
    case backend::avx512: return "avx512";
  }
  return "?";
}

bool backend_supported(backend be) noexcept {
  switch (be) {
    case backend::naive:
    case backend::blocked: return true;
    case backend::avx2:
      return detail::avx2_table().complete() && cpu_has_avx2_fma();
    case backend::avx512:
      return detail::avx512_table().complete() && cpu_has_avx512f();
  }
  return false;
}

backend best_supported_backend() noexcept {
  if (backend_supported(backend::avx512)) return backend::avx512;
  if (backend_supported(backend::avx2)) return backend::avx2;
  return backend::blocked;
}

DQN_HOT_PATH backend active_backend() noexcept {
  return active_slot().load(std::memory_order_relaxed);
}

void force_backend(backend be) {
  if (!backend_supported(be))
    throw std::invalid_argument{std::string{"force_backend: backend '"} +
                                to_string(be) +
                                "' is not supported on this build/CPU"};
  active_slot().store(be, std::memory_order_relaxed);
}

void reset_backend() noexcept {
  active_slot().store(select_startup_backend(), std::memory_order_relaxed);
}

void report_dispatch(obs::sink& sink) {
  const backend be = active_backend();
  const auto id = static_cast<double>(static_cast<std::uint8_t>(be));
  sink.gauge_handle_for("nn.kernel_backend").set(id);
  sink.event("nn", "kernel_dispatch", 0, sink.now(), 0.0, id);
}

DQN_HOT_PATH void gemm_nn(const double* a, const double* b, double* c,
                            std::size_t m, std::size_t n, std::size_t k,
                            bool accumulate) {
  table_for(active_backend()).nn(a, k, b, c, m, n, k, accumulate);
}

DQN_HOT_PATH void gemm_nn(const double* a, std::size_t lda, const double* b,
                            double* c, std::size_t m, std::size_t n,
                            std::size_t k, bool accumulate) {
  table_for(active_backend()).nn(a, lda, b, c, m, n, k, accumulate);
}

DQN_HOT_PATH void gemm_tn(const double* a, const double* b, double* c,
                            std::size_t m, std::size_t n, std::size_t k,
                            bool accumulate) {
  table_for(active_backend()).tn(a, b, c, m, n, k, accumulate);
}

DQN_HOT_PATH void gemm_nt(const double* a, const double* b, double* c,
                            std::size_t m, std::size_t n, std::size_t k,
                            bool accumulate) {
  table_for(active_backend()).nt(a, b, c, m, n, k, accumulate);
}

// tanh_row (declared in tanh.hpp) dispatches through the same tables.
DQN_HOT_PATH void tanh_row(double* x, std::size_t n) {
  table_for(active_backend()).tanh_row(x, n);
}

namespace {

const detail::gemm_table& checked_table(backend be) {
  if (!backend_supported(be))
    throw std::invalid_argument{std::string{"kernels: backend '"} +
                                to_string(be) +
                                "' is not supported on this build/CPU"};
  return table_for(be);
}

}  // namespace

void gemm_nn(backend be, const double* a, const double* b, double* c,
             std::size_t m, std::size_t n, std::size_t k, bool accumulate) {
  checked_table(be).nn(a, k, b, c, m, n, k, accumulate);
}

void gemm_nn(backend be, const double* a, std::size_t lda, const double* b,
             double* c, std::size_t m, std::size_t n, std::size_t k,
             bool accumulate) {
  checked_table(be).nn(a, lda, b, c, m, n, k, accumulate);
}

void gemm_tn(backend be, const double* a, const double* b, double* c,
             std::size_t m, std::size_t n, std::size_t k, bool accumulate) {
  checked_table(be).tn(a, b, c, m, n, k, accumulate);
}

void gemm_nt(backend be, const double* a, const double* b, double* c,
             std::size_t m, std::size_t n, std::size_t k, bool accumulate) {
  checked_table(be).nt(a, b, c, m, n, k, accumulate);
}

void tanh_row(backend be, double* x, std::size_t n) {
  checked_table(be).tanh_row(x, n);
}

void transpose_blocked(const double* in, double* out, std::size_t rows,
                       std::size_t cols) {
  constexpr std::size_t tile = 32;  // 32×32 doubles = two 4 KB pages
  for (std::size_t r0 = 0; r0 < rows; r0 += tile) {
    const std::size_t r1 = std::min(rows, r0 + tile);
    for (std::size_t c0 = 0; c0 < cols; c0 += tile) {
      const std::size_t c1 = std::min(cols, c0 + tile);
      for (std::size_t r = r0; r < r1; ++r)
        for (std::size_t c = c0; c < c1; ++c)
          out[c * rows + r] = in[r * cols + c];
    }
  }
}

}  // namespace dqn::nn::kernels
