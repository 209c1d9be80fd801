// AVX2+FMA GEMM backend. This translation unit is the only one compiled
// with -mavx2 -mfma (see src/nn/CMakeLists.txt); when the compiler lacks the
// flags or the target is not x86-64, it degrades to an empty table and the
// dispatch in gemm.cpp never routes here.
//
// Kernel shape: NN/TN use a 4×8 register tile (4 C rows × two 256-bit
// column strips) in broadcast-A form — each B vector load feeds four FMAs,
// and the accumulators live in registers across a whole k panel before
// being added to C. NT keeps both streams contiguous over k and reduces
// 2-wide unrolled dot products. Per C element every path consumes k in
// ascending order, so results match the naive reference to FMA rounding.
#include "nn/kernels/gemm.hpp"
#include "nn/kernels/gemm_tables.hpp"

#if defined(__AVX2__) && defined(__FMA__) && defined(__x86_64__)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>

namespace dqn::nn::kernels::detail {

namespace {

// Every read of A goes through here. `lda` is A's row stride as stored: m
// for TN (A is k×m); for NN, row i starts at a + i*lda (rows overlap when
// lda < k).
template <bool TransA>
inline double a_at(const double* a, std::size_t lda, std::size_t i,
                   std::size_t kk) noexcept {
  if constexpr (TransA)
    return a[kk * lda + i];
  else
    return a[i * lda + kk];
}

inline double hsum(__m256d v) noexcept {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d sum2 = _mm_add_pd(lo, hi);
  const __m128d swapped = _mm_unpackhi_pd(sum2, sum2);
  return _mm_cvtsd_f64(_mm_add_sd(sum2, swapped));
}

template <bool TransA>
void gemm_broadcast(const double* a, std::size_t lda, const double* b,
                    double* c, std::size_t m, std::size_t n, std::size_t k,
                    bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0);
  for (std::size_t k0 = 0; k0 < k; k0 += k_block) {
    const std::size_t k1 = std::min(k, k0 + k_block);
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      std::size_t j = 0;
      for (; j + 8 <= n; j += 8) {
        __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
        __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
        __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
        __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
        for (std::size_t kk = k0; kk < k1; ++kk) {
          const double* b_row = b + kk * n + j;
          const __m256d b0 = _mm256_loadu_pd(b_row);
          const __m256d b1 = _mm256_loadu_pd(b_row + 4);
          const __m256d a0 = _mm256_set1_pd(a_at<TransA>(a, lda, i + 0, kk));
          c00 = _mm256_fmadd_pd(a0, b0, c00);
          c01 = _mm256_fmadd_pd(a0, b1, c01);
          const __m256d a1 = _mm256_set1_pd(a_at<TransA>(a, lda, i + 1, kk));
          c10 = _mm256_fmadd_pd(a1, b0, c10);
          c11 = _mm256_fmadd_pd(a1, b1, c11);
          const __m256d a2 = _mm256_set1_pd(a_at<TransA>(a, lda, i + 2, kk));
          c20 = _mm256_fmadd_pd(a2, b0, c20);
          c21 = _mm256_fmadd_pd(a2, b1, c21);
          const __m256d a3 = _mm256_set1_pd(a_at<TransA>(a, lda, i + 3, kk));
          c30 = _mm256_fmadd_pd(a3, b0, c30);
          c31 = _mm256_fmadd_pd(a3, b1, c31);
        }
        double* c0 = c + (i + 0) * n + j;
        double* c1 = c + (i + 1) * n + j;
        double* c2 = c + (i + 2) * n + j;
        double* c3 = c + (i + 3) * n + j;
        _mm256_storeu_pd(c0, _mm256_add_pd(_mm256_loadu_pd(c0), c00));
        _mm256_storeu_pd(c0 + 4, _mm256_add_pd(_mm256_loadu_pd(c0 + 4), c01));
        _mm256_storeu_pd(c1, _mm256_add_pd(_mm256_loadu_pd(c1), c10));
        _mm256_storeu_pd(c1 + 4, _mm256_add_pd(_mm256_loadu_pd(c1 + 4), c11));
        _mm256_storeu_pd(c2, _mm256_add_pd(_mm256_loadu_pd(c2), c20));
        _mm256_storeu_pd(c2 + 4, _mm256_add_pd(_mm256_loadu_pd(c2 + 4), c21));
        _mm256_storeu_pd(c3, _mm256_add_pd(_mm256_loadu_pd(c3), c30));
        _mm256_storeu_pd(c3 + 4, _mm256_add_pd(_mm256_loadu_pd(c3 + 4), c31));
      }
      // Column tail (< 8): scalar, still ascending k per element.
      for (; j < n; ++j) {
        double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
        for (std::size_t kk = k0; kk < k1; ++kk) {
          const double bj = b[kk * n + j];
          s0 += a_at<TransA>(a, lda, i + 0, kk) * bj;
          s1 += a_at<TransA>(a, lda, i + 1, kk) * bj;
          s2 += a_at<TransA>(a, lda, i + 2, kk) * bj;
          s3 += a_at<TransA>(a, lda, i + 3, kk) * bj;
        }
        c[(i + 0) * n + j] += s0;
        c[(i + 1) * n + j] += s1;
        c[(i + 2) * n + j] += s2;
        c[(i + 3) * n + j] += s3;
      }
    }
    // Row tail (< 4): one-row vector kernel.
    for (; i < m; ++i) {
      double* c_row = c + i * n;
      std::size_t j = 0;
      for (; j + 8 <= n; j += 8) {
        __m256d s0 = _mm256_setzero_pd(), s1 = _mm256_setzero_pd();
        for (std::size_t kk = k0; kk < k1; ++kk) {
          const __m256d av = _mm256_set1_pd(a_at<TransA>(a, lda, i, kk));
          const double* b_row = b + kk * n + j;
          s0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b_row), s0);
          s1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(b_row + 4), s1);
        }
        _mm256_storeu_pd(c_row + j,
                         _mm256_add_pd(_mm256_loadu_pd(c_row + j), s0));
        _mm256_storeu_pd(c_row + j + 4,
                         _mm256_add_pd(_mm256_loadu_pd(c_row + j + 4), s1));
      }
      for (; j < n; ++j) {
        double s = 0;
        for (std::size_t kk = k0; kk < k1; ++kk)
          s += a_at<TransA>(a, lda, i, kk) * b[kk * n + j];
        c_row[j] += s;
      }
    }
  }
}

void avx2_nn(const double* a, std::size_t lda, const double* b, double* c,
             std::size_t m, std::size_t n, std::size_t k, bool accumulate) {
  gemm_broadcast<false>(a, lda, b, c, m, n, k, accumulate);
}

void avx2_tn(const double* a, const double* b, double* c, std::size_t m,
             std::size_t n, std::size_t k, bool accumulate) {
  gemm_broadcast<true>(a, m, b, c, m, n, k, accumulate);
}

void avx2_nt(const double* a, const double* b, double* c, std::size_t m,
             std::size_t n, std::size_t k, bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const double* a_row = a + i * k;
    double* c_row = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const double* b_row = b + j * k;
      __m256d s0 = _mm256_setzero_pd();
      __m256d s1 = _mm256_setzero_pd();
      std::size_t kk = 0;
      for (; kk + 8 <= k; kk += 8) {
        s0 = _mm256_fmadd_pd(_mm256_loadu_pd(a_row + kk),
                             _mm256_loadu_pd(b_row + kk), s0);
        s1 = _mm256_fmadd_pd(_mm256_loadu_pd(a_row + kk + 4),
                             _mm256_loadu_pd(b_row + kk + 4), s1);
      }
      double dot = hsum(_mm256_add_pd(s0, s1));
      for (; kk < k; ++kk) dot += a_row[kk] * b_row[kk];
      c_row[j] += dot;
    }
  }
}

}  // namespace

const gemm_table& avx2_table() noexcept {
  static const gemm_table table{avx2_nn, avx2_tn, avx2_nt, avx2_tanh_row};
  return table;
}

}  // namespace dqn::nn::kernels::detail

#else  // AVX2 path not compiled in

namespace dqn::nn::kernels::detail {

const gemm_table& avx2_table() noexcept {
  static const gemm_table table{};
  return table;
}

}  // namespace dqn::nn::kernels::detail

#endif
