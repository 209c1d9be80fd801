// AVX-512F GEMM backend. Compiled with -mavx512f only for this translation
// unit (see src/nn/CMakeLists.txt); otherwise degrades to an empty table.
//
// Same structure as the AVX2 backend but with 512-bit lanes: NN/TN use a
// 4×16 register tile (4 C rows × two 512-bit column strips) in broadcast-A
// form, NT reduces 2-wide unrolled dot products with masked tails. Per C
// element every path consumes k in ascending order, so results match the
// naive reference to FMA rounding.
#include "nn/kernels/gemm.hpp"
#include "nn/kernels/gemm_tables.hpp"

#if defined(__AVX512F__) && defined(__x86_64__)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>

// GCC's -Wmaybe-uninitialized false-positives on _mm512_maskz_loadu_pd's
// intrinsic expansion (the masked-off lanes look uninitialized to the
// analyzer even though maskz zeroes them by definition).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

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
      for (; j + 16 <= n; j += 16) {
        __m512d c00 = _mm512_setzero_pd(), c01 = _mm512_setzero_pd();
        __m512d c10 = _mm512_setzero_pd(), c11 = _mm512_setzero_pd();
        __m512d c20 = _mm512_setzero_pd(), c21 = _mm512_setzero_pd();
        __m512d c30 = _mm512_setzero_pd(), c31 = _mm512_setzero_pd();
        for (std::size_t kk = k0; kk < k1; ++kk) {
          const double* b_row = b + kk * n + j;
          const __m512d b0 = _mm512_loadu_pd(b_row);
          const __m512d b1 = _mm512_loadu_pd(b_row + 8);
          const __m512d a0 = _mm512_set1_pd(a_at<TransA>(a, lda, i + 0, kk));
          c00 = _mm512_fmadd_pd(a0, b0, c00);
          c01 = _mm512_fmadd_pd(a0, b1, c01);
          const __m512d a1 = _mm512_set1_pd(a_at<TransA>(a, lda, i + 1, kk));
          c10 = _mm512_fmadd_pd(a1, b0, c10);
          c11 = _mm512_fmadd_pd(a1, b1, c11);
          const __m512d a2 = _mm512_set1_pd(a_at<TransA>(a, lda, i + 2, kk));
          c20 = _mm512_fmadd_pd(a2, b0, c20);
          c21 = _mm512_fmadd_pd(a2, b1, c21);
          const __m512d a3 = _mm512_set1_pd(a_at<TransA>(a, lda, i + 3, kk));
          c30 = _mm512_fmadd_pd(a3, b0, c30);
          c31 = _mm512_fmadd_pd(a3, b1, c31);
        }
        double* c0 = c + (i + 0) * n + j;
        double* c1 = c + (i + 1) * n + j;
        double* c2 = c + (i + 2) * n + j;
        double* c3 = c + (i + 3) * n + j;
        _mm512_storeu_pd(c0, _mm512_add_pd(_mm512_loadu_pd(c0), c00));
        _mm512_storeu_pd(c0 + 8, _mm512_add_pd(_mm512_loadu_pd(c0 + 8), c01));
        _mm512_storeu_pd(c1, _mm512_add_pd(_mm512_loadu_pd(c1), c10));
        _mm512_storeu_pd(c1 + 8, _mm512_add_pd(_mm512_loadu_pd(c1 + 8), c11));
        _mm512_storeu_pd(c2, _mm512_add_pd(_mm512_loadu_pd(c2), c20));
        _mm512_storeu_pd(c2 + 8, _mm512_add_pd(_mm512_loadu_pd(c2 + 8), c21));
        _mm512_storeu_pd(c3, _mm512_add_pd(_mm512_loadu_pd(c3), c30));
        _mm512_storeu_pd(c3 + 8, _mm512_add_pd(_mm512_loadu_pd(c3 + 8), c31));
      }
      // Column tail (< 16): one masked 8-lane strip at a time.
      for (; j < n; j += 8) {
        const std::size_t lanes = std::min<std::size_t>(8, n - j);
        const __mmask8 mask = static_cast<__mmask8>((1U << lanes) - 1U);
        __m512d s0 = _mm512_setzero_pd(), s1 = _mm512_setzero_pd();
        __m512d s2 = _mm512_setzero_pd(), s3 = _mm512_setzero_pd();
        for (std::size_t kk = k0; kk < k1; ++kk) {
          const __m512d bv = _mm512_maskz_loadu_pd(mask, b + kk * n + j);
          s0 = _mm512_fmadd_pd(
              _mm512_set1_pd(a_at<TransA>(a, lda, i + 0, kk)), bv, s0);
          s1 = _mm512_fmadd_pd(
              _mm512_set1_pd(a_at<TransA>(a, lda, i + 1, kk)), bv, s1);
          s2 = _mm512_fmadd_pd(
              _mm512_set1_pd(a_at<TransA>(a, lda, i + 2, kk)), bv, s2);
          s3 = _mm512_fmadd_pd(
              _mm512_set1_pd(a_at<TransA>(a, lda, i + 3, kk)), bv, s3);
        }
        double* c0 = c + (i + 0) * n + j;
        double* c1 = c + (i + 1) * n + j;
        double* c2 = c + (i + 2) * n + j;
        double* c3 = c + (i + 3) * n + j;
        _mm512_mask_storeu_pd(
            c0, mask, _mm512_add_pd(_mm512_maskz_loadu_pd(mask, c0), s0));
        _mm512_mask_storeu_pd(
            c1, mask, _mm512_add_pd(_mm512_maskz_loadu_pd(mask, c1), s1));
        _mm512_mask_storeu_pd(
            c2, mask, _mm512_add_pd(_mm512_maskz_loadu_pd(mask, c2), s2));
        _mm512_mask_storeu_pd(
            c3, mask, _mm512_add_pd(_mm512_maskz_loadu_pd(mask, c3), s3));
      }
    }
    // Row tail (< 4): one-row masked kernel.
    for (; i < m; ++i) {
      double* c_row = c + i * n;
      for (std::size_t j = 0; j < n; j += 8) {
        const std::size_t lanes = std::min<std::size_t>(8, n - j);
        const __mmask8 mask = static_cast<__mmask8>((1U << lanes) - 1U);
        __m512d s = _mm512_setzero_pd();
        for (std::size_t kk = k0; kk < k1; ++kk) {
          const __m512d av = _mm512_set1_pd(a_at<TransA>(a, lda, i, kk));
          s = _mm512_fmadd_pd(av, _mm512_maskz_loadu_pd(mask, b + kk * n + j),
                              s);
        }
        _mm512_mask_storeu_pd(
            c_row + j, mask,
            _mm512_add_pd(_mm512_maskz_loadu_pd(mask, c_row + j), s));
      }
    }
  }
}

void avx512_nn(const double* a, std::size_t lda, const double* b, double* c,
               std::size_t m, std::size_t n, std::size_t k, bool accumulate) {
  gemm_broadcast<false>(a, lda, b, c, m, n, k, accumulate);
}

void avx512_tn(const double* a, const double* b, double* c, std::size_t m,
               std::size_t n, std::size_t k, bool accumulate) {
  gemm_broadcast<true>(a, m, b, c, m, n, k, accumulate);
}

void avx512_nt(const double* a, const double* b, double* c, std::size_t m,
               std::size_t n, std::size_t k, bool accumulate) {
  if (!accumulate) std::fill(c, c + m * n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    const double* a_row = a + i * k;
    double* c_row = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const double* b_row = b + j * k;
      __m512d s0 = _mm512_setzero_pd();
      __m512d s1 = _mm512_setzero_pd();
      std::size_t kk = 0;
      for (; kk + 16 <= k; kk += 16) {
        s0 = _mm512_fmadd_pd(_mm512_loadu_pd(a_row + kk),
                             _mm512_loadu_pd(b_row + kk), s0);
        s1 = _mm512_fmadd_pd(_mm512_loadu_pd(a_row + kk + 8),
                             _mm512_loadu_pd(b_row + kk + 8), s1);
      }
      double dot = _mm512_reduce_add_pd(_mm512_add_pd(s0, s1));
      for (; kk < k; ++kk) dot += a_row[kk] * b_row[kk];
      c_row[j] += dot;
    }
  }
}

}  // namespace

const gemm_table& avx512_table() noexcept {
  static const gemm_table table{avx512_nn, avx512_tn, avx512_nt,
                                 avx512_tanh_row};
  return table;
}

}  // namespace dqn::nn::kernels::detail

#else  // AVX-512 path not compiled in

namespace dqn::nn::kernels::detail {

const gemm_table& avx512_table() noexcept {
  static const gemm_table table{};
  return table;
}

}  // namespace dqn::nn::kernels::detail

#endif
