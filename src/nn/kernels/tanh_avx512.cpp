// AVX-512 tanh row kernel: kernels::tanh (tanh.cpp) eight lanes at a time,
// the same operations in the same order, so its results equal the scalar
// reference bit for bit. Built with -mavx512f -ffp-contract=off (see
// src/nn/CMakeLists.txt) and limited to AVX-512F intrinsics, because the
// avx512 backend is gated on AVX-512F alone: the bit operations go through
// the integer forms (_mm512_and_si512, not the AVX512DQ _mm512_and_pd).
#include "nn/kernels/gemm_tables.hpp"

#if defined(__AVX512F__) && defined(__x86_64__)

#include <immintrin.h>

#include <cstddef>

#include "nn/kernels/tanh.hpp"

// GCC's -Wmaybe-uninitialized false-positives on _mm512_maskz_loadu_pd's
// expansion (see gemm_avx512.cpp).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace dqn::nn::kernels::detail {

namespace {

namespace k = tanh_consts;

inline __m512d tanh8(__m512d x) noexcept {
  const __m512i sign_mask =
      _mm512_set1_epi64(static_cast<long long>(k::sign_mask));
  const __m512i xi = _mm512_castpd_si512(x);
  const __m512d a = _mm512_castsi512_pd(_mm512_andnot_si512(sign_mask, xi));
  const __mmask8 small =
      _mm512_cmp_pd_mask(a, _mm512_set1_pd(k::small), _CMP_LT_OQ);

  // |x| < 0.625: a + (a·s·P(s)) / Q(s).
  const __m512d s = _mm512_mul_pd(a, a);
  __m512d poly = _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(k::p0), s),
                               _mm512_set1_pd(k::p1));
  poly = _mm512_add_pd(_mm512_mul_pd(poly, s), _mm512_set1_pd(k::p2));
  const __m512d num_small = _mm512_mul_pd(_mm512_mul_pd(a, s), poly);
  __m512d den_small = _mm512_add_pd(s, _mm512_set1_pd(k::q0));
  den_small = _mm512_add_pd(_mm512_mul_pd(den_small, s), _mm512_set1_pd(k::q1));
  den_small = _mm512_add_pd(_mm512_mul_pd(den_small, s), _mm512_set1_pd(k::q2));

  // Otherwise: 1 − 2(q − p) / (2^n·(q + p) + (q − p)).
  const __m512d y2 = _mm512_min_pd(_mm512_set1_pd(k::clamp), a);
  const __m512d y = _mm512_add_pd(y2, y2);
  const __m512d t = _mm512_add_pd(_mm512_mul_pd(y, _mm512_set1_pd(k::log2e)),
                                  _mm512_set1_pd(k::magic));
  const __m512d n = _mm512_sub_pd(t, _mm512_set1_pd(k::magic));
  const __m512d r =
      _mm512_sub_pd(_mm512_sub_pd(y, _mm512_mul_pd(n, _mm512_set1_pd(k::c1))),
                    _mm512_mul_pd(n, _mm512_set1_pd(k::c2)));
  const __m512d rr = _mm512_mul_pd(r, r);
  __m512d p = _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(k::ep0), rr),
                            _mm512_set1_pd(k::ep1));
  p = _mm512_add_pd(_mm512_mul_pd(p, rr), _mm512_set1_pd(k::ep2));
  p = _mm512_mul_pd(r, p);
  __m512d q = _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(k::eq0), rr),
                            _mm512_set1_pd(k::eq1));
  q = _mm512_add_pd(_mm512_mul_pd(q, rr), _mm512_set1_pd(k::eq2));
  q = _mm512_add_pd(_mm512_mul_pd(q, rr), _mm512_set1_pd(k::eq3));
  const __m512i bias =
      _mm512_set1_epi64(static_cast<long long>(k::exponent_bias));
  const __m512d scale = _mm512_castsi512_pd(
      _mm512_slli_epi64(_mm512_add_epi64(_mm512_castpd_si512(t), bias), 52));
  const __m512d d = _mm512_sub_pd(q, p);
  const __m512d num_big = _mm512_castsi512_pd(
      _mm512_xor_si512(_mm512_castpd_si512(_mm512_add_pd(d, d)), sign_mask));
  const __m512d den_big =
      _mm512_add_pd(_mm512_mul_pd(_mm512_add_pd(q, p), scale), d);

  const __m512d base = _mm512_mask_blend_pd(small, _mm512_set1_pd(1.0), a);
  const __m512d num = _mm512_mask_blend_pd(small, num_big, num_small);
  const __m512d den = _mm512_mask_blend_pd(small, den_big, den_small);
  const __m512d mag = _mm512_add_pd(base, _mm512_div_pd(num, den));
  return _mm512_castsi512_pd(
      _mm512_or_si512(_mm512_andnot_si512(sign_mask, _mm512_castpd_si512(mag)),
                      _mm512_and_si512(sign_mask, xi)));
}

}  // namespace

void avx512_tanh_row(double* x, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm512_storeu_pd(x + i, tanh8(_mm512_loadu_pd(x + i)));
  if (i < n) {
    // Masked tail: off lanes load 0.0 and are never stored.
    const auto mask = static_cast<__mmask8>((1U << (n - i)) - 1U);
    _mm512_mask_storeu_pd(x + i, mask,
                          tanh8(_mm512_maskz_loadu_pd(mask, x + i)));
  }
}

}  // namespace dqn::nn::kernels::detail

#endif
