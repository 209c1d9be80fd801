// AVX2 tanh row kernel: kernels::tanh (tanh.cpp) four lanes at a time, the
// same operations in the same order, so its results equal the scalar
// reference bit for bit. Built with -mavx2 -mfma -ffp-contract=off (see
// src/nn/CMakeLists.txt): the FMA flag only keeps the compile gate equal to
// gemm_avx2.cpp's, whose table holds this kernel, and -ffp-contract=off
// stops the compiler from fusing any multiply-add here.
#include "nn/kernels/gemm_tables.hpp"

#if defined(__AVX2__) && defined(__FMA__) && defined(__x86_64__)

#include <immintrin.h>

#include <cstddef>

#include "nn/kernels/tanh.hpp"

namespace dqn::nn::kernels::detail {

namespace {

namespace k = tanh_consts;

inline __m256d tanh4(__m256d x) noexcept {
  const __m256d sign_mask = _mm256_castsi256_pd(
      _mm256_set1_epi64x(static_cast<long long>(k::sign_mask)));
  const __m256d a = _mm256_andnot_pd(sign_mask, x);
  const __m256d small = _mm256_cmp_pd(a, _mm256_set1_pd(k::small), _CMP_LT_OQ);

  // |x| < 0.625: a + (a·s·P(s)) / Q(s).
  const __m256d s = _mm256_mul_pd(a, a);
  __m256d poly = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(k::p0), s),
                               _mm256_set1_pd(k::p1));
  poly = _mm256_add_pd(_mm256_mul_pd(poly, s), _mm256_set1_pd(k::p2));
  const __m256d num_small = _mm256_mul_pd(_mm256_mul_pd(a, s), poly);
  __m256d den_small = _mm256_add_pd(s, _mm256_set1_pd(k::q0));
  den_small = _mm256_add_pd(_mm256_mul_pd(den_small, s), _mm256_set1_pd(k::q1));
  den_small = _mm256_add_pd(_mm256_mul_pd(den_small, s), _mm256_set1_pd(k::q2));

  // Otherwise: 1 − 2(q − p) / (2^n·(q + p) + (q − p)).
  const __m256d y2 = _mm256_min_pd(_mm256_set1_pd(k::clamp), a);
  const __m256d y = _mm256_add_pd(y2, y2);
  const __m256d t = _mm256_add_pd(_mm256_mul_pd(y, _mm256_set1_pd(k::log2e)),
                                  _mm256_set1_pd(k::magic));
  const __m256d n = _mm256_sub_pd(t, _mm256_set1_pd(k::magic));
  const __m256d r =
      _mm256_sub_pd(_mm256_sub_pd(y, _mm256_mul_pd(n, _mm256_set1_pd(k::c1))),
                    _mm256_mul_pd(n, _mm256_set1_pd(k::c2)));
  const __m256d rr = _mm256_mul_pd(r, r);
  __m256d p = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(k::ep0), rr),
                            _mm256_set1_pd(k::ep1));
  p = _mm256_add_pd(_mm256_mul_pd(p, rr), _mm256_set1_pd(k::ep2));
  p = _mm256_mul_pd(r, p);
  __m256d q = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(k::eq0), rr),
                            _mm256_set1_pd(k::eq1));
  q = _mm256_add_pd(_mm256_mul_pd(q, rr), _mm256_set1_pd(k::eq2));
  q = _mm256_add_pd(_mm256_mul_pd(q, rr), _mm256_set1_pd(k::eq3));
  const __m256i bias =
      _mm256_set1_epi64x(static_cast<long long>(k::exponent_bias));
  const __m256d scale = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_add_epi64(_mm256_castpd_si256(t), bias), 52));
  const __m256d d = _mm256_sub_pd(q, p);
  const __m256d num_big = _mm256_xor_pd(_mm256_add_pd(d, d), sign_mask);
  const __m256d den_big =
      _mm256_add_pd(_mm256_mul_pd(_mm256_add_pd(q, p), scale), d);

  const __m256d base = _mm256_blendv_pd(_mm256_set1_pd(1.0), a, small);
  const __m256d num = _mm256_blendv_pd(num_big, num_small, small);
  const __m256d den = _mm256_blendv_pd(den_big, den_small, small);
  const __m256d mag = _mm256_add_pd(base, _mm256_div_pd(num, den));
  return _mm256_or_pd(_mm256_andnot_pd(sign_mask, mag),
                      _mm256_and_pd(sign_mask, x));
}

}  // namespace

void avx2_tanh_row(double* x, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(x + i, tanh4(_mm256_loadu_pd(x + i)));
  if (i < n) {
    // Masked tail: off lanes load 0.0 and are never stored.
    const __m256i lanes = _mm256_setr_epi64x(0, 1, 2, 3);
    const __m256i mask = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(n - i)), lanes);
    _mm256_maskstore_pd(x + i, mask, tanh4(_mm256_maskload_pd(x + i, mask)));
  }
}

}  // namespace dqn::nn::kernels::detail

#endif
