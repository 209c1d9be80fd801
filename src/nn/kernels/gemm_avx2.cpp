// AVX2+FMA backend: the NN/TN broadcast GEMM with its fused epilogue, the
// NT dot-product GEMM and the tanh row kernel. This translation unit is the
// only one compiled with -mavx2 -mfma, and it is built with
// -ffp-contract=off (see src/nn/CMakeLists.txt): tanh4 equals kernels::tanh
// bit for bit only if no multiply-add in it is fused (tanh.hpp). The GEMMs
// use explicit fmadd intrinsics and std::fma, so the flag changes none of
// their bits. When the compiler lacks the flags or the target is not
// x86-64, it degrades to an empty table and the dispatch in gemm.cpp never
// routes here.
//
// NN/TN, broadcast-A form, the avx512 backend's structure on 256-bit
// vectors: column strips run outermost within a k_block, so one strip of
// the panel of B stays in L1 while every row block of A passes over it. The
// register tile holds 4 rows × 12 columns of C (12 accumulators, three B
// vectors and one broadcast: all 16 ymm registers). Past the last 4-row
// block come 1-row tiles, and past the last 12-wide strip one strip of one
// to three vectors, its last vector masked when partial; a one-vector strip
// runs 8-row tiles first, so a single-column output runs as eight
// independent row chains. Each accumulator starts at +0.0, takes fmadd over
// its k_block in ascending k and is added to C as a unit — to +0.0 on a
// non-accumulating call's first block — so neither the loop order nor the
// tile shape enters any element's arithmetic (gemm.hpp, Numerics). On the
// call's last block the store applies the epilogue: act(C + acc + bias),
// the operations bias_act runs, in the same order.
//
// NT keeps both streams contiguous over k and reduces 2-wide unrolled dot
// products, with a std::fma tail.
#include "nn/kernels/gemm.hpp"
#include "nn/kernels/gemm_tables.hpp"

#if defined(__AVX2__) && defined(__FMA__) && defined(__x86_64__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "nn/kernels/epilogue.hpp"
#include "nn/kernels/tanh.hpp"

namespace dqn::nn::kernels::detail {

namespace {

// kernels::tanh (tanh.cpp) on four lanes: the same operations in the same
// order, the two branches blended per lane.
inline __m256d tanh4(__m256d x) noexcept {
  namespace k = tanh_consts;
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

// The low `lanes` (1..4) of a vector, as a maskload/maskstore mask.
inline __m256i low_lanes(std::size_t lanes) noexcept {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(lanes)),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

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

// How the tiles of one k_block store: onto +0.0 instead of C (`first`: a
// non-accumulating call's first block), and with the call's epilogue on its
// last block (a null bias on every other).
struct tile_store {
  bool first = false;
  epilogue ep;
};

// C[row, j, j + 4) := finish(C or +0.0, acc); with `masked`, only the lanes
// in `mask` are read and written.
inline void store_vector(double* c_row, std::size_t j, __m256d acc,
                         bool masked, __m256i mask, const tile_store& st) {
  const auto load = [&](const double* p) {
    return masked ? _mm256_maskload_pd(p, mask) : _mm256_loadu_pd(p);
  };
  __m256d v = _mm256_add_pd(st.first ? _mm256_setzero_pd() : load(c_row + j),
                            acc);
  if (st.ep.bias != nullptr) {
    v = _mm256_add_pd(v, load(st.ep.bias + j));
    if (st.ep.act == unary::relu)  // v > 0 ? v : 0, NaN included
      v = _mm256_and_pd(v,
                        _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_GT_OQ));
    else if (st.ep.act == unary::tanh)
      v = tanh4(v);
  }
  if (masked)
    _mm256_maskstore_pd(c_row + j, mask, v);
  else
    _mm256_storeu_pd(c_row + j, v);
}

// One R×(4V) register tile: rows [i, i + R) of C, columns [j, j + 4V), over
// k in [k0, k1). With Masked, the last vector holds only the lanes in
// `tail`: B is read and C written there alone.
template <bool TransA, std::size_t R, std::size_t V, bool Masked>
void tile(const double* a, std::size_t lda, const double* b, double* c,
          std::size_t n, std::size_t i, std::size_t j, std::size_t k0,
          std::size_t k1, __m256i tail, const tile_store& st) {
  __m256d acc[R][V];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 3
    for (std::size_t v = 0; v < V; ++v) acc[r][v] = _mm256_setzero_pd();
  for (std::size_t kk = k0; kk < k1; ++kk) {
    const double* b_row = b + kk * n + j;
    __m256d bv[V];
#pragma GCC unroll 3
    for (std::size_t v = 0; v < V; ++v)
      bv[v] = Masked && v + 1 == V ? _mm256_maskload_pd(b_row + 4 * v, tail)
                                   : _mm256_loadu_pd(b_row + 4 * v);
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const __m256d av = _mm256_set1_pd(a_at<TransA>(a, lda, i + r, kk));
#pragma GCC unroll 3
      for (std::size_t v = 0; v < V; ++v)
        acc[r][v] = _mm256_fmadd_pd(av, bv[v], acc[r][v]);
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 3
    for (std::size_t v = 0; v < V; ++v)
      store_vector(c + (i + r) * n, j + 4 * v, acc[r][v],
                   Masked && v + 1 == V, tail, st);
}

// Every row block of A over one column strip: 4-row tiles, then 1-row
// tiles. A one-vector strip takes 8-row tiles first, so a narrow output
// still runs eight independent FMA chains.
template <bool TransA, std::size_t V, bool Masked>
void strip(const double* a, std::size_t lda, const double* b, double* c,
           std::size_t m, std::size_t n, std::size_t j, std::size_t k0,
           std::size_t k1, __m256i tail, const tile_store& st) {
  std::size_t i = 0;
  if constexpr (V == 1)
    for (; i + 8 <= m; i += 8)
      tile<TransA, 8, V, Masked>(a, lda, b, c, n, i, j, k0, k1, tail, st);
  for (; i + 4 <= m; i += 4)
    tile<TransA, 4, V, Masked>(a, lda, b, c, n, i, j, k0, k1, tail, st);
  for (; i < m; ++i)
    tile<TransA, 1, V, Masked>(a, lda, b, c, n, i, j, k0, k1, tail, st);
}

// The columns past the last 12-wide strip: one strip of V vectors whose
// last holds `lanes` (1..4) columns, masked only when it is partial.
template <bool TransA, std::size_t V>
void rest_strip(const double* a, std::size_t lda, const double* b, double* c,
                std::size_t m, std::size_t n, std::size_t j, std::size_t k0,
                std::size_t k1, std::size_t lanes, const tile_store& st) {
  if (lanes == 4)
    strip<TransA, V, false>(a, lda, b, c, m, n, j, k0, k1, low_lanes(4), st);
  else
    strip<TransA, V, true>(a, lda, b, c, m, n, j, k0, k1, low_lanes(lanes),
                           st);
}

template <bool TransA>
void gemm_broadcast(const double* a, std::size_t lda, const double* b,
                    double* c, std::size_t m, std::size_t n, std::size_t k,
                    bool accumulate, epilogue ep) {
  if (k == 0 && !accumulate) std::fill(c, c + m * n, 0.0);
  for (std::size_t k0 = 0; k0 < k; k0 += k_block) {
    const std::size_t k1 = std::min(k, k0 + k_block);
    const tile_store st{!accumulate && k0 == 0, k1 == k ? ep : epilogue{}};
    std::size_t j = 0;
    for (; j + 12 <= n; j += 12)
      strip<TransA, 3, false>(a, lda, b, c, m, n, j, k0, k1, low_lanes(4),
                              st);
    const std::size_t rest = n - j;
    if (rest > 8)
      rest_strip<TransA, 3>(a, lda, b, c, m, n, j, k0, k1, rest - 8, st);
    else if (rest > 4)
      rest_strip<TransA, 2>(a, lda, b, c, m, n, j, k0, k1, rest - 4, st);
    else if (rest > 0)
      rest_strip<TransA, 1>(a, lda, b, c, m, n, j, k0, k1, rest, st);
  }
}

// identity, relu and tanh are applied in the tiles' stores. sigmoid (it
// takes std::exp) and a call with no k block to store from run bias_act
// over the finished product instead.
void avx2_nn(const double* a, std::size_t lda, const double* b, double* c,
             std::size_t m, std::size_t n, std::size_t k, bool accumulate,
             epilogue ep) {
  const bool fused = k > 0 && ep.act != unary::sigmoid;
  gemm_broadcast<false>(a, lda, b, c, m, n, k, accumulate,
                        fused ? ep : epilogue{});
  if (!fused && ep.bias != nullptr) bias_act(c, ep.bias, m, n, ep.act);
}

void avx2_tn(const double* a, const double* b, double* c, std::size_t m,
             std::size_t n, std::size_t k, bool accumulate) {
  gemm_broadcast<true>(a, m, b, c, m, n, k, accumulate, {});
}

inline double hsum(__m256d v) noexcept {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d sum2 = _mm_add_pd(lo, hi);
  const __m128d swapped = _mm_unpackhi_pd(sum2, sum2);
  return _mm_cvtsd_f64(_mm_add_sd(sum2, swapped));
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
      for (; kk < k; ++kk) dot = std::fma(a_row[kk], b_row[kk], dot);
      c_row[j] += dot;
    }
  }
}

}  // namespace

void avx2_tanh_row(double* x, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(x + i, tanh4(_mm256_loadu_pd(x + i)));
  if (i < n) {
    // Masked tail: off lanes load 0.0 and are never stored.
    const __m256i mask = low_lanes(n - i);
    _mm256_maskstore_pd(x + i, mask, tanh4(_mm256_maskload_pd(x + i, mask)));
  }
}

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
