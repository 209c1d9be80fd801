// AVX-512F backend: the NN/TN broadcast GEMM with its fused epilogue, the
// NT dot-product GEMM and the tanh row kernel. This translation unit is the
// only one built with -mavx512f, and it is built with -ffp-contract=off
// (see src/nn/CMakeLists.txt): tanh8 equals kernels::tanh bit for bit only
// if no multiply-add in it is fused (tanh.hpp). The GEMMs use explicit
// fmadd intrinsics and std::fma, so the flag changes none of their bits.
// Without the flags, or off x86-64, the unit degrades to an empty table and
// the dispatch in gemm.cpp never routes here. It uses AVX-512F intrinsics
// only, because the backend is gated on AVX-512F alone: bit operations go
// through the integer forms (_mm512_and_si512, not the AVX512DQ
// _mm512_and_pd).
//
// NN/TN, broadcast-A form. Column strips run outermost within a k_block, so
// one strip of the panel of B (at most k_block × 24 doubles, 48 KB) stays
// in L1 while every row block of A passes over it. The register tile holds
// 8 rows × 24 columns of C in 24 zmm accumulators; each k step loads three
// B vectors and broadcasts eight A values. Past the last 8-row block come a
// 4-row tile and 1-row tiles. Past the last 24-wide strip comes one strip
// of one to three vectors, its last vector masked when partial, so a
// single-column output runs as eight independent row chains. Each
// accumulator starts at +0.0, takes fmadd over its k_block in ascending k
// and is added to C as a unit — to +0.0 on a non-accumulating call's first
// block, which is what a fill would have left there — so neither the loop
// order nor the tile shape enters any element's arithmetic (gemm.hpp,
// Numerics). On the call's last block the store applies the epilogue:
// act(C + acc + bias), the operations bias_act runs, in the same order.
//
// NT reduces 2-wide unrolled dot products, with a std::fma tail.
#include "nn/kernels/gemm.hpp"
#include "nn/kernels/gemm_tables.hpp"

#if defined(__AVX512F__) && defined(__x86_64__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "nn/kernels/epilogue.hpp"
#include "nn/kernels/tanh.hpp"

// GCC's -Wmaybe-uninitialized false-positives on _mm512_maskz_loadu_pd's
// intrinsic expansion (the masked-off lanes look uninitialized to the
// analyzer even though maskz zeroes them by definition).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace dqn::nn::kernels::detail {

namespace {

// kernels::tanh (tanh.cpp) on eight lanes: the same operations in the same
// order, the two branches blended per lane.
inline __m512d tanh8(__m512d x) noexcept {
  namespace k = tanh_consts;
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

// The low `lanes` (1..8) of a vector.
inline __mmask8 low_lanes(std::size_t lanes) noexcept {
  return static_cast<__mmask8>((1U << lanes) - 1U);
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

// C[row, j, j + 8) := finish(C or +0.0, acc) on the lanes in `mask`.
inline void store_vector(double* c_row, std::size_t j, __m512d acc,
                         __mmask8 mask, const tile_store& st) {
  const __m512d base =
      st.first ? _mm512_setzero_pd() : _mm512_maskz_loadu_pd(mask, c_row + j);
  __m512d v = _mm512_add_pd(base, acc);
  if (st.ep.bias != nullptr) {
    v = _mm512_add_pd(v, _mm512_maskz_loadu_pd(mask, st.ep.bias + j));
    if (st.ep.act == unary::relu)  // v > 0 ? v : 0, NaN included
      v = _mm512_maskz_mov_pd(
          _mm512_cmp_pd_mask(v, _mm512_setzero_pd(), _CMP_GT_OQ), v);
    else if (st.ep.act == unary::tanh)
      v = tanh8(v);
  }
  _mm512_mask_storeu_pd(c_row + j, mask, v);
}

// One R×(8V) register tile: rows [i, i + R) of C, columns [j, j + 8V), over
// k in [k0, k1). With Masked, the last vector holds only the lanes in
// `tail`: B is read and C written there alone.
template <bool TransA, std::size_t R, std::size_t V, bool Masked>
void tile(const double* a, std::size_t lda, const double* b, double* c,
          std::size_t n, std::size_t i, std::size_t j, std::size_t k0,
          std::size_t k1, __mmask8 tail, const tile_store& st) {
  __m512d acc[R][V];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 3
    for (std::size_t v = 0; v < V; ++v) acc[r][v] = _mm512_setzero_pd();
  for (std::size_t kk = k0; kk < k1; ++kk) {
    const double* b_row = b + kk * n + j;
    __m512d bv[V];
#pragma GCC unroll 3
    for (std::size_t v = 0; v < V; ++v)
      bv[v] = Masked && v + 1 == V ? _mm512_maskz_loadu_pd(tail, b_row + 8 * v)
                                   : _mm512_loadu_pd(b_row + 8 * v);
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const __m512d av = _mm512_set1_pd(a_at<TransA>(a, lda, i + r, kk));
#pragma GCC unroll 3
      for (std::size_t v = 0; v < V; ++v)
        acc[r][v] = _mm512_fmadd_pd(av, bv[v], acc[r][v]);
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 3
    for (std::size_t v = 0; v < V; ++v)
      store_vector(c + (i + r) * n, j + 8 * v, acc[r][v],
                   Masked && v + 1 == V ? tail : low_lanes(8), st);
}

// Every row block of A over one column strip: 8-row tiles, then a 4-row
// tile, then 1-row tiles.
template <bool TransA, std::size_t V, bool Masked>
void strip(const double* a, std::size_t lda, const double* b, double* c,
           std::size_t m, std::size_t n, std::size_t j, std::size_t k0,
           std::size_t k1, __mmask8 tail, const tile_store& st) {
  std::size_t i = 0;
  for (; i + 8 <= m; i += 8)
    tile<TransA, 8, V, Masked>(a, lda, b, c, n, i, j, k0, k1, tail, st);
  if (i + 4 <= m) {
    tile<TransA, 4, V, Masked>(a, lda, b, c, n, i, j, k0, k1, tail, st);
    i += 4;
  }
  for (; i < m; ++i)
    tile<TransA, 1, V, Masked>(a, lda, b, c, n, i, j, k0, k1, tail, st);
}

// The columns past the last 24-wide strip: one strip of V vectors whose
// last holds `lanes` (1..8) columns, masked only when it is partial.
template <bool TransA, std::size_t V>
void rest_strip(const double* a, std::size_t lda, const double* b, double* c,
                std::size_t m, std::size_t n, std::size_t j, std::size_t k0,
                std::size_t k1, std::size_t lanes, const tile_store& st) {
  if (lanes == 8)
    strip<TransA, V, false>(a, lda, b, c, m, n, j, k0, k1, 0, st);
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
    for (; j + 24 <= n; j += 24)
      strip<TransA, 3, false>(a, lda, b, c, m, n, j, k0, k1, 0, st);
    const std::size_t rest = n - j;
    if (rest > 16)
      rest_strip<TransA, 3>(a, lda, b, c, m, n, j, k0, k1, rest - 16, st);
    else if (rest > 8)
      rest_strip<TransA, 2>(a, lda, b, c, m, n, j, k0, k1, rest - 8, st);
    else if (rest > 0)
      rest_strip<TransA, 1>(a, lda, b, c, m, n, j, k0, k1, rest, st);
  }
}

// identity, relu and tanh are applied in the tiles' stores. sigmoid (it
// takes std::exp) and a call with no k block to store from run bias_act
// over the finished product instead.
void avx512_nn(const double* a, std::size_t lda, const double* b, double* c,
               std::size_t m, std::size_t n, std::size_t k, bool accumulate,
               epilogue ep) {
  const bool fused = k > 0 && ep.act != unary::sigmoid;
  gemm_broadcast<false>(a, lda, b, c, m, n, k, accumulate,
                        fused ? ep : epilogue{});
  if (!fused && ep.bias != nullptr) bias_act(c, ep.bias, m, n, ep.act);
}

void avx512_tn(const double* a, const double* b, double* c, std::size_t m,
               std::size_t n, std::size_t k, bool accumulate) {
  gemm_broadcast<true>(a, m, b, c, m, n, k, accumulate, {});
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
      for (; kk < k; ++kk) dot = std::fma(a_row[kk], b_row[kk], dot);
      c_row[j] += dot;
    }
  }
}

}  // namespace

void avx512_tanh_row(double* x, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm512_storeu_pd(x + i, tanh8(_mm512_loadu_pd(x + i)));
  if (i < n) {
    // Masked tail: off lanes load 0.0 and are never stored.
    const __mmask8 mask = low_lanes(n - i);
    _mm512_mask_storeu_pd(x + i, mask,
                          tanh8(_mm512_maskz_loadu_pd(mask, x + i)));
  }
}

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
