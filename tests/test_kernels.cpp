// Kernel-layer tests: GEMM backend parity against the retained naive
// reference (1e-10 relative, randomized shapes including odd sizes), every
// backend against a scalar model of its association and epilogue (memcmp,
// every tile tail), strided and overlapping A rows (bit-identical to a
// materialized copy), fused epilogue parity, blocked transpose, the tanh
// row kernels (bit-identical to the scalar reference on every backend,
// within 2 ulp of std::tanh), workspace arena semantics, the PTM row path
// (bit-identical to the window path), and the zero-allocation guarantee
// for steady-state inference (asserted with a global operator-new counting
// hook).
#include <gtest/gtest.h>

// This TU replaces the global allocation functions with malloc/free-backed
// counting versions (below). GCC pairs the *declared* ::operator new with
// std::free at inlined call sites and warns, even though the replacement
// really does allocate with malloc — a known false positive for replaced
// global news that forward to malloc.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <new>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/features.hpp"
#include "core/ptm.hpp"
#include "nn/aligned.hpp"
#include "nn/dense.hpp"
#include "nn/kernels/epilogue.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/kernels/gemm_tables.hpp"
#include "nn/kernels/tanh.hpp"
#include "nn/lstm.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"
#include "nn/seq.hpp"
#include "nn/seq_regressor.hpp"
#include "nn/workspace.hpp"
#include "obs/sink.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------------------
// Global allocation hook: counts every path into the heap so the tests can
// assert that a steady-state forward pass performs zero allocations. The
// overrides forward to malloc/free, which keeps them sanitizer-compatible.

namespace {
std::atomic<std::size_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded))
    return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace dqn;
using nn::kernels::backend;

struct gemm_shape {
  std::size_t m, n, k;
};

// Odd sizes on purpose: they exercise every SIMD tail path (row tails < 4,
// column tails < 8/16, k tails).
constexpr gemm_shape kShapes[] = {
    {1, 1, 1},   {2, 3, 4},    {5, 7, 3},    {7, 5, 11},  {13, 17, 9},
    {16, 16, 16}, {21, 21, 16}, {33, 9, 17},  {4, 64, 8},  {64, 3, 5},
    {3, 31, 29},  {64, 64, 21}, {19, 128, 2}, {1, 40, 40}, {40, 1, 40},
};

void fill_random(std::vector<double>& v, util::rng& rng) {
  for (auto& x : v) x = rng.uniform(-2.0, 2.0);
}

double max_abs(const std::vector<double>& v) {
  double m = 0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

std::vector<backend> compiled_backends() {
  std::vector<backend> out{backend::blocked};
  if (nn::kernels::backend_supported(backend::avx2)) out.push_back(backend::avx2);
  if (nn::kernels::backend_supported(backend::avx512))
    out.push_back(backend::avx512);
  return out;
}

using gemm_call = void (*)(backend, const double*, const double*, double*,
                           std::size_t, std::size_t, std::size_t, bool);

void check_parity(gemm_call call, const gemm_shape& s) {
  util::rng rng{s.m * 1000003 + s.n * 1009 + s.k};
  // A holds m*k elements in every operand order (m×k or k×m), B holds k*n
  // (k×n or n×k), so one sizing covers nn/tn/nt alike.
  std::vector<double> a(s.m * s.k), b(s.k * s.n), c_init(s.m * s.n);
  fill_random(a, rng);
  fill_random(b, rng);
  fill_random(c_init, rng);
  for (const bool accumulate : {false, true}) {
    std::vector<double> ref = c_init;
    call(backend::naive, a.data(), b.data(), ref.data(), s.m, s.n, s.k,
         accumulate);
    const double tol = 1e-10 * std::max(1.0, max_abs(ref));
    for (const backend be : compiled_backends()) {
      std::vector<double> got = c_init;
      call(be, a.data(), b.data(), got.data(), s.m, s.n, s.k, accumulate);
      for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_NEAR(ref[i], got[i], tol)
            << nn::kernels::to_string(be) << " m=" << s.m << " n=" << s.n
            << " k=" << s.k << " acc=" << accumulate << " at " << i;
    }
  }
}

TEST(gemm_kernels, nn_matches_naive_reference) {
  for (const auto& s : kShapes)
    check_parity(
        [](backend be, const double* a, const double* b, double* c,
           std::size_t m, std::size_t n, std::size_t k, bool acc) {
          nn::kernels::gemm_nn(be, a, b, c, m, n, k, acc);
        },
        s);
}

TEST(gemm_kernels, tn_matches_naive_reference) {
  for (const auto& s : kShapes)
    check_parity(
        [](backend be, const double* a, const double* b, double* c,
           std::size_t m, std::size_t n, std::size_t k, bool acc) {
          nn::kernels::gemm_tn(be, a, b, c, m, n, k, acc);
        },
        s);
}

TEST(gemm_kernels, nt_matches_naive_reference) {
  for (const auto& s : kShapes)
    check_parity(
        [](backend be, const double* a, const double* b, double* c,
           std::size_t m, std::size_t n, std::size_t k, bool acc) {
          nn::kernels::gemm_nt(be, a, b, c, m, n, k, acc);
        },
        s);
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// A row stride on A changes which memory is read, never the arithmetic: in
// every backend a strided call equals, bit for bit, the same backend's
// contiguous call on a materialized copy. Covers a column window of a wider
// matrix (lda > k) and overlapping rows (lda < k), including the PTM's first
// layer reading 12-row windows in place from 17-wide feature rows.
TEST(gemm_kernels, nn_strided_a_matches_contiguous_copy_bitwise) {
  struct strided_case {
    std::size_t m, n, k, lda;
  };
  std::vector<strided_case> cases;
  for (const auto& s : kShapes) {
    cases.push_back({s.m, s.n, s.k, s.k + 5});
    if (s.k > 1) cases.push_back({s.m, s.n, s.k, (s.k + 1) / 2});
  }
  cases.push_back({37, 96, 12 * 17, 17});
  std::vector<backend> backends = compiled_backends();
  backends.insert(backends.begin(), backend::naive);
  for (const auto& s : cases) {
    util::rng rng{s.m * 7919 + s.n * 131 + s.k * 17 + s.lda};
    std::vector<double> a((s.m - 1) * s.lda + s.k), b(s.k * s.n);
    std::vector<double> c_init(s.m * s.n);
    fill_random(a, rng);
    fill_random(b, rng);
    fill_random(c_init, rng);
    std::vector<double> copy(s.m * s.k);
    for (std::size_t i = 0; i < s.m; ++i)
      std::copy_n(a.data() + i * s.lda, s.k, copy.data() + i * s.k);
    for (const backend be : backends)
      for (const bool accumulate : {false, true}) {
        std::vector<double> want = c_init;
        nn::kernels::gemm_nn(be, copy.data(), b.data(), want.data(), s.m, s.n,
                             s.k, accumulate);
        std::vector<double> got = c_init;
        nn::kernels::gemm_nn(be, a.data(), s.lda, b.data(), got.data(), s.m,
                             s.n, s.k, accumulate);
        ASSERT_TRUE(same_bits(want, got))
            << nn::kernels::to_string(be) << " m=" << s.m << " n=" << s.n
            << " k=" << s.k << " lda=" << s.lda << " acc=" << accumulate;
      }
  }
}

// The association each backend family promises (kernels/gemm.hpp,
// Numerics), as a scalar model of C ?= op(A)·B followed by the epilogue.
// SIMD backends: each k_block-deep block is summed with fma from +0.0 and
// added to C as a unit, onto +0.0 on a non-accumulating call's first block.
// Scalar backends: each product is rounded, then added into C. The
// epilogue is act(C + bias) with nn::apply_activation's formulas.
void model_gemm(bool simd, bool trans_a, const double* a, std::size_t lda,
                const double* b, double* c, std::size_t m, std::size_t n,
                std::size_t k, bool accumulate, nn::kernels::epilogue ep) {
  constexpr std::size_t kb = nn::kernels::k_block;
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double& out = c[i * n + j];
      if (!accumulate) out = 0.0;
      for (std::size_t k0 = 0; k0 < k; k0 += kb) {
        double partial = 0.0;
        for (std::size_t kk = k0; kk < std::min(k, k0 + kb); ++kk) {
          const double aik = trans_a ? a[kk * lda + i] : a[i * lda + kk];
          if (simd)
            partial = std::fma(aik, b[kk * n + j], partial);
          else
            out += aik * b[kk * n + j];
        }
        if (simd) out += partial;
      }
      if (ep.bias != nullptr)
        out = nn::apply_activation(static_cast<nn::activation>(ep.act),
                                   out + ep.bias[j]);
    }
}

// Every backend, NN and TN, equals the model of its family under memcmp,
// over shapes that reach every tail of every tile: rows past the 8- and
// 4-row blocks, columns past the last full strip (24 wide on avx512, 12 on
// avx2) in a rest strip of one, two or three vectors, its last one full or
// masked (n = 13 and 37 take avx512's masked two-vector strip), k past a
// k_block and k = 0, overlapping A rows, accumulate on and off, and every
// epilogue (none, identity, relu, tanh, sigmoid), rotated over the shapes.
// Where A and B are both scaled to 1e-170 the products underflow, so some
// partial sums are -0.0: there `+0.0 + acc` and `acc` differ, as do
// `-0.0 + bias` and `+0.0 + bias` where a bias value is -0.0.
TEST(gemm_kernels, simd_association_is_bitwise) {
  using nn::kernels::unary;
  struct nn_shape {
    std::size_t m, n, k, lda;
  };
  std::vector<nn_shape> shapes;
  for (const std::size_t m : {1, 3, 4, 7, 8, 9, 21, 512})
    for (const std::size_t n :
         {1, 5, 8, 13, 16, 21, 24, 25, 37, 40, 48, 96, 128})
      for (const std::size_t k : {0, 1, 16, 120, 256, 257, 600})
        if (m * n * k <= 1'000'000) {
          // Every other shape reads overlapping rows of A.
          const bool overlap = shapes.size() % 2 == 1 && k > 1;
          shapes.push_back({m, n, k, overlap ? (k + 1) / 2 : k});
        }
  // The e2e PTM's layers over one 512-row chunk (bench_micro_kernels).
  for (const nn_shape s : {nn_shape{512, 96, 120, 10}, {512, 96, 144, 12},
                           {512, 48, 96, 96}, {512, 1, 48, 48}})
    shapes.push_back(s);

  const unary acts[] = {unary::identity, unary::relu, unary::tanh,
                        unary::sigmoid};
  std::vector<backend> backends = compiled_backends();
  backends.insert(backends.begin(), backend::naive);
  for (std::size_t si = 0; si < shapes.size(); ++si) {
    const nn_shape& s = shapes[si];
    util::rng rng{si * 7919 + 3};
    const bool tiny = si % 3 == 0;
    // A serves NN as m rows at stride lda and TN as k×m.
    std::vector<double> a(std::max((s.m - 1) * s.lda + s.k, s.k * s.m));
    std::vector<double> b(s.k * s.n), c_init(s.m * s.n), bias(s.n);
    fill_random(a, rng);
    fill_random(b, rng);
    fill_random(c_init, rng);
    fill_random(bias, rng);
    if (tiny) {
      for (auto& v : a) v *= 1e-170;
      for (std::size_t kk = 0; kk < s.k; ++kk)
        for (std::size_t j = 2; j < s.n; j += 3) b[kk * s.n + j] *= 1e-170;
    }
    for (std::size_t j = 0; j < s.n; j += 5) bias[j] = -0.0;
    for (std::size_t x = 0; x < c_init.size(); x += 7) c_init[x] = -0.0;
    for (const bool accumulate : {false, true}) {
      // The epilogue rotates over the shapes: none, then each activation.
      const std::size_t kind = (2 * si + (accumulate ? 1 : 0)) % 5;
      const nn::kernels::epilogue ep =
          kind == 0 ? nn::kernels::epilogue{}
                    : nn::kernels::epilogue{bias.data(), acts[kind - 1]};
      std::vector<double> want_nn[2], want_tn[2];  // [simd]
      for (const bool simd : {false, true}) {
        want_nn[simd] = c_init;
        model_gemm(simd, false, a.data(), s.lda, b.data(),
                   want_nn[simd].data(), s.m, s.n, s.k, accumulate, ep);
        want_tn[simd] = c_init;
        model_gemm(simd, true, a.data(), s.m, b.data(), want_tn[simd].data(),
                   s.m, s.n, s.k, accumulate, {});
      }
      for (const backend be : backends) {
        const bool simd = be == backend::avx2 || be == backend::avx512;
        std::vector<double> got = c_init;
        nn::kernels::gemm_nn(be, a.data(), s.lda, b.data(), got.data(), s.m,
                             s.n, s.k, accumulate, ep);
        ASSERT_TRUE(same_bits(want_nn[simd], got))
            << "nn on " << nn::kernels::to_string(be) << " m=" << s.m
            << " n=" << s.n << " k=" << s.k << " lda=" << s.lda
            << " acc=" << accumulate << " epilogue=" << kind
            << " tiny=" << tiny;
        got = c_init;
        nn::kernels::gemm_tn(be, a.data(), b.data(), got.data(), s.m, s.n,
                             s.k, accumulate);
        ASSERT_TRUE(same_bits(want_tn[simd], got))
            << "tn on " << nn::kernels::to_string(be) << " m=" << s.m
            << " n=" << s.n << " k=" << s.k << " acc=" << accumulate
            << " tiny=" << tiny;
      }
    }
  }
}

TEST(gemm_kernels, backend_tables_expose_compiled_backends) {
  // The scalar tables are always compiled in.
  EXPECT_TRUE(nn::kernels::detail::naive_table().complete());
  EXPECT_TRUE(nn::kernels::detail::blocked_table().complete());
  // A backend is only "supported" when its table was compiled in.
  if (!nn::kernels::detail::avx2_table().complete()) {
    EXPECT_FALSE(nn::kernels::backend_supported(backend::avx2));
  }
  if (!nn::kernels::detail::avx512_table().complete()) {
    EXPECT_FALSE(nn::kernels::backend_supported(backend::avx512));
  }
}

// reset_backend() re-runs startup selection, DQN_KERNEL_BACKEND included.
// The test sets the variable itself and gives the caller's value back, so
// it holds under a pinned backend too.
TEST(gemm_kernels, dispatch_force_and_reset) {
  constexpr const char* variable = "DQN_KERNEL_BACKEND";
  const backend before = nn::kernels::active_backend();
  const char* caller_value = std::getenv(variable);
  const std::optional<std::string> caller =
      caller_value != nullptr ? std::optional<std::string>{caller_value}
                              : std::nullopt;
  nn::kernels::force_backend(backend::naive);
  EXPECT_EQ(nn::kernels::active_backend(), backend::naive);
  nn::kernels::force_backend(backend::blocked);
  EXPECT_EQ(nn::kernels::active_backend(), backend::blocked);
  // Unset, reset lands on the strongest supported backend; naive is never
  // auto-selected.
  ::unsetenv(variable);
  nn::kernels::reset_backend();
  EXPECT_EQ(nn::kernels::active_backend(),
            nn::kernels::best_supported_backend());
  EXPECT_NE(nn::kernels::active_backend(), backend::naive);
  ::setenv(variable, "blocked", 1);
  nn::kernels::reset_backend();
  EXPECT_EQ(nn::kernels::active_backend(), backend::blocked);
  // An unknown name falls back to auto-selection.
  ::setenv(variable, "no-such-backend", 1);
  nn::kernels::reset_backend();
  EXPECT_EQ(nn::kernels::active_backend(),
            nn::kernels::best_supported_backend());
  if (caller)
    ::setenv(variable, caller->c_str(), 1);
  else
    ::unsetenv(variable);
  nn::kernels::reset_backend();
  nn::kernels::force_backend(before);
}

TEST(gemm_kernels, force_unsupported_backend_throws) {
  EXPECT_THROW(nn::kernels::force_backend(static_cast<backend>(250)),
               std::invalid_argument);
}

TEST(gemm_kernels, report_dispatch_records_gauge_and_event) {
  obs::sink sink;
  nn::kernels::report_dispatch(sink);
  EXPECT_EQ(sink.metrics().gauge("nn.kernel_backend"),
            static_cast<double>(nn::kernels::active_backend()));
}

TEST(gemm_kernels, transpose_blocked_matches_scalar) {
  util::rng rng{11};
  for (const auto& s : kShapes) {
    nn::matrix m{s.m, s.n};
    for (auto& x : m.data()) x = rng.uniform(-3.0, 3.0);
    const nn::matrix t = nn::transpose(m);
    ASSERT_EQ(t.rows(), s.n);
    ASSERT_EQ(t.cols(), s.m);
    for (std::size_t r = 0; r < s.m; ++r)
      for (std::size_t c = 0; c < s.n; ++c)
        ASSERT_EQ(m(r, c), t(c, r)) << s.m << "x" << s.n;
  }
}

// ---------------------------------------------------------------------------
// Fused epilogues: bit-identical to the unfused bias + activation sequence.

TEST(epilogue, bias_act_matches_unfused_for_all_activations) {
  util::rng rng{5};
  const std::size_t rows = 7, cols = 13;
  for (const auto act :
       {nn::activation::identity, nn::activation::relu, nn::activation::tanh,
        nn::activation::sigmoid}) {
    nn::matrix y{rows, cols};
    for (auto& v : y.data()) v = rng.uniform(-2.0, 2.0);
    nn::aligned_vector bias(cols);
    for (auto& v : bias) v = rng.uniform(-1.0, 1.0);

    nn::matrix ref = y;
    nn::add_row_vector(ref, bias);
    for (auto& v : ref.data()) v = nn::apply_activation(act, v);

    nn::kernels::bias_act(y.data().data(), bias.data(), rows, cols,
                          static_cast<nn::kernels::unary>(act));
    for (std::size_t i = 0; i < y.size(); ++i)
      ASSERT_EQ(ref.data()[i], y.data()[i]) << "act " << static_cast<int>(act);
  }
}

TEST(epilogue, lstm_gates_and_state_match_scalar_formulas) {
  util::rng rng{6};
  const std::size_t batch = 5, hidden = 9;
  nn::matrix z{batch, 4 * hidden};
  for (auto& v : z.data()) v = rng.uniform(-2.0, 2.0);
  nn::aligned_vector bias(4 * hidden);
  for (auto& v : bias) v = rng.uniform(-1.0, 1.0);
  nn::matrix c{batch, hidden};
  for (auto& v : c.data()) v = rng.uniform(-1.0, 1.0);
  nn::matrix h{batch, hidden};

  // Scalar reference, the exact formulas lstm::step uses.
  const auto sigmoid = [](double x) { return 1.0 / (1.0 + std::exp(-x)); };
  nn::matrix c_ref{batch, hidden}, h_ref{batch, hidden};
  nn::matrix gates_ref{batch, 4 * hidden};
  for (std::size_t bi = 0; bi < batch; ++bi)
    for (std::size_t j = 0; j < hidden; ++j) {
      const double gi = sigmoid(z(bi, j) + bias[j]);
      const double gf = sigmoid(z(bi, hidden + j) + bias[hidden + j]);
      const double gg = std::tanh(z(bi, 2 * hidden + j) + bias[2 * hidden + j]);
      const double go = sigmoid(z(bi, 3 * hidden + j) + bias[3 * hidden + j]);
      gates_ref(bi, j) = gi;
      gates_ref(bi, hidden + j) = gf;
      gates_ref(bi, 2 * hidden + j) = gg;
      gates_ref(bi, 3 * hidden + j) = go;
      const double cn = gf * c(bi, j) + gi * gg;
      c_ref(bi, j) = cn;
      h_ref(bi, j) = go * std::tanh(cn);
    }

  nn::kernels::lstm_gates(z.data().data(), bias.data(), batch, hidden);
  for (std::size_t i = 0; i < z.size(); ++i)
    ASSERT_EQ(gates_ref.data()[i], z.data()[i]);
  nn::kernels::lstm_state(z.data().data(), c.data().data(), h.data().data(),
                          batch, hidden);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_EQ(c_ref.data()[i], c.data()[i]);
    ASSERT_EQ(h_ref.data()[i], h.data()[i]);
  }
}

// ---------------------------------------------------------------------------
// tanh: every backend's row kernel equals the scalar kernels::tanh bit for
// bit, and kernels::tanh stays within 2 ulp of std::tanh.

std::vector<backend> tanh_backends() {
  std::vector<backend> out = compiled_backends();
  out.insert(out.begin(), backend::naive);
  return out;
}

// Distance between two finite doubles in units in the last place: the gap
// between their positions on the integer line that orders all doubles.
std::uint64_t ulp_distance(double a, double b) {
  const auto ordered = [](double x) {
    const auto i = std::bit_cast<std::int64_t>(x);
    return static_cast<std::uint64_t>(
        i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i);
  };
  const std::uint64_t ia = ordered(a), ib = ordered(b);
  const auto gap = ia - ib;  // modular: the true gap in either direction
  return std::min(gap, ib - ia);
}

std::vector<double> tanh_sweep(double lo, double hi, double step) {
  std::vector<double> out;
  const auto n = static_cast<std::size_t>(std::llround((hi - lo) / step));
  out.reserve(n + 1);
  for (std::size_t i = 0; i <= n; ++i)
    out.push_back(lo + static_cast<double>(i) * step);
  return out;
}

// Runs `be`'s row kernel over `in` cut into consecutive rows of length 1,
// 2, ..., 37, 1, 2, ..., so every vector tail is hit, and compares each
// result with kernels::tanh under memcmp.
void expect_rows_match_scalar(backend be, const std::vector<double>& in) {
  std::vector<double> got = in;
  std::size_t len = 1;
  for (std::size_t start = 0; start < got.size();
       start += len, len = len % 37 + 1)
    nn::kernels::tanh_row(be, got.data() + start,
                          std::min(len, got.size() - start));
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double want = nn::kernels::tanh(in[i]);
    ASSERT_EQ(std::memcmp(&want, &got[i], sizeof want), 0)
        << nn::kernels::to_string(be) << " x=" << in[i] << " want " << want
        << " got " << got[i];
  }
}

TEST(tanh_kernels, every_backend_matches_scalar_bitwise) {
  util::rng rng{14};
  std::vector<double> random(20'000);
  for (std::size_t i = 0; i < random.size(); ++i)
    random[i] = i % 2 == 0 ? rng.uniform(-25.0, 25.0) : rng.normal(0.0, 1.5);
  // Special values land in every lane position of the vector bodies and
  // tails.
  const double specials[] = {0.0, -0.0, std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::denorm_min(), -1e-310,
                             0.625, -0.625, 22.0, -1e300};
  for (std::size_t i = 0; i < random.size(); i += 13)
    random[i] = specials[(i / 13) % std::size(specials)];
  const std::vector<double> swept = tanh_sweep(-25.0, 25.0, 1e-3);
  for (const backend be : tanh_backends()) {
    expect_rows_match_scalar(be, random);
    expect_rows_match_scalar(be, swept);
  }
  // The dispatched entry point routes through the active backend.
  std::vector<double> dispatched = random;
  nn::kernels::tanh_row(dispatched.data(), dispatched.size());
  std::vector<double> explicit_be = random;
  nn::kernels::tanh_row(nn::kernels::active_backend(), explicit_be.data(),
                        explicit_be.size());
  EXPECT_TRUE(same_bits(dispatched, explicit_be));
}

TEST(tanh_kernels, within_2_ulp_of_std_tanh) {
  std::vector<double> inputs = tanh_sweep(-25.0, 25.0, 1e-4);
  util::rng rng{2022};
  for (int i = 0; i < 1'000'000; ++i) inputs.push_back(rng.normal(0.0, 1.5));
  std::uint64_t worst = 0;
  double worst_x = 0;
  for (const double x : inputs) {
    const std::uint64_t d = ulp_distance(nn::kernels::tanh(x), std::tanh(x));
    if (d > worst) {
      worst = d;
      worst_x = x;
    }
  }
  EXPECT_LE(worst, 2u) << "at x=" << worst_x;
}

TEST(tanh_kernels, special_values_on_every_backend) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  constexpr double tiny = std::numeric_limits<double>::denorm_min();
  const double largest_subnormal =
      std::nextafter(std::numeric_limits<double>::min(), 0.0);
  struct special {
    double x, want;
  };
  const special cases[] = {
      {0.0, 0.0},
      {-0.0, -0.0},
      {inf, 1.0},
      {-inf, -1.0},
      {22.0, 1.0},
      {-22.0, -1.0},
      {22.5, 1.0},
      {1e300, 1.0},
      {-std::numeric_limits<double>::max(), -1.0},
      {tiny, tiny},
      {-tiny, -tiny},
      {largest_subnormal, largest_subnormal},
      {-1e-310, -1e-310},
  };
  std::vector<double> row;
  for (const auto& c : cases) row.push_back(c.x);
  row.push_back(std::numeric_limits<double>::quiet_NaN());
  row.push_back(-std::numeric_limits<double>::quiet_NaN());
  for (const auto& c : cases) {
    const double got = nn::kernels::tanh(c.x);
    EXPECT_EQ(got, c.want) << "x=" << c.x;
    EXPECT_EQ(std::signbit(got), std::signbit(c.want)) << "x=" << c.x;
  }
  EXPECT_TRUE(
      std::isnan(nn::kernels::tanh(std::numeric_limits<double>::quiet_NaN())));
  for (const backend be : tanh_backends()) {
    std::vector<double> got = row;
    nn::kernels::tanh_row(be, got.data(), got.size());
    for (std::size_t i = 0; i < std::size(cases); ++i) {
      EXPECT_EQ(got[i], cases[i].want)
          << nn::kernels::to_string(be) << " x=" << cases[i].x;
      EXPECT_EQ(std::signbit(got[i]), std::signbit(cases[i].want))
          << nn::kernels::to_string(be) << " x=" << cases[i].x;
    }
    EXPECT_TRUE(std::isnan(got[std::size(cases)]))
        << nn::kernels::to_string(be);
    EXPECT_TRUE(std::isnan(got[std::size(cases) + 1]))
        << nn::kernels::to_string(be);
  }
}

TEST(tanh_kernels, odd_symmetry_is_bitwise) {
  std::vector<double> inputs = tanh_sweep(0.0, 25.0, 1e-4);
  util::rng rng{7};
  for (int i = 0; i < 100'000; ++i) inputs.push_back(rng.normal(0.0, 1.5));
  for (const double x : inputs) {
    const double pos = nn::kernels::tanh(x);
    const double neg = nn::kernels::tanh(-x);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(neg),
              std::bit_cast<std::uint64_t>(-pos))
        << "x=" << x;
  }
}

// ---------------------------------------------------------------------------
// Workspace arena semantics.

TEST(workspace, reset_reuses_slots_without_growing) {
  nn::workspace ws;
  nn::matrix& a = ws.take(8, 16);
  nn::seq_batch& s = ws.take_seq(4, 7, 3);
  const std::span<std::size_t> idx = ws.take_indices(40);
  const std::size_t grown = ws.grow_count();
  EXPECT_GT(grown, 0u);
  EXPECT_GE(ws.bytes(), 40 * sizeof(std::size_t));
  EXPECT_EQ(ws.slots_in_use(), 3u);
  double* const a_ptr = a.data().data();
  double* const s_ptr = s.data().data();
  for (int pass = 0; pass < 5; ++pass) {
    ws.reset();
    nn::matrix& a2 = ws.take(8, 16);
    nn::seq_batch& s2 = ws.take_seq(4, 7, 3);
    const std::span<std::size_t> idx2 = ws.take_indices(40);
    EXPECT_EQ(a2.data().data(), a_ptr);
    EXPECT_EQ(s2.data().data(), s_ptr);
    EXPECT_EQ(idx2.data(), idx.data());
    EXPECT_EQ(idx2.size(), 40u);
  }
  EXPECT_EQ(ws.grow_count(), grown);
}

TEST(workspace, shrinking_shapes_do_not_grow) {
  nn::workspace ws;
  (void)ws.take(32, 32);
  const std::size_t grown = ws.grow_count();
  ws.reset();
  nn::matrix& small = ws.take(4, 4);
  EXPECT_EQ(small.rows(), 4u);
  EXPECT_EQ(small.cols(), 4u);
  EXPECT_EQ(ws.grow_count(), grown);  // capacity retained, no new allocation
}

TEST(workspace, slot_references_stay_stable_as_arena_grows) {
  nn::workspace ws;
  nn::matrix& first = ws.take(3, 3);
  first.fill(42.0);
  for (int i = 0; i < 100; ++i) (void)ws.take(5, 5);
  EXPECT_EQ(first(0, 0), 42.0);  // deque-backed: no reallocation moved it
  EXPECT_EQ(ws.slots_in_use(), 101u);
}

TEST(workspace, take_zeroed_clears_previous_contents) {
  nn::workspace ws;
  ws.take(4, 4).fill(9.0);
  ws.reset();
  nn::matrix& z = ws.take_zeroed(4, 4);
  for (double v : z.data()) EXPECT_EQ(v, 0.0);
}

// ---------------------------------------------------------------------------
// Workspace forward paths agree with forward_const bit-for-bit, and the
// steady state allocates nothing.

nn::seq_batch random_batch(std::size_t batch, std::size_t time,
                           std::size_t features, util::rng& rng) {
  nn::seq_batch x{batch, time, features};
  for (auto& v : x.data()) v = rng.uniform(-1.0, 1.0);
  return x;
}

// On every backend the workspace forward equals forward_const bit for bit:
// the LSTM stack, attention and the head.
TEST(workspace_forward, seq_regressor_matches_forward_const_exactly) {
  util::rng rng{21};
  nn::seq_regressor_config cfg;
  cfg.input_dim = 6;
  cfg.lstm_hidden = {8, 4};
  cfg.heads = 2;
  cfg.key_dim = 4;
  cfg.value_dim = 4;
  cfg.attention_out = 8;
  cfg.head_hidden = 8;
  nn::seq_regressor net{cfg, rng};
  const nn::seq_batch x = random_batch(5, 9, 6, rng);
  for (const backend be : compiled_backends()) {
    nn::kernels::force_backend(be);
    const nn::matrix ref = net.forward_const(x);
    nn::workspace ws;
    const nn::matrix& got = net.forward(x, ws);
    ASSERT_EQ(got.rows(), ref.rows());
    ASSERT_EQ(got.cols(), ref.cols());
    EXPECT_TRUE(same_bits(ref.data(), got.data())) << nn::kernels::to_string(be);
  }
  nn::kernels::reset_backend();
}

// On every backend, the workspace forward (one GEMM with a fused epilogue)
// equals forward_const (GEMM, then the bias, then the activation) bit for
// bit: a tanh MLP, a sigmoid layer, and both column-elided.
TEST(workspace_forward, mlp_and_dense_match_forward_const_exactly) {
  util::rng rng{22};
  const nn::mlp net{{7, 11, 5, 1}, nn::activation::tanh, rng};
  const nn::dense layer{7, 3, nn::activation::sigmoid, rng};
  nn::matrix x{9, 7};
  for (auto& v : x.data()) v = rng.uniform(-1.0, 1.0);
  // Column-elided input: columns 1 and 4 are 0.0 in every row, so the
  // overload reads only the other five columns and their weight rows.
  nn::matrix zx = x;
  for (std::size_t r = 0; r < zx.rows(); ++r) zx(r, 1) = zx(r, 4) = 0.0;
  const std::vector<std::size_t> kept{0, 2, 3, 5, 6};
  std::vector<double> compact;
  for (std::size_t r = 0; r < zx.rows(); ++r)
    for (const std::size_t c : kept) compact.push_back(zx(r, c));
  for (const backend be : compiled_backends()) {
    nn::kernels::force_backend(be);
    const char* name = nn::kernels::to_string(be);
    nn::workspace ws;
    EXPECT_TRUE(
        same_bits(net.forward_const(x).data(), net.forward(x, ws).data()))
        << name;
    ws.reset();
    EXPECT_TRUE(
        same_bits(layer.forward_const(x).data(), layer.forward(x, ws).data()))
        << name;

    const nn::matrix zref = net.forward_const(zx);
    ws.reset();
    const nn::aligned_vector zfull = net.forward(zx, ws).data();
    const nn::matrix& zgot =
        net.forward(compact.data(), zx.rows(), kept.size(), kept, ws);
    EXPECT_TRUE(same_bits(zref.data(), zgot.data())) << name;
    EXPECT_TRUE(same_bits(zfull, zgot.data())) << name;
    ws.reset();
    const nn::matrix& zdgot =
        layer.forward(compact.data(), zx.rows(), kept.size(), kept, ws);
    EXPECT_TRUE(same_bits(layer.forward_const(zx).data(), zdgot.data()))
        << name;
  }
  nn::kernels::reset_backend();
}

// The column-elided dense forward equals the full input's forward bit for
// bit on every backend, across k_block boundaries: zero columns scattered,
// whole blocks zero (the first, a middle one), one column left, none left.
TEST(workspace_forward, column_elided_dense_matches_full_input_bitwise) {
  constexpr std::size_t kb = nn::kernels::k_block;
  const std::size_t in = 2 * kb + 88;  // three blocks, the last partial
  util::rng rng{26};
  nn::dense layer{in, 20, nn::activation::tanh, rng};  // 20: column tails
  struct zero_case {
    const char* name;
    bool (*zero)(std::size_t col);
  };
  const zero_case cases[] = {
      {"none", [](std::size_t) { return false; }},
      {"every third", [](std::size_t c) { return c % 3 == 1; }},
      {"first block", [](std::size_t c) { return c < kb; }},
      {"middle block", [](std::size_t c) { return c >= kb && c < 2 * kb; }},
      {"all but one", [](std::size_t c) { return c != kb + 7; }},
      {"all", [](std::size_t) { return true; }},
  };
  std::vector<backend> backends = compiled_backends();
  backends.insert(backends.begin(), backend::naive);
  for (const auto& zc : cases) {
    nn::matrix x{7, in};  // 7 rows: one 4-row tile and a row tail
    std::vector<std::size_t> kept;
    for (std::size_t c = 0; c < in; ++c)
      if (!zc.zero(c)) kept.push_back(c);
    for (std::size_t r = 0; r < x.rows(); ++r)
      for (std::size_t c = 0; c < in; ++c)
        x(r, c) = zc.zero(c) ? (c % 2 == 0 ? 0.0 : -0.0)
                             : rng.uniform(-1.0, 1.0);
    std::vector<double> compact;
    for (std::size_t r = 0; r < x.rows(); ++r)
      for (const std::size_t c : kept) compact.push_back(x(r, c));
    for (const backend be : backends) {
      nn::kernels::force_backend(be);
      nn::workspace ws;
      const nn::aligned_vector want = layer.forward(x, ws).data();
      ws.reset();
      const nn::matrix& got = layer.forward(compact.data(), x.rows(),
                                            kept.size(), kept, ws);
      EXPECT_TRUE(same_bits(want, got.data()))
          << zc.name << " on " << nn::kernels::to_string(be);
    }
  }
  nn::kernels::reset_backend();
}

TEST(workspace_forward, bilstm_matches_forward_const_exactly) {
  util::rng rng{23};
  nn::bilstm layer{5, 6, rng};
  const nn::seq_batch x = random_batch(4, 7, 5, rng);
  for (const backend be : compiled_backends()) {
    nn::kernels::force_backend(be);
    const nn::seq_batch ref = layer.forward_const(x);
    nn::workspace ws;
    const nn::seq_batch& got = layer.forward(x, ws);
    EXPECT_TRUE(same_bits(ref.data(), got.data())) << nn::kernels::to_string(be);
  }
  nn::kernels::reset_backend();
}

TEST(workspace_forward, steady_state_seq_regressor_is_allocation_free) {
  util::rng rng{24};
  nn::seq_regressor_config cfg;
  cfg.input_dim = 6;
  cfg.lstm_hidden = {8, 4};
  cfg.heads = 2;
  cfg.key_dim = 4;
  cfg.value_dim = 4;
  cfg.attention_out = 8;
  cfg.head_hidden = 8;
  nn::seq_regressor net{cfg, rng};
  const nn::seq_batch x = random_batch(5, 9, 6, rng);
  nn::workspace ws;
  // Warm up: the first pass grows the arena to its high-water shapes.
  for (int i = 0; i < 2; ++i) {
    ws.reset();
    (void)net.forward(x, ws);
  }
  const std::size_t grown = ws.grow_count();
  ws.reset();
  const std::size_t before = g_heap_allocs.load(std::memory_order_relaxed);
  const nn::matrix& out = net.forward(x, ws);
  const std::size_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "steady-state forward allocated";
  EXPECT_EQ(ws.grow_count(), grown);
  EXPECT_EQ(out.rows(), 5u);
}

TEST(workspace_forward, steady_state_mlp_is_allocation_free) {
  util::rng rng{25};
  nn::mlp net{{14, 16, 8, 1}, nn::activation::tanh, rng};
  nn::matrix x{21, 14};
  for (auto& v : x.data()) v = rng.uniform(-1.0, 1.0);
  nn::workspace ws;
  for (int i = 0; i < 2; ++i) {
    ws.reset();
    (void)net.forward(x, ws);
  }
  ws.reset();
  const std::size_t before = g_heap_allocs.load(std::memory_order_relaxed);
  const nn::matrix& out = net.forward(x, ws);
  const std::size_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(out.rows(), 21u);
}

// ---------------------------------------------------------------------------
// PTM integration: the workspace predict overload agrees with the legacy
// signature and exports the nn.workspace_bytes gauge.

core::ptm_dataset random_dataset(std::size_t count, std::size_t time_steps,
                                 util::rng& rng) {
  core::ptm_dataset data;
  data.time_steps = time_steps;
  data.windows.resize(count * time_steps * core::feature_count);
  for (auto& v : data.windows) v = rng.uniform(0.0, 1.0);
  data.targets.resize(count);
  for (auto& v : data.targets) v = rng.uniform(1e-6, 1e-3);
  return data;
}

// A tiny PTM (T = 4 unless given). `with_sec` also fits the SEC tables on
// held-out data, so the SEC stage really corrects predictions. The first
// training window is all zeros, so every feature's fitted minimum is 0 and a
// raw 0.0 scales to exactly 0.0, as the engine's idle one-hot bits and
// class-work features do.
core::ptm_model tiny_trained_ptm(obs::sink* sink = nullptr,
                                 core::ptm_arch arch = core::ptm_arch::mlp,
                                 bool with_sec = false,
                                 std::size_t time_steps = 4) {
  core::ptm_config cfg;
  cfg.arch = arch;
  cfg.time_steps = time_steps;
  cfg.mlp_hidden = {8};
  cfg.lstm_hidden = {4};
  cfg.heads = 1;
  cfg.key_dim = 4;
  cfg.value_dim = 4;
  cfg.attention_out = 4;
  cfg.epochs = 2;
  cfg.batch_size = 8;
  cfg.sink = sink;
  core::ptm_model model{cfg};
  util::rng rng{31};
  core::ptm_dataset data = random_dataset(32, cfg.time_steps, rng);
  std::fill_n(data.windows.begin(), cfg.time_steps * core::feature_count, 0.0);
  (void)model.train(data);
  if (with_sec)
    model.fit_sec(random_dataset(256, cfg.time_steps, rng), 0.02, 4);
  return model;
}

TEST(ptm_workspace, predict_overloads_agree_and_reuse_arena) {
  obs::sink sink;
  const core::ptm_model model = tiny_trained_ptm(&sink);
  util::rng rng{32};
  std::vector<double> windows(6 * 4 * core::feature_count);
  for (auto& v : windows) v = rng.uniform(0.0, 1.0);

  const auto legacy = model.predict(windows);
  nn::workspace ws;
  const auto with_ws = model.predict(windows, ws);
  ASSERT_EQ(legacy.size(), with_ws.size());
  for (std::size_t i = 0; i < legacy.size(); ++i)
    EXPECT_DOUBLE_EQ(legacy[i], with_ws[i]);

  // Arena stops growing after the first pass over this shape.
  const std::size_t grown = ws.grow_count();
  for (int i = 0; i < 3; ++i) (void)model.predict(windows, ws);
  EXPECT_EQ(ws.grow_count(), grown);

  // The gauge reflects the arena's footprint.
  EXPECT_EQ(sink.metrics().gauge("nn.workspace_bytes"),
            static_cast<double>(ws.bytes()));
}

// ---------------------------------------------------------------------------
// PTM row path: predict_rows(rows) is predict(make_windows(rows)) bit for bit,
// across series lengths around the window size, SEC on and off, raw_out, and
// both architectures.

std::vector<double> random_rows(std::size_t n, util::rng& rng) {
  std::vector<double> rows(n * core::feature_count);
  for (auto& v : rows) v = rng.uniform(0.0, 1.0);
  return rows;
}

// Rows whose scaled columns are exactly 0.0 where real queues have them
// (tiny_trained_ptm's scaler maps a raw 0.0 to 0.0); every other value is
// drawn from [0.01, 1), which never scales to 0.0.
enum class row_shape { fifo, sp, zero_in_some_rows, all_zero, none_zero };

const char* to_string(row_shape shape) {
  switch (shape) {
    case row_shape::fifo: return "fifo";
    case row_shape::sp: return "sp";
    case row_shape::zero_in_some_rows: return "zero_in_some_rows";
    case row_shape::all_zero: return "all_zero";
    case row_shape::none_zero: return "none_zero";
  }
  return "?";
}

std::vector<double> shaped_rows(row_shape shape, std::size_t n,
                                util::rng& rng) {
  constexpr std::size_t f = core::feature_count;
  std::vector<double> rows(n * f);
  for (auto& v : rows) v = rng.uniform(0.01, 1.0);
  const auto set_column = [&](std::size_t col, double value) {
    for (std::size_t r = 0; r < n; ++r) rows[r * f + col] = value;
  };
  switch (shape) {
    case row_shape::fifo:
    case row_shape::zero_in_some_rows:
      // A FIFO queue: the other one-hot bits, priority, weight and the
      // higher-class work are 0 on every packet.
      for (const std::size_t col :
           {core::f_sched_sp, core::f_sched_wrr, core::f_sched_drr,
            core::f_sched_wfq, core::f_priority, core::f_weight,
            core::f_higher_class_work})
        set_column(col, 0.0);
      set_column(core::f_sched_fifo, 1.0);
      if (shape == row_shape::zero_in_some_rows && n > 0) {
        // Three of those columns carry one nonzero value each: in the first
        // row (the one the padding copies), a middle row and the last row.
        // Every one of them must be kept.
        rows[core::f_priority] = 0.5;
        rows[(n / 2) * f + core::f_weight] = 0.5;
        rows[(n - 1) * f + core::f_higher_class_work] = 0.5;
      }
      break;
    case row_shape::sp:
      for (const std::size_t col :
           {core::f_sched_fifo, core::f_sched_wrr, core::f_sched_drr,
            core::f_sched_wfq, core::f_weight, core::f_gps_wait})
        set_column(col, 0.0);
      set_column(core::f_sched_sp, 1.0);
      break;
    case row_shape::all_zero: std::fill(rows.begin(), rows.end(), 0.0); break;
    case row_shape::none_zero: break;
  }
  return rows;
}

constexpr row_shape kRowShapes[] = {row_shape::fifo, row_shape::sp,
                                    row_shape::zero_in_some_rows,
                                    row_shape::all_zero, row_shape::none_zero};

// predict_rows runs the MLP over 512-row chunks: three whole chunks, then a
// 7-row chunk that is an M-tail of every backend's register tile.
constexpr std::size_t kChunkedRows = 3 * 512 + 7;

TEST(ptm_row_path, matches_window_path_bitwise) {
  for (const auto arch : {core::ptm_arch::mlp, core::ptm_arch::attention}) {
    const core::ptm_model model = tiny_trained_ptm(nullptr, arch, true);
    const std::size_t t = model.config().time_steps;
    util::rng rng{33};
    bool sec_changed_something = false;
    for (const std::size_t n :
         {std::size_t{1}, t - 1, t, t + 1, kChunkedRows, std::size_t{2000}}) {
      const auto rows = random_rows(n, rng);
      const auto windows = core::make_windows(rows, t);
      for (const bool apply_sec : {true, false}) {
        std::vector<double> want_raw, got_raw;
        nn::workspace window_ws, row_ws;
        const auto want =
            model.predict(windows, window_ws, apply_sec, &want_raw);
        const auto got = model.predict_rows(rows, row_ws, apply_sec, &got_raw);
        ASSERT_EQ(got.size(), n);
        EXPECT_TRUE(same_bits(want, got))
            << core::to_string(arch) << " n=" << n << " sec=" << apply_sec;
        EXPECT_TRUE(same_bits(want_raw, got_raw))
            << core::to_string(arch) << " n=" << n << " sec=" << apply_sec;
        EXPECT_TRUE(same_bits(got, model.predict_rows(rows, apply_sec)))
            << "thread_local overload, " << core::to_string(arch) << " n=" << n;
        if (apply_sec && !same_bits(got, got_raw)) sec_changed_something = true;
      }
    }
    EXPECT_TRUE(sec_changed_something)
        << core::to_string(arch)
        << ": SEC never corrected, so SEC-on was untested";
  }

  // Exact-zero columns, which the row path drops from the MLP's first GEMM.
  // T = 21 (K = 357, the default) and T = 31 (K = 527) span two and three
  // k_blocks, so a compaction that moved a kept column into another block
  // would change bits on the SIMD backends; T = 4 fits in one block. The
  // chunked lengths hit every chunk edge on every backend.
  std::vector<backend> backends = compiled_backends();
  backends.insert(backends.begin(), backend::naive);
  for (const std::size_t t :
       {std::size_t{4}, std::size_t{21}, std::size_t{31}}) {
    const core::ptm_model model =
        tiny_trained_ptm(nullptr, core::ptm_arch::mlp, true, t);
    util::rng rng{35 + t};
    for (const row_shape shape : kRowShapes)
      for (const std::size_t n :
           {std::size_t{1}, t, kChunkedRows, std::size_t{2000}}) {
        const auto rows = shaped_rows(shape, n, rng);
        const auto windows = core::make_windows(rows, t);
        for (const backend be : backends) {
          nn::kernels::force_backend(be);
          for (const bool apply_sec : {true, false}) {
            std::vector<double> want_raw, got_raw;
            nn::workspace window_ws, row_ws;
            const auto want =
                model.predict(windows, window_ws, apply_sec, &want_raw);
            const auto got =
                model.predict_rows(rows, row_ws, apply_sec, &got_raw);
            EXPECT_TRUE(same_bits(want, got))
                << to_string(shape) << " T=" << t << " n=" << n << " on "
                << nn::kernels::to_string(be) << " sec=" << apply_sec;
            EXPECT_TRUE(same_bits(want_raw, got_raw))
                << to_string(shape) << " T=" << t << " n=" << n << " on "
                << nn::kernels::to_string(be) << " sec=" << apply_sec;
          }
        }
      }
  }
  nn::kernels::reset_backend();
}

// One ptm.kept_input_columns observation per non-empty predict_rows call:
// the columns left after the zero-column elision.
TEST(ptm_row_path, records_kept_input_columns) {
  obs::sink sink;
  const core::ptm_model model = tiny_trained_ptm(&sink);
  util::rng rng{36};
  nn::workspace ws;
  (void)model.predict_rows(shaped_rows(row_shape::fifo, 50, rng), ws);
  auto kept = sink.metrics().histogram("ptm.kept_input_columns");
  ASSERT_EQ(kept.count, 1u);
  EXPECT_EQ(kept.max, static_cast<double>(core::feature_count - 7));
  (void)model.predict_rows(shaped_rows(row_shape::none_zero, 50, rng), ws);
  (void)model.predict_rows({}, ws);
  kept = sink.metrics().histogram("ptm.kept_input_columns");
  EXPECT_EQ(kept.count, 2u);
  EXPECT_EQ(kept.max, static_cast<double>(core::feature_count));
}

TEST(ptm_row_path, empty_series_and_ragged_rows) {
  const core::ptm_model model = tiny_trained_ptm();
  nn::workspace ws;
  std::vector<double> raw{1.0};
  EXPECT_TRUE(model.predict_rows({}, ws, true, &raw).empty());
  EXPECT_TRUE(raw.empty());
  const std::vector<double> ragged(core::feature_count + 1, 0.5);
  EXPECT_THROW((void)model.predict_rows(ragged, ws), util::contract_violation);
  EXPECT_THROW((void)core::ptm_model{}.predict_rows(ragged, ws),
               std::logic_error);
}

// Steady state, the row path allocates exactly one block: the returned
// vector. No windows, no staging copies, and on FIFO-shaped rows the column
// map and the gathered weights live in the workspace; raw_out reuses its
// capacity. Past one MLP chunk the chunks share their slots, and the MLP's
// arena is that of a single chunk.
TEST(ptm_row_path, steady_state_allocates_only_the_result) {
  for (const auto arch : {core::ptm_arch::mlp, core::ptm_arch::attention}) {
    const core::ptm_model model = tiny_trained_ptm(nullptr, arch, true);
    util::rng rng{34};
    for (const std::size_t n : {std::size_t{300}, kChunkedRows}) {
      for (const auto& rows :
           {random_rows(n, rng), shaped_rows(row_shape::fifo, n, rng)}) {
        nn::workspace ws;
        std::vector<double> raw;
        for (int i = 0; i < 2; ++i)
          (void)model.predict_rows(rows, ws, true, &raw);
        const std::size_t grown = ws.grow_count();
        const std::size_t before = g_heap_allocs.load(std::memory_order_relaxed);
        const auto out = model.predict_rows(rows, ws, true, &raw);
        const std::size_t after = g_heap_allocs.load(std::memory_order_relaxed);
        EXPECT_EQ(after - before, 1u) << core::to_string(arch) << " n=" << n;
        EXPECT_EQ(ws.grow_count(), grown);
        EXPECT_EQ(out.size(), n);
      }
    }
  }
}

// A 4-chunk call holds the activations of one chunk: its arena is the
// 512-row call's plus only what grows with the row count (the scaled rows
// and the output column), not four chunks' hidden layers.
TEST(ptm_row_path, chunked_forward_arena_holds_one_chunk) {
  const core::ptm_model model =
      tiny_trained_ptm(nullptr, core::ptm_arch::mlp, true);
  util::rng rng{37};
  nn::workspace one_chunk;
  (void)model.predict_rows(random_rows(512, rng), one_chunk);
  nn::workspace four_chunks;
  (void)model.predict_rows(random_rows(4 * 512, rng), four_chunks);
  // Per extra row: 17 scaled features and one output, in doubles.
  const std::size_t per_row = (core::feature_count + 1) * sizeof(double);
  EXPECT_LE(four_chunks.bytes(), one_chunk.bytes() + 3 * 512 * per_row);
}

}  // namespace
