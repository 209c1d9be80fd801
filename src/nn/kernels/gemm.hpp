// GEMM kernel layer: cache-blocked, SIMD-vectorized matrix multiply over
// row-major double panels, with runtime backend dispatch.
//
// Three operand orders cover everything the layers need (nn/matrix.hpp keeps
// the matrix-typed wrappers on top of these):
//   gemm_nn : C (m×n) ?= A (m×k)  · B (k×n)
//   gemm_tn : C (m×n) ?= Aᵀ(k×m)ᵀ · B (k×n)   (A stored k×m)
//   gemm_nt : C (m×n) ?= A (m×k)  · Bᵀ(n×k)ᵀ  (B stored n×k)
// `accumulate` selects += (true) vs = (false). B and C are contiguous
// row-major; no operand may alias C. A is contiguous for TN and NT. For NN,
// A may carry a row stride `lda`: row i of A is a[i*lda, i*lda + k). The
// contiguous overloads use lda = k; lda > k reads a column window of a wider
// matrix, and lda < k lets consecutive rows overlap — the PTM's first dense
// layer reads its sliding windows in place from the scaled feature rows,
// with lda = the feature columns it keeps (one call per k_block, each
// starting at its block's first kept column). Each output element reads
// exactly the A values a contiguous copy would hold, in the same order, so
// a strided call is bit-identical to the contiguous call on a materialized
// copy.
//
// Backends, weakest to strongest:
//   naive   — the original triple loop, retained as the parity/bench
//             reference (never auto-selected);
//   blocked — portable cache-blocked scalar kernel, the fallback floor;
//   avx2    — 4×8 register-tiled FMA micro-kernel (x86-64, AVX2+FMA);
//   avx512  — 4×16 register-tiled micro-kernel (x86-64, AVX-512F).
// The active backend is selected once, at first use: the strongest backend
// both compiled in and supported by the running CPU, overridable with the
// DQN_KERNEL_BACKEND environment variable (naive|blocked|avx2|avx512;
// silently ignored when unsupported — startup cannot throw). Tests and
// benches can pin a backend with force_backend(). The same selection routes
// the dense layers' tanh (tanh_row, nn/kernels/tanh.hpp).
//
// Numerics: all backends accumulate over k in ascending order per output
// element, so they agree with the naive reference to FMA-rounding and
// panel-partial-sum association — within 1e-10 relative of the reference
// (tests/test_kernels.cpp holds every backend to that bound). The
// association differs by backend family. The SIMD backends (avx2, avx512)
// sum each k_block-deep block of k from zero and add that partial sum to C
// as a unit, so a call's bits depend on where k_block splits k. The scalar
// backends (naive, blocked) accumulate into C directly, one term at a time.
// A caller that drops terms whose A value is ±0.0 keeps every bit as long
// as it issues one call per original k_block (accumulate = false on the
// first): nn::dense's column-elided forward relies on this.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dqn::obs {
class sink;
}  // namespace dqn::obs

namespace dqn::nn::kernels {

// Depth of one k panel in the blocked and SIMD NN/TN kernels: rows of B a
// panel streams, and in the SIMD kernels the span of one partial sum.
inline constexpr std::size_t k_block = 256;

enum class backend : std::uint8_t { naive = 0, blocked = 1, avx2 = 2, avx512 = 3 };

[[nodiscard]] const char* to_string(backend be) noexcept;

// Compiled in AND usable on the running CPU.
[[nodiscard]] bool backend_supported(backend be) noexcept;
// Strongest supported backend (never naive; blocked is the floor).
[[nodiscard]] backend best_supported_backend() noexcept;
// The backend dispatch currently routes through.
[[nodiscard]] backend active_backend() noexcept;
// Pin the dispatch (tests/benches). Throws std::invalid_argument when `be`
// is not supported on this build/CPU.
void force_backend(backend be);
// Re-run startup selection (best supported + DQN_KERNEL_BACKEND override).
void reset_backend() noexcept;

// Record the dispatch decision on an obs sink: gauge "nn.kernel_backend"
// (numeric enum value) plus one "nn"/"kernel_dispatch" trace event whose
// value is the same id. Call once per sink; cheap either way.
void report_dispatch(obs::sink& sink);

// Dispatched entry points (the ones nn::matmul* ride on).
void gemm_nn(const double* a, const double* b, double* c, std::size_t m,
             std::size_t n, std::size_t k, bool accumulate);
void gemm_nn(const double* a, std::size_t lda, const double* b, double* c,
             std::size_t m, std::size_t n, std::size_t k, bool accumulate);
void gemm_tn(const double* a, const double* b, double* c, std::size_t m,
             std::size_t n, std::size_t k, bool accumulate);
void gemm_nt(const double* a, const double* b, double* c, std::size_t m,
             std::size_t n, std::size_t k, bool accumulate);

// Explicit-backend entry points (parity tests, naive-vs-X benches). Throws
// std::invalid_argument for an unsupported backend.
void gemm_nn(backend be, const double* a, const double* b, double* c,
             std::size_t m, std::size_t n, std::size_t k, bool accumulate);
void gemm_nn(backend be, const double* a, std::size_t lda, const double* b,
             double* c, std::size_t m, std::size_t n, std::size_t k,
             bool accumulate);
void gemm_tn(backend be, const double* a, const double* b, double* c,
             std::size_t m, std::size_t n, std::size_t k, bool accumulate);
void gemm_nt(backend be, const double* a, const double* b, double* c,
             std::size_t m, std::size_t n, std::size_t k, bool accumulate);

// Cache-blocked transpose: out (cols×rows) = inᵀ for row-major in (rows×cols).
// Blocked 32×32 so both streams stay tile-local instead of one of them
// striding a full row per element.
void transpose_blocked(const double* in, double* out, std::size_t rows,
                       std::size_t cols);

}  // namespace dqn::nn::kernels
