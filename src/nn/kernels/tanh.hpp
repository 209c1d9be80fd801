// The dense layers' tanh: a scalar reference plus AVX2 and AVX-512 row
// kernels that return the same bits on every backend.
//
// Algorithm (on a = |x|; the sign is restored with copysign at the end):
//   a < 0.625 : a + a·s·P(s)/Q(s), s = a², Cephes tanh coefficients
//               (P of degree 2, Q of degree 3);
//   otherwise : 1 − 2/(e^{2a} + 1), with a clamped at 22 first (tanh rounds
//               to 1.0 beyond about 19.1). e^y = 2^n·e^r with
//               n = round(y·log2 e) by the 0x1.8p52 magic-number add and
//               r = y − n·C1 − n·C2 (Cody–Waite), e^r = (q + p)/(q − p) in
//               Cephes exp's Padé form, and 2^n built in the exponent bits.
// Both branches end in one division: the row kernels blend numerator,
// denominator and base per lane, then compute base + num/den.
//
// Bit identity: every version runs the same IEEE operations in the same
// order — add, sub, mul, div, min, compare/select and integer bit
// operations, all correctly rounded — and each translation unit holding a
// version is built with -ffp-contract=off, so no compiler fuses a
// multiply-add in one and not another (src/nn/CMakeLists.txt).
// tests/test_kernels.cpp holds every compiled backend to memcmp equality
// with kernels::tanh and kernels::tanh to within 2 ulp of std::tanh.
//
// Special values: ±0 → ±0, ±inf → ±1, NaN → NaN, |x| ≥ 22 → exactly ±1,
// subnormal x → x.
#pragma once

#include <cstddef>

#include "nn/kernels/gemm.hpp"

namespace dqn::nn::kernels {

// Scalar reference; nn::apply_activation's tanh.
[[nodiscard]] double tanh(double x) noexcept;

// x[0, n) := tanh(x[0, n)) in place. The dispatched form routes through the
// active GEMM backend (gemm.hpp: DQN_KERNEL_BACKEND, force_backend); naive
// and blocked run the scalar loop. The explicit-backend form throws
// std::invalid_argument for an unsupported backend.
void tanh_row(double* x, std::size_t n);
void tanh_row(backend be, double* x, std::size_t n);

}  // namespace dqn::nn::kernels

namespace dqn::nn::kernels::detail::tanh_consts {

inline constexpr double small = 0.625;  // polynomial branch below this |x|
inline constexpr double clamp = 22.0;   // tanh(|x| ≥ 22) rounds to 1.0

// Cephes tanh: P(s) = (p0·s + p1)·s + p2, Q(s) = ((s + q0)·s + q1)·s + q2.
inline constexpr double p0 = -9.64399179425052238628e-1;
inline constexpr double p1 = -9.92877231001918586564e1;
inline constexpr double p2 = -1.61468768441708447952e3;
inline constexpr double q0 = 1.12811678491632931402e2;
inline constexpr double q1 = 2.23548839060100448583e3;
inline constexpr double q2 = 4.84406305325125486048e3;

// Cephes exp: p = r·((ep0·r² + ep1)·r² + ep2),
// q = ((eq0·r² + eq1)·r² + eq2)·r² + eq3, e^r = (q + p)/(q − p).
inline constexpr double ep0 = 1.26177193074810590878e-4;
inline constexpr double ep1 = 3.02994407707441961300e-2;
inline constexpr double ep2 = 9.99999999999999999910e-1;
inline constexpr double eq0 = 3.00198505138664455042e-6;
inline constexpr double eq1 = 2.52448340349684104192e-3;
inline constexpr double eq2 = 2.27265548208155028766e-1;
inline constexpr double eq3 = 2.00000000000000000009e0;

// Cody–Waite split of ln 2 (c1 has few mantissa bits, so n·c1 is exact).
inline constexpr double c1 = 6.93145751953125e-1;
inline constexpr double c2 = 1.42860682030941723212e-6;
inline constexpr double log2e = 1.4426950408889634073599;
// t = y·log2e + magic rounds y·log2e to an integer n held in t's low
// mantissa bits; (bits(t) + 1023) << 52 is then the bit pattern of 2^n.
inline constexpr double magic = 0x1.8p52;
inline constexpr unsigned long long exponent_bias = 1023;
inline constexpr unsigned long long sign_mask = 0x8000000000000000ULL;

}  // namespace dqn::nn::kernels::detail::tanh_consts
