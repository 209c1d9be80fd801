// Scalar tanh reference (see tanh.hpp). Built with -ffp-contract=off; the
// AVX2 and AVX-512 row kernels run exactly these operations lane by lane.
#include "nn/kernels/tanh.hpp"

#include <bit>
#include <cstdint>

#include "nn/kernels/gemm_tables.hpp"

namespace dqn::nn::kernels {

namespace {

std::uint64_t bits(double x) noexcept {
  return std::bit_cast<std::uint64_t>(x);
}
double from_bits(std::uint64_t b) noexcept { return std::bit_cast<double>(b); }

}  // namespace

double tanh(double x) noexcept {
  namespace k = detail::tanh_consts;
  const std::uint64_t sign = bits(x) & k::sign_mask;
  const double a = from_bits(bits(x) & ~k::sign_mask);
  double base = 0;
  double num = 0;
  double den = 0;
  if (a < k::small) {
    const double s = a * a;
    num = a * s * ((k::p0 * s + k::p1) * s + k::p2);
    den = ((s + k::q0) * s + k::q1) * s + k::q2;
    base = a;
  } else {
    // min(clamp, a) with the SIMD operand order: NaN a passes through.
    const double y2 = k::clamp < a ? k::clamp : a;
    const double y = y2 + y2;
    const double t = y * k::log2e + k::magic;
    const double n = t - k::magic;
    const double r = y - n * k::c1 - n * k::c2;
    const double rr = r * r;
    const double p = r * ((k::ep0 * rr + k::ep1) * rr + k::ep2);
    const double q = ((k::eq0 * rr + k::eq1) * rr + k::eq2) * rr + k::eq3;
    const double scale = from_bits((bits(t) + k::exponent_bias) << 52);
    // 1 − 2/(2^n·(q + p)/(q − p) + 1) = 1 − 2(q − p)/(2^n·(q + p) + (q − p)).
    const double d = q - p;
    num = -(d + d);
    den = (q + p) * scale + d;
    base = 1.0;
  }
  const double mag = base + num / den;
  return from_bits((bits(mag) & ~k::sign_mask) | sign);
}

namespace detail {

void scalar_tanh_row(double* x, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) x[i] = kernels::tanh(x[i]);
}

}  // namespace detail

}  // namespace dqn::nn::kernels
