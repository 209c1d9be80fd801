// Internal backend tables for the kernel dispatch (nn/kernels/gemm.hpp).
// Each backend fills one table with its three GEMM operand orders and its
// tanh row kernel (nn/kernels/tanh.hpp): gemm.cpp holds the naive and
// blocked tables, which share the scalar tanh loop (tanh.cpp), and
// gemm_avx2.cpp / gemm_avx512.cpp each hold a SIMD table with its GEMMs and
// tanh kernel in one translation unit. A table whose pointers are null was
// not compiled in (non-x86 build or compiler without the ISA flags).
// Exposed as a header so the parity tests can drive every compiled backend
// directly.
#pragma once

#include <cstddef>

#include "nn/kernels/epilogue.hpp"

namespace dqn::nn::kernels::detail {

using gemm_fn = void (*)(const double* a, const double* b, double* c,
                         std::size_t m, std::size_t n, std::size_t k,
                         bool accumulate);
// NN carries A's row stride `lda` and the epilogue (see gemm.hpp for the
// contract).
using gemm_nn_fn = void (*)(const double* a, std::size_t lda, const double* b,
                            double* c, std::size_t m, std::size_t n,
                            std::size_t k, bool accumulate, epilogue ep);
// x[0, n) := tanh(x[0, n)), bit-identical to kernels::tanh per element.
using tanh_row_fn = void (*)(double* x, std::size_t n) noexcept;

struct gemm_table {
  gemm_nn_fn nn = nullptr;
  gemm_fn tn = nullptr;
  gemm_fn nt = nullptr;
  tanh_row_fn tanh_row = nullptr;

  [[nodiscard]] bool complete() const noexcept {
    return nn != nullptr && tn != nullptr && nt != nullptr &&
           tanh_row != nullptr;
  }
};

[[nodiscard]] const gemm_table& naive_table() noexcept;
[[nodiscard]] const gemm_table& blocked_table() noexcept;
[[nodiscard]] const gemm_table& avx2_table() noexcept;    // null fns if absent
[[nodiscard]] const gemm_table& avx512_table() noexcept;  // null fns if absent

// tanh row kernels. The SIMD ones are defined only when their translation
// unit is compiled with the ISA flags, under the same guard as the table
// that points to them.
void scalar_tanh_row(double* x, std::size_t n) noexcept;
void avx2_tanh_row(double* x, std::size_t n) noexcept;
void avx512_tanh_row(double* x, std::size_t n) noexcept;

}  // namespace dqn::nn::kernels::detail
