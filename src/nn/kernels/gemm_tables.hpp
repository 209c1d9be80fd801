// Internal backend tables for the GEMM dispatch (nn/kernels/gemm.hpp). Each
// ISA translation unit (gemm.cpp, gemm_avx2.cpp, gemm_avx512.cpp) fills one
// table; a table whose pointers are null was not compiled in (non-x86 build
// or compiler without the ISA flags). Exposed as a header so the parity
// tests can drive every compiled backend directly.
#pragma once

#include <cstddef>

namespace dqn::nn::kernels::detail {

using gemm_fn = void (*)(const double* a, const double* b, double* c,
                         std::size_t m, std::size_t n, std::size_t k,
                         bool accumulate);
// NN carries A's row stride `lda` (see gemm.hpp for the contract).
using gemm_nn_fn = void (*)(const double* a, std::size_t lda, const double* b,
                            double* c, std::size_t m, std::size_t n,
                            std::size_t k, bool accumulate);

struct gemm_table {
  gemm_nn_fn nn = nullptr;
  gemm_fn tn = nullptr;
  gemm_fn nt = nullptr;

  [[nodiscard]] bool complete() const noexcept {
    return nn != nullptr && tn != nullptr && nt != nullptr;
  }
};

[[nodiscard]] const gemm_table& naive_table() noexcept;
[[nodiscard]] const gemm_table& blocked_table() noexcept;
[[nodiscard]] const gemm_table& avx2_table() noexcept;    // null fns if absent
[[nodiscard]] const gemm_table& avx512_table() noexcept;  // null fns if absent

}  // namespace dqn::nn::kernels::detail
