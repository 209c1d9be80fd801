// Fused GEMM epilogues. These fold the bias add and pointwise nonlinearity
// into a single pass over the GEMM output, so the layers stop materializing
// (and re-reading) full intermediate matrices for "+ bias" and "activation"
// as separate steps.
//
// Numerics contract: each output element of bias_act is computed as
// f(c + bias), bias add first, with the same scalar formulas as
// nn::apply_activation: kernels::tanh (nn/kernels/tanh.hpp) and
// 1/(1+std::exp(-x)). bias_act's tanh runs the dispatched tanh_row over
// each row, which every backend computes bit-identically to kernels::tanh,
// so fused results are bit-identical to the unfused path. The LSTM
// epilogues keep std::tanh and std::exp.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dqn::nn::kernels {

// Mirrors nn::activation (dense.hpp) value-for-value so layer code can
// static_cast between them without a mapping table.
enum class unary : std::uint8_t { identity = 0, relu = 1, tanh = 2, sigmoid = 3 };

// c (rows×cols, row-major) := act(c + bias), bias broadcast per row.
void bias_act(double* c, const double* bias, std::size_t rows,
              std::size_t cols, unary act);

// LSTM gate epilogue: z (batch × 4·hidden, segment layout [i f g o]) gets the
// bias row added, then the segmented nonlinearity applied in place:
// sigmoid on i/f/o, tanh on g.
void lstm_gates(double* z, const double* bias, std::size_t batch,
                std::size_t hidden);

// LSTM state update from activated gates: for each (bi, j),
//   c := f·c + i·g ;  h := o·tanh(c)
// with gates laid out as in lstm_gates. c and h are batch×hidden, updated
// in place.
void lstm_state(const double* gates, double* c, double* h, std::size_t batch,
                std::size_t hidden);

}  // namespace dqn::nn::kernels
