#include "nn/qlinear.hpp"

#include <algorithm>
#include <stdexcept>

namespace latte {
namespace {

// Rows [r0, r1) of x as 8-bit codes -- the per-element rounding of
// QuantizeRowsInto -- written straight into the int16 activation rows of
// the int8 GEMM (the pad column of an odd width is zeroed).
void QuantizeRowsToInt16(const MatrixF& x, std::size_t r0, std::size_t r1,
                         float m, MatrixI16& a) {
  const std::size_t k = x.cols();
  a.Resize(r1 - r0, Int8ActivationWidth(k));
  for (std::size_t i = r0; i < r1; ++i) {
    const auto dst = a.row(i - r0);
    QuantizeSpanInto(x.row(i), 8, m, dst.first(k));
    if (dst.size() > k) dst[k] = 0;
  }
}

}  // namespace

QuantizedLinear QuantizedLinear::FromFloat(const Linear& l) {
  QuantizedLinear q;
  q.weight = Quantize(l.weight, 8);
  PackInt8WeightsInto(q.weight.codes, q.packed);
  q.bias = l.bias;
  return q;
}

void QuantizedLinear::ForwardInto(const MatrixF& x, GemmScratch& scratch,
                                  MatrixF& out) const {
  if (x.cols() != in_features()) {
    throw std::invalid_argument("QuantizedLinear: input width mismatch");
  }
  if (!bias.empty() && bias.size() != out_features()) {
    throw std::invalid_argument("QuantizedLinear: bias length mismatch");
  }
  const float m = ScalingFactor(x);
  const float out_scale = QuantizationStep(8, m) * weight.scale;
  out.Resize(x.rows(), out_features());
  for (std::size_t r0 = 0; r0 < x.rows(); r0 += kRowChunk) {
    const std::size_t r1 = std::min(x.rows(), r0 + kRowChunk);
    QuantizeRowsToInt16(x, r0, r1, m, scratch.a16);
    // Exact int32 accumulation -- the arithmetic one DSP slice performs
    // per MAC.
    Int8GemmPackedInto(scratch.a16, packed, scratch.acc);
    // Dequantize and bias in one pass over the chunk, row by row.  Each
    // row's rounded products are stored before a second loop adds the
    // bias: with both in one loop, gcc contracts them into an FMA under
    // -march=native even across statements, which changes the bits.
    for (std::size_t i = r0; i < r1; ++i) {
      const auto ai = scratch.acc.row(i - r0);
      const auto yi = out.row(i);
      for (std::size_t j = 0; j < yi.size(); ++j) {
        yi[j] = static_cast<float>(ai[j]) * out_scale;
      }
      if (bias.empty()) continue;
      for (std::size_t j = 0; j < yi.size(); ++j) yi[j] += bias[j];
    }
  }
}

}  // namespace latte
