#include "nn/qlinear.hpp"

#include <algorithm>
#include <stdexcept>

#include "tensor/matmul.hpp"

namespace latte {

QuantizedLinear QuantizedLinear::FromFloat(const Linear& l) {
  QuantizedLinear q;
  q.weight = Quantize(l.weight, 8);
  q.bias = l.bias;
  return q;
}

void QuantizedLinear::ForwardInto(const MatrixF& x, GemmScratch& scratch,
                                  MatrixF& out) const {
  if (x.cols() != in_features()) {
    throw std::invalid_argument("QuantizedLinear: input width mismatch");
  }
  const float m = ScalingFactor(x);
  const float out_scale = QuantizationStep(8, m) * weight.scale;
  out.Resize(x.rows(), out_features());
  for (std::size_t r0 = 0; r0 < x.rows(); r0 += kRowChunk) {
    const std::size_t r1 = std::min(x.rows(), r0 + kRowChunk);
    QuantizeRowsInto(x, r0, r1, 8, m, scratch.a8);
    // Exact int32 accumulation -- the arithmetic one DSP slice performs
    // per MAC.
    Int8GemmInto(scratch.a8, weight.codes, scratch.acc);
    for (std::size_t i = r0; i < r1; ++i) {
      const auto ai = scratch.acc.row(i - r0);
      auto yi = out.row(i);
      for (std::size_t j = 0; j < yi.size(); ++j) {
        yi[j] = static_cast<float>(ai[j]) * out_scale;
      }
    }
  }
  if (!bias.empty()) AddBiasInPlace(out, bias);
}

}  // namespace latte
