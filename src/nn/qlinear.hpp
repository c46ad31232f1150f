#pragma once
// 8-bit fixed-point linear layer.
//
// The paper's models are "quantized into 8 bits fixed-point representation
// without accuracy drop" (Section 5.1, ref [36]), and the FPGA datapath
// charges one DSP per 8-bit MAC.  This module provides the int8 linear
// layer (per-tensor symmetric scales, int32 accumulation) that the encoder
// layer (nn/encoder.hpp) runs every projection/FFN matmul through, matching
// what the hardware executes.  LayerNorm/softmax/GELU stay in float, as
// they do on the FPGA's dedicated units.

#include "nn/linear.hpp"
#include "tensor/quantize.hpp"

namespace latte {

/// Linear layer with int8 weights and per-tensor activation quantization.
struct QuantizedLinear {
  /// Rows per int8 GEMM chunk in ForwardInto.
  static constexpr std::size_t kRowChunk = 64;

  QuantizedMatrix weight;    ///< (in x out) codes + scale
  PackedInt8Weights packed;  ///< weight.codes packed for the int8 GEMM
  std::vector<float> bias;   ///< float bias, applied after dequantization

  /// Quantizes an existing float layer (weights to 8-bit) and packs the
  /// codes once; `packed` must be rebuilt if `weight` is changed.
  static QuantizedLinear FromFloat(const Linear& l);

  /// y = dequant(quant8(x) * Wq) + bias, written into `out` (resized,
  /// fully overwritten); same signature as Linear::ForwardInto.  x is
  /// quantized with one symmetric scale over the whole matrix, kRowChunk
  /// rows at a time straight into the int16 activation rows of `scratch`,
  /// and each chunk runs through Int8GemmPackedInto on `packed`.  One
  /// epilogue pass per chunk writes float(acc) * scale into `out`, then
  /// adds the bias as a separate rounding step.  Integer accumulation is
  /// exact, so the result does not depend on the chunking.  `out` must
  /// not alias `x`.
  void ForwardInto(const MatrixF& x, GemmScratch& scratch, MatrixF& out) const;

  std::size_t in_features() const { return weight.codes.rows(); }
  std::size_t out_features() const { return weight.codes.cols(); }

  /// 8-bit MAC count of one forward pass over n rows.
  std::size_t MacCount(std::size_t n) const {
    return n * in_features() * out_features();
  }
};

}  // namespace latte
