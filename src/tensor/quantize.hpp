#pragma once
// Symmetric quantization as used by the paper (Section 3.2).
//
// The sparse-attention pre-selection quantizes full-precision Q and K into
// 1-bit (sign) or 4-bit integers:  x' = round((2^(b-1) - 1) / |M| * x)  where
// M is the scaling factor of the tensor (its maximum absolute value).  Both
// quantization and exp() are monotone, so quantized scores preserve the rank
// order of attention scores -- the property candidate selection relies on.

#include <cstdint>
#include <span>

#include "tensor/matrix.hpp"

namespace latte {

/// A quantized tensor: integer codes plus the scale that maps codes back to
/// (approximately) the original values: value ~= code * scale.
struct QuantizedMatrix {
  MatrixI8 codes;    ///< integer codes, each in [-(2^(b-1)-1), 2^(b-1)-1]
  float scale = 1.f; ///< dequantization step:  value ~= code * scale
  int bits = 8;      ///< bit width b (1, 4 or 8)
};

/// Returns the paper's scaling factor M for a tensor: max |x| over all
/// elements (0 for an empty/all-zero tensor).
float ScalingFactor(const MatrixF& m);

/// Symmetric b-bit quantization per Section 3.2:
///   codes = round((2^(b-1)-1) / M * x), clamped to the representable range.
/// For bits == 1 this degenerates to the sign function with codes in {-1,+1}
/// (zero maps to +1, matching sign-bit hardware).
/// Requires bits in {1, 4, 8}.
QuantizedMatrix Quantize(const MatrixF& m, int bits);

/// Quantizes with an externally supplied scaling factor M (used when Q and K
/// rows stream through hardware and M was computed over a larger tensor).
QuantizedMatrix QuantizeWithScale(const MatrixF& m, int bits, float M);

/// The dequantization step QuantizeWithScale reports for factor M:
/// M / MaxCode(bits), or 1 when M is 0.
float QuantizationStep(int bits, float M);

/// Rows [row0, row1) of QuantizeWithScale(m, bits, M).codes, written into
/// `codes` (resized to (row1-row0) x m.cols(), fully overwritten) so a
/// caller can stream a large tensor through a small reused buffer.
void QuantizeRowsInto(const MatrixF& m, std::size_t row0, std::size_t row1,
                      int bits, float M, MatrixI8& codes);

/// QuantizeValue(src[i], bits, M) for every element, bit for bit, written
/// as int16 into dst (same length; throws otherwise) in one vectorizable
/// pass -- the rounding of QuantizeRowsInto, into the widened activation
/// rows of the int8 GEMM.
void QuantizeSpanInto(std::span<const float> src, int bits, float M,
                      std::span<std::int16_t> dst);

/// Reconstructs the float approximation codes * scale.
MatrixF Dequantize(const QuantizedMatrix& q);

/// Maximum representable code magnitude for a bit width: 2^(b-1)-1 (1 for b=1).
int MaxCode(int bits);

/// Quantizes a single value given scale factor M and bit width:
/// round((2^(b-1)-1) / M * x) with halves rounded away from zero, saturated
/// to +-(2^(b-1)-1).  A NaN product, or M <= 0 (or NaN), gives 0.
std::int8_t QuantizeValue(float x, int bits, float M);

}  // namespace latte
