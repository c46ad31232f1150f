#include "core/fused_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/kernels.hpp"

namespace latte {
namespace {

/// Throws unless every candidate index names a row of a `rows`-row matrix.
void CheckCandidates(std::span<const std::uint32_t> cand, std::size_t rows,
                     const char* what) {
  for (const std::uint32_t j : cand) {
    if (j >= rows) throw std::invalid_argument(what);
  }
}

}  // namespace

void FusedScoreKernel(std::span<const float> q_row, const MatrixF& k,
                      std::span<const std::uint32_t> cand,
                      const FusedKernelConfig& cfg, FusedScoreResult& out) {
  if (!cand.empty() && k.cols() != q_row.size()) {
    throw std::invalid_argument("FusedScoreKernel: dim mismatch");
  }
  CheckCandidates(cand, k.rows(),
                  "FusedScoreKernel: candidate index out of range");
  if (!cfg.masked.empty() && cfg.masked.size() != cand.size()) {
    throw std::invalid_argument("FusedScoreKernel: mask length mismatch");
  }
  if (cfg.unroll == 0) {
    throw std::invalid_argument("FusedScoreKernel: unroll must be >= 1");
  }

  out.exp_scores.resize(cand.size());
  out.sum = 0.0;
  const std::size_t d = q_row.size();
  if (d == 0) {
    // The fused tail never runs (it fires on the last reduction iteration,
    // and there are none): every candidate gets zero weight, exactly what
    // a freshly value-initialized result holds.  Explicit so a reused
    // scratch `out` cannot leak scores from a previous call.
    std::fill(out.exp_scores.begin(), out.exp_scores.end(), 0.f);
  } else {
    // Fig 4 fuses the reduction with the scale/mask/exp tail in one II=1
    // loop; functionally that is "dot product, then tail, per candidate".
    // The software reduction runs through the kernel library's unrolled
    // partial sums (same trip count as the hardware loop, reordered
    // accumulation -- compare scores with relative tolerance).
    for (std::size_t j = 0; j < cand.size(); ++j) {
      const float acc = DotProduct(q_row, k.row(cand[j])) * cfg.scale;
      if (!cfg.masked.empty() && cfg.masked[j]) {
        // Masked candidates contribute exactly zero weight (the hardware
        // gates the exp LUT output rather than feeding it -inf).
        out.exp_scores[j] = 0.f;
      } else {
        // Saturating exponent: the hardware exp LUT clamps its input.
        const float arg = std::clamp(acc, -80.f, 80.f);
        const float e =
            cfg.exp_lut != nullptr ? cfg.exp_lut->Eval(arg) : std::exp(arg);
        out.exp_scores[j] = e;
        out.sum += e;
      }
    }
  }

  // Cycle model: the inner reduction is unrolled by p, II=1, so one
  // candidate costs ceil(d/p) cycles; candidates stream back to back.
  const std::size_t per_cand = (d + cfg.unroll - 1) / cfg.unroll;
  out.cycles = per_cand * cand.size();
}

void WeightedContext(const FusedScoreResult& scores, const MatrixF& v,
                     std::span<const std::uint32_t> cand,
                     std::span<float> out) {
  if (scores.exp_scores.size() != cand.size()) {
    throw std::invalid_argument("WeightedContext: candidate count mismatch");
  }
  CheckCandidates(cand, v.rows(),
                  "WeightedContext: candidate index out of range");
  if (out.size() != v.cols()) {
    throw std::invalid_argument("WeightedContext: output length mismatch");
  }
  std::fill(out.begin(), out.end(), 0.f);
  for (std::size_t j = 0; j < cand.size(); ++j) {
    const float w = scores.exp_scores[j];
    if (w == 0.f) continue;
    auto vj = v.row(cand[j]);
    for (std::size_t c = 0; c < v.cols(); ++c) out[c] += w * vj[c];
  }
  if (scores.sum > 0.0) {
    const float inv = static_cast<float>(1.0 / scores.sum);
    for (auto& x : out) x *= inv;
  }
}

}  // namespace latte
