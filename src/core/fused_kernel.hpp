#pragma once
// The fused attention score kernel of Fig 4 (Stage 2.2).
//
// The FPGA fuses the exact score dot-product, the 1/sqrt(d) scaling, the
// attention mask and the exponentiation into a single II=1 loop: the
// reduction runs for Ks.dim2 iterations and the scale/mask/exp "tail"
// executes on the last iteration only, so the fused loop has the same trip
// count as the plain dot-product loop.  `unroll` mirrors the HLS UNROLL
// factor p; it only affects the reported cycle estimate, never the values.
//
// Both kernels read the candidate rows of K and V in place, through the
// Top-k index list of Stage 1 (the FPGA's Stage 2.1 load).

#include <cstdint>
#include <limits>
#include <span>

#include "core/exp_lut.hpp"
#include "tensor/matrix.hpp"

namespace latte {

/// Output of the fused kernel for one query row.
struct FusedScoreResult {
  std::vector<float> exp_scores;  ///< e^{mask(q.k_j / sqrt(d))} per candidate
  double sum = 0.0;               ///< running sum of exp_scores
  std::size_t cycles = 0;         ///< modeled II=1 cycles: ceil(d/p) * |cand|
};

/// Parameters of the fused loop.
struct FusedKernelConfig {
  float scale = 1.0f;   ///< typically 1/sqrt(d)
  unsigned unroll = 8;  ///< HLS UNROLL factor p (cycle model only)
  /// Candidates j with masked[j] true receive score -inf before exp (the
  /// padding / causal mask of Fig 1(b)).  Empty means nothing masked.
  std::vector<bool> masked;
  /// If set, exponentiation goes through the hardware e^x LUT of Fig 2(a)
  /// instead of std::exp (non-owning; must outlive the call).
  const ExpLut* exp_lut = nullptr;
};

/// Runs the fused loop for one query row: `q_row` (length d) against the
/// key rows k.row(cand[j]).  Writes into `out`, reusing the capacity of
/// `out.exp_scores`, so a per-worker scratch result keeps the hot loop
/// allocation-free.  Exponent arguments are clamped to +-80 to keep exp()
/// finite, mirroring the saturating fixed-point exponent LUT of the
/// hardware.  Throws std::invalid_argument if a candidate index is not a
/// row of `k`.
void FusedScoreKernel(std::span<const float> q_row, const MatrixF& k,
                      std::span<const std::uint32_t> cand,
                      const FusedKernelConfig& cfg, FusedScoreResult& out);

/// Stage 2.3: Z_i = (sum_j exp_scores[j] * V_{cand[j]}) / sum (Fig 2(a)).
/// `out` must have length v.cols(); it is fully overwritten (zeroed
/// first), so it can be a reused scratch span.  Throws
/// std::invalid_argument if a candidate index is not a row of `v` or
/// `scores` does not hold one weight per candidate.
void WeightedContext(const FusedScoreResult& scores, const MatrixF& v,
                     std::span<const std::uint32_t> cand,
                     std::span<float> out);

}  // namespace latte
