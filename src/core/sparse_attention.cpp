#include "core/sparse_attention.hpp"

#include <cmath>
#include <stdexcept>

namespace latte {

MatrixF SparseAttention(const MatrixF& q, const MatrixF& k, const MatrixF& v,
                        const SparseAttentionConfig& cfg,
                        SparseAttentionStats* stats,
                        AttentionScratch& scratch) {
  if (q.cols() != k.cols() || k.rows() != v.rows()) {
    throw std::invalid_argument("SparseAttention: shape mismatch");
  }
  const std::size_t n = q.rows();
  const std::size_t d = q.cols();

  // Stage 1: quantized candidate pre-selection.
  SelectorConfig sel_cfg;
  sel_cfg.top_k = cfg.top_k;
  sel_cfg.bits = cfg.bits;
  sel_cfg.valid_len = cfg.valid_len;
  SelectCandidates(q, k, sel_cfg, scratch.select);
  const SelectionScratch& sel = scratch.select;

  MatrixF out(n, v.cols());
  FusedKernelConfig fk;
  fk.scale = 1.f / std::sqrt(static_cast<float>(d));
  fk.unroll = cfg.unroll;

  scratch.ReserveContext(v.cols());
  const std::span<float> z(scratch.ctx.data(), v.cols());

  std::size_t fused_cycles = 0;
  std::size_t exact_macs = 0;
  std::size_t selected_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto cand = sel.Candidates(i);
    selected_total += cand.size();
    // Stage 2.1-2.2: fused exact score computation (Fig 4) over the
    // candidate key rows, read in place.
    FusedScoreKernel(q.row(i), k, cand, fk, scratch.scores);
    fused_cycles += scratch.scores.cycles;
    exact_macs += cand.size() * d * 2;  // scores + context
    // Stage 2.3: weighted context over the candidate value rows.
    WeightedContext(scratch.scores, v, cand, z);
    auto dst = out.row(i);
    for (std::size_t c = 0; c < z.size(); ++c) dst[c] = z[c];
  }

  if (stats != nullptr) {
    stats->n = n;
    stats->selected_per_row = n > 0 ? selected_total / n : 0;
    stats->lut_multiplies = sel.lut_multiplies;
    stats->sorter_cycles = sel.sorter_cycles;
    stats->fused_cycles = fused_cycles;
    stats->exact_macs = exact_macs;
  }
  return out;
}

AttentionFn MakeSparseAttentionFn(SparseAttentionConfig cfg) {
  return [cfg](const MatrixF& q, const MatrixF& k, const MatrixF& v) {
    AttentionScratch scratch;
    return SparseAttention(q, k, v, cfg, nullptr, scratch);
  };
}

}  // namespace latte
