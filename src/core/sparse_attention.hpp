#pragma once
// The paper's primary contribution: length-linear sparse attention via
// quantized candidate pre-selection (Section 3).
//
// Pipeline per head (Fig 3):
//   1. quantize Q, K to 1- or 4-bit codes              (Stage 1, At-Sel)
//   2. approximate scores Q'.K'^T (XNOR-popcount/int)  (Stage 1, At-Sel)
//   3. Top-k per query row                             (Stage 1, At-Sel)
//   4. load candidate K rows by index, in place        (Stage 2.1, load)
//   5. fused exact score + scale + mask + exp          (Stage 2.2, Fig 4)
//   6. Z = S.V_cand / sum(S), V rows read in place     (Stage 2.3)
//
// Complexity: O(n * k * d) full-precision work instead of O(n^2 * d); the
// remaining O(n^2 * d) pre-selection runs on 1-bit codes in LUT fabric
// (on the host: one popcount per 64 code pairs).

#include "core/candidate_selector.hpp"
#include "core/fused_kernel.hpp"
#include "nn/attention.hpp"

namespace latte {

/// Configuration of the sparse attention operator.
struct SparseAttentionConfig {
  std::size_t top_k = 30;  ///< candidates per query (k <= n degenerates dense)
  int bits = 1;            ///< pre-selection quantization width (1 or 4)
  unsigned unroll = 8;     ///< fused-kernel UNROLL factor (cycle model only)
  /// Padding mask: keys at index >= valid_len are never attended
  /// (0 = all keys valid).
  std::size_t valid_len = 0;
};

/// Execution statistics for one forward call, consumed by the metrics and
/// timing layers.
struct SparseAttentionStats {
  std::size_t n = 0;                ///< query/key count
  std::size_t selected_per_row = 0; ///< mean candidates per query row
  std::size_t lut_multiplies = 0;   ///< quantized score LUT work
  std::size_t sorter_cycles = 0;    ///< streaming Top-k cycles
  std::size_t fused_cycles = 0;     ///< Stage 2.2 cycles
  std::size_t exact_macs = 0;       ///< full-precision MACs (score + context)
};

/// Reusable scratch for the whole operator: the Stage 1 selection state
/// and its (n x top_k) candidates, the fused-kernel score result and the
/// context row.  One scratch serves one thread; the batch runtime keeps one
/// per worker (wrapped in a runtime::Workspace) so repeated SparseAttention
/// calls do zero heap allocation once the buffers have grown to steady
/// state.  After a call, `select.Candidates(i)` holds query row i's
/// candidates.
struct AttentionScratch {
  SelectionScratch select;  ///< Stage 1 buffers and selected candidates
  FusedScoreResult scores;  ///< fused-kernel output, reused per row
  std::vector<float> ctx;   ///< context row, length d_v

  /// Grows `ctx` to `d_v` without shrinking (capacity is sticky).
  void ReserveContext(std::size_t d_v) {
    if (ctx.size() < d_v) ctx.resize(d_v);
  }

  std::size_t CapacityBytes() const {
    const std::size_t floats = ctx.capacity() + scores.exp_scores.capacity();
    return select.CapacityBytes() + floats * sizeof(float);
  }
};

/// Sparse attention for one head.
/// q, k, v are (n x d); the result is (n x d), shape-compatible with
/// DenseAttention.  Every temporary (selection state and candidates,
/// exp-score buffer, context row) lives in `scratch` and is reused across
/// rows and across calls; only the returned context allocates.  Stage 2
/// reads the candidate rows of `k` and `v` in place.  If stats != nullptr
/// the execution statistics are written there.
MatrixF SparseAttention(const MatrixF& q, const MatrixF& k, const MatrixF& v,
                        const SparseAttentionConfig& cfg,
                        SparseAttentionStats* stats,
                        AttentionScratch& scratch);

/// Adapts SparseAttention to the encoder's pluggable AttentionFn; each
/// call runs on its own scratch.
AttentionFn MakeSparseAttentionFn(SparseAttentionConfig cfg);

}  // namespace latte
