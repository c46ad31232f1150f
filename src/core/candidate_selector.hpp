#pragma once
// Attention candidate pre-selection ("At-Sel", Stage 1 of Fig 2(a)).
//
// Implements steps 2-4 of Fig 3: quantize Q and K to ultra-low precision,
// form the approximate scores Q'.K'^T, and keep the Top-k keys of every
// query row.  Because quantization is monotone, the approximate scores
// preserve the rank of the exact scores well enough that the true dominant
// keys survive selection.
//
// The host path scores without the product LUT.  With 1-bit sign codes
// every product is an XNOR, so a row pair scores d - 2*popcount(q ^ k)
// over packed sign words; 4-bit codes take an exact integer dot product.
// Each query row is scored into one reused n-length buffer and its Top-k
// picked by an O(n) select: a histogram over the scores finds the cut, and
// only the few keys above it are ordered.  Every score and every selection
// is bitwise identical to the LUT datapath feeding the streaming sorter
// (LutMultiplier::ScoreMatrix + StreamingTopK, and the structural
// AtSelUnit), which remain the reference models the tests compare against.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/topk.hpp"
#include "tensor/lut_multiply.hpp"
#include "tensor/quantize.hpp"

namespace latte {

/// Configuration of the pre-selection path.
struct SelectorConfig {
  std::size_t top_k = 30;  ///< candidates kept per query row
  int bits = 1;            ///< Q/K quantization width: 1 (sign) or 4
  /// Number of valid (non-padding) keys; keys at index >= valid_len are
  /// never selected.  0 means every key is valid.  Used when a padded
  /// block must still compute correctly (Fig 1(b) masking).
  std::size_t valid_len = 0;

  /// Keys that enter selection out of `n_keys`.
  std::size_t ValidKeys(std::size_t n_keys) const {
    return valid_len == 0 ? n_keys : std::min(valid_len, n_keys);
  }
};

/// Result of pre-selection for a whole Q block.
struct SelectionResult {
  /// candidates[i] = selected key indices for query row i, sorted by
  /// decreasing approximate score (ties toward the smaller key index).
  std::vector<std::vector<std::uint32_t>> candidates;
  /// Approximate (quantized) scores matching `candidates`, for diagnostics.
  std::vector<std::vector<std::int32_t>> approx_scores;
  /// LUT multiply count consumed (n_q * n_k * d), for the resource model.
  std::size_t lut_multiplies = 0;
  /// Sorter cycles consumed (one per streamed element).
  std::size_t sorter_cycles = 0;
};

/// Reusable Stage 1 state for one worker: the packed or quantized operands,
/// the streamed score row, and the flat (rows x per_row) selection the
/// workspace SelectCandidates writes.  Buffers only grow, so repeated calls
/// at steady-state shapes allocate nothing.
struct SelectionScratch {
  // Output of the last SelectCandidates call.
  std::size_t rows = 0;              ///< query rows selected for
  std::size_t per_row = 0;           ///< min(top_k, valid keys)
  std::vector<std::uint32_t> index;  ///< rows x per_row key indices
  std::vector<std::int32_t> score;   ///< matching approximate scores
  std::size_t lut_multiplies = 0;    ///< as SelectionResult
  std::size_t sorter_cycles = 0;     ///< as SelectionResult

  // Working buffers.
  std::vector<std::uint64_t> q_signs;  ///< packed sign words of Q (1 bit)
  std::vector<std::uint64_t> k_signs;  ///< packed sign words of K (1 bit)
  MatrixI8 codes;                      ///< 4-bit codes as quantized
  std::vector<std::int16_t> q_codes;   ///< 4-bit codes of Q, widened
  std::vector<std::int16_t> k_codes;   ///< 4-bit codes of valid K, widened
  std::vector<std::int32_t> row;       ///< one query row's key scores
  std::vector<std::uint32_t> bins;     ///< select histogram
  std::vector<std::uint32_t> kept;     ///< keys surviving the histogram cut
  std::vector<std::uint64_t> keys;     ///< sort keys of the survivors

  /// Key indices selected for query row i, best first.
  std::span<const std::uint32_t> Candidates(std::size_t i) const {
    return std::span<const std::uint32_t>(index).subspan(i * per_row, per_row);
  }
  /// Approximate scores matching Candidates(i).
  std::span<const std::int32_t> Scores(std::size_t i) const {
    return std::span<const std::int32_t>(score).subspan(i * per_row, per_row);
  }
  /// The selection as one index list per query row (allocates).
  std::vector<std::vector<std::uint32_t>> CandidateLists() const {
    std::vector<std::vector<std::uint32_t>> lists;
    lists.reserve(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      const auto c = Candidates(i);
      lists.emplace_back(c.begin(), c.end());
    }
    return lists;
  }

  std::size_t CapacityBytes() const {
    std::size_t bytes = codes.capacity();
    bytes += (q_codes.capacity() + k_codes.capacity()) * sizeof(std::int16_t);
    bytes += (index.capacity() + bins.capacity()) * sizeof(std::uint32_t);
    bytes += kept.capacity() * sizeof(std::uint32_t);
    bytes += (score.capacity() + row.capacity()) * sizeof(std::int32_t);
    bytes += (q_signs.capacity() + k_signs.capacity()) * sizeof(std::uint64_t);
    return bytes + keys.capacity() * sizeof(std::uint64_t);
  }
};

/// Runs quantized candidate pre-selection for one head.
/// q and k are full-precision (n_q x d) and (n_k x d).
/// Each row receives min(top_k, valid keys) candidates.
SelectionResult SelectCandidates(const MatrixF& q, const MatrixF& k,
                                 const SelectorConfig& cfg);

/// Workspace variant: the same selection, bitwise, written into `scratch`
/// (its `index`/`score` outputs and counters) with every temporary reused.
void SelectCandidates(const MatrixF& q, const MatrixF& k,
                      const SelectorConfig& cfg, SelectionScratch& scratch);

/// Number of 64-bit words one packed sign row of width d occupies.
inline std::size_t SignWords(std::size_t d) { return (d + 63) / 64; }

/// Packs the 1-bit codes of rows [0, rows) of `m` into `out`, SignWords(d)
/// words per row: bit b of word w is set iff m(r, 64w + b) < 0, the sign
/// rule of QuantizeValue (+0, -0 and NaN all code as +1, bit clear).  Bits
/// past d stay clear.
void PackSignRows(const MatrixF& m, std::size_t rows,
                  std::vector<std::uint64_t>& out);

/// 1-bit scores of one query row against packed key rows:
/// out[j] = d - 2 * popcount(q ^ k_j), the {-1,+1} code dot product.
/// `q` holds SignWords(d) words; `keys` holds out.size() such rows.
void ScoreSignRow(std::span<const std::uint64_t> q,
                  std::span<const std::uint64_t> keys, std::size_t d,
                  std::span<std::int32_t> out);

/// Exact integer scores of one query code row against key code rows of the
/// same width d = q.size(): out[j] = sum_t q[t] * keys[j * d + t].
/// `keys` holds out.size() rows.
void ScoreCodeRow(std::span<const std::int16_t> q,
                  std::span<const std::int16_t> keys,
                  std::span<std::int32_t> out);

/// Exact Top-k of the full-precision scores q.k^T (no quantization); the
/// oracle that fidelity metrics compare the quantized selection against.
std::vector<std::vector<std::uint32_t>> ExactTopKCandidates(
    const MatrixF& q, const MatrixF& k, std::size_t top_k);

}  // namespace latte
