#pragma once
// Dense (reference) scaled-dot-product attention and the pluggable
// multi-head wrapper used by the encoder.

#include <functional>

#include "tensor/matrix.hpp"

namespace latte {

// Forward declaration (runtime/workspace.hpp): including it here would
// close an include cycle through core/sparse_attention.hpp, which needs
// this header for AttentionFn.
class Workspace;

/// Per-head attention function: (Q, K, V) -> context, all (n x d_head).
/// The encoder is parameterized on this so the dense reference and the
/// paper's sparse operator are drop-in interchangeable.
using AttentionFn =
    std::function<MatrixF(const MatrixF&, const MatrixF&, const MatrixF&)>;

/// Per-head attention that draws its scratch from a Workspace.  The
/// sharded encoder takes this instead of the plain AttentionFn because
/// each head runs on the owning shard's Workspace, which the caller cannot
/// bind in advance.
using WorkspaceAttentionFn = std::function<MatrixF(
    const MatrixF&, const MatrixF&, const MatrixF&, Workspace&)>;

/// Reference dense attention for one head:
///   softmax(Q K^T / sqrt(d)) V
/// Q, K, V are (n x d); result is (n x d).
MatrixF DenseAttention(const MatrixF& q, const MatrixF& k, const MatrixF& v);

/// Workspace variant of dense attention: the (n x n) score matrix is
/// leased from `ws` (slot wslots::kAttentionScores) and both matmuls pack
/// into the workspace GEMM scratch, so repeated calls at steady-state
/// shapes allocate only the returned context.  Bit-identical to
/// DenseAttention; a WorkspaceAttentionFn as it stands.
MatrixF DenseAttentionWorkspace(const MatrixF& q, const MatrixF& k,
                                const MatrixF& v, Workspace& ws);

/// Dense attention with a padding mask: keys at index >= valid_len receive
/// -inf scores before softmax (0 = everything valid).  The oracle for the
/// masked sparse path.
MatrixF DenseAttentionMaskedWorkspace(const MatrixF& q, const MatrixF& k,
                                      const MatrixF& v, std::size_t valid_len,
                                      Workspace& ws);

/// Splits an (n x h) matrix into `heads` contiguous column blocks of width
/// h/heads.  Throws if h is not divisible by heads.
std::vector<MatrixF> SplitHeads(const MatrixF& x, std::size_t heads);

}  // namespace latte
