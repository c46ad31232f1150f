#pragma once
// One Transformer encoder layer (Fig 1(a) of the paper), with the attention
// operator pluggable so the dense reference and the sparse operator can be
// swapped without touching the rest of the layer, and the projection
// weights either fp32 or int8 (the FPGA datapath).  One layer body runs
// every variant: unsharded on one Workspace, or tensor-parallel across a
// gang of shards, where the partition is a schedule over the same stages.

#include "nn/attention.hpp"
#include "nn/linear.hpp"
#include "nn/qlinear.hpp"
#include "runtime/workspace.hpp"
#include "tensor/rng.hpp"

namespace latte {

// Forward declarations (sched/shard_plan.hpp, runtime/shard_exec.hpp): the
// plan header includes this one for EncoderConfig.
struct ShardPlan;
class ShardExecutor;

/// Architectural shape of one encoder layer.
struct EncoderConfig {
  std::size_t hidden = 768;  ///< model dimension h
  std::size_t heads = 12;    ///< attention heads H (must divide hidden)
  std::size_t ffn_dim = 0;   ///< feedforward width; 0 means 4*hidden

  std::size_t head_dim() const { return hidden / heads; }
  std::size_t ffn() const { return ffn_dim == 0 ? 4 * hidden : ffn_dim; }
};

/// Learned parameters of one encoder layer.
struct EncoderWeights {
  Linear wq, wk, wv;  ///< QKV projections, (h x h)
  Linear wo;          ///< attention output projection, (h x h)
  Linear ffn1;        ///< (h x ffn)
  Linear ffn2;        ///< (ffn x h)
  std::vector<float> ln1_gamma, ln1_beta;  ///< post-attention LayerNorm
  std::vector<float> ln2_gamma, ln2_beta;  ///< post-FFN LayerNorm
};

/// All encoder parameters with matmul weights in int8.
struct QuantizedEncoderWeights {
  QuantizedLinear wq, wk, wv, wo, ffn1, ffn2;
  std::vector<float> ln1_gamma, ln1_beta, ln2_gamma, ln2_beta;

  static QuantizedEncoderWeights FromFloat(const EncoderWeights& w);
};

/// Deterministically initializes encoder weights (Xavier, LN gamma=1 beta=0).
EncoderWeights MakeEncoderWeights(Rng& rng, const EncoderConfig& cfg);

/// Full encoder layer forward pass:
///   A   = Attention(split_heads(XWq, XWk, XWv)) Wo
///   X1  = LayerNorm(X + A)
///   F   = GELU(X1 W1) W2
///   out = LayerNorm(X1 + F)
/// `attn` runs per head and must return an (n x head_dim) context, else
/// std::invalid_argument; x is (n x hidden).  Every projection/FFN GEMM
/// runs through `ws`: Float slots wslots::kEncoderQ/K/V (n x hidden) and
/// kEncoderFfn (n x ffn), reused as the layer goes, and the pack/int8
/// chunk buffers of ws.gemm(), so a layer at steady-state shapes allocates
/// only per-head splits and the returned matrix.  `attn` may lease ws
/// slots >= wslots::kAttentionScores.  The int8 overload quantizes each
/// matmul's activations (QuantizedLinear), everything else is shared.
MatrixF EncoderForwardWorkspace(const MatrixF& x, const EncoderWeights& w,
                                const EncoderConfig& cfg,
                                const AttentionFn& attn, Workspace& ws);
MatrixF EncoderForwardWorkspace(const MatrixF& x,
                                const QuantizedEncoderWeights& w,
                                const EncoderConfig& cfg,
                                const AttentionFn& attn, Workspace& ws);

/// Thin shims: EncoderForwardWorkspace on a call-local Workspace (identical
/// bits).
MatrixF EncoderForward(const MatrixF& x, const EncoderWeights& w,
                       const EncoderConfig& cfg, const AttentionFn& attn);
MatrixF QuantizedEncoderForward(const MatrixF& x,
                                const QuantizedEncoderWeights& w,
                                const EncoderConfig& cfg,
                                const AttentionFn& attn);

/// The same layer run across the gang of `exec` under `plan`: QKV
/// projections and attention are head-parallel, Wo and FFN1/GELU are
/// column-parallel, and FFN2 is either column-parallel (default) or
/// row-parallel with a fixed-order reduction.  Each stage gathers into the
/// gang's comm Workspace (shardslots alias the wslots plan); residual adds
/// and LayerNorms run serially on the calling thread, exactly where the
/// unsharded layer runs them.  `attn` runs per head on the owning shard's
/// workspace.  Throws std::invalid_argument when the input width, the plan
/// axes or the gang size disagree with `cfg` / `exec`.
///
/// Bit-exactness contract (same spirit as batch-vs-sequential): with the
/// default column-parallel plan, the output is bit-identical to
/// EncoderForwardWorkspace for the same weights and attention function,
/// for every shard degree -- including degrees that do not divide the
/// head count (trailing shards just own fewer or zero heads).  The
/// column-slice GEMMs reduce in the full GEMM's K-tile order, the gathers
/// are plain column copies, and every cross-shard sum happens serially in
/// a fixed order, so no float operation is re-associated anywhere.  The
/// row-parallel FFN2 option re-associates that one reduction and agrees
/// to rounding only.
MatrixF ShardedEncoderForward(const MatrixF& x, const EncoderWeights& w,
                              const EncoderConfig& cfg, const ShardPlan& plan,
                              const WorkspaceAttentionFn& attn,
                              ShardExecutor& exec);

/// Copies `src` into columns [col0, col0 + width) of `dst`: one head's
/// context, or one shard's slice in a column gather.  Throws
/// std::invalid_argument unless src is (dst.rows() x width) and the block
/// fits in dst, so a misbehaving attention function cannot write past it.
void CopyColumnBlock(const MatrixF& src, std::size_t col0, std::size_t width,
                     MatrixF& dst);

/// out = LayerNorm(residual + y) -- the layer's residual + LayerNorm step
/// (out resized, fully overwritten; it may alias y).
void ResidualLayerNormInto(const MatrixF& residual, const MatrixF& y,
                           std::span<const float> gamma,
                           std::span<const float> beta, MatrixF& out);

}  // namespace latte
