#pragma once
// One Transformer encoder layer (Fig 1(a) of the paper), with the attention
// operator pluggable so the dense reference and the sparse operator can be
// swapped without touching the rest of the layer, and the projection
// weights either fp32 or int8 (the FPGA datapath) over one layer body.

#include "nn/attention.hpp"
#include "nn/linear.hpp"
#include "nn/qlinear.hpp"
#include "runtime/batch_runner.hpp"
#include "tensor/rng.hpp"

namespace latte {

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

/// Convenience: dense-reference encoder forward.
MatrixF EncoderForwardDense(const MatrixF& x, const EncoderWeights& w,
                            const EncoderConfig& cfg);

/// Dense attention leasing its score matrix and GEMM pack buffer from the
/// workspace.  Bit-identical to DenseAttention without its per-call
/// allocations.
WorkspaceAttentionFn MakeWorkspaceDenseAttentionFn();

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
