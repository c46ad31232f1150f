#include "nn/encoder.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/ops.hpp"
#include "tensor/matmul.hpp"

namespace latte {
namespace {

// The one encoder-layer body; Weights is EncoderWeights (fp32 tiled GEMM)
// or QuantizedEncoderWeights (int8 GEMM with a dequantize epilogue), whose
// layers share the ForwardInto signature.  Once SplitHeads has copied
// Q/K/V their slots are free, so the layer reuses them: context -> Q,
// Wo out -> K, x1 -> V, FFN2 out -> Q.  A layer thus holds 3 (n x hidden)
// slots and one (n x ffn) slot.
template <class Weights>
MatrixF EncoderLayer(const MatrixF& x, const Weights& w,
                     const EncoderConfig& cfg, const AttentionFn& attn,
                     Workspace& ws) {
  if (x.cols() != cfg.hidden) {
    throw std::invalid_argument("EncoderForward: input width != hidden");
  }
  GemmScratch& gs = ws.gemm();
  const std::size_t n = x.rows();
  const std::size_t d = cfg.head_dim();

  // Stage 1: linear transformation (MatMul unit in Fig 2(a)).
  MatrixF& q = ws.Float(wslots::kEncoderQ, n, cfg.hidden);
  MatrixF& k = ws.Float(wslots::kEncoderK, n, cfg.hidden);
  MatrixF& v = ws.Float(wslots::kEncoderV, n, cfg.hidden);
  w.wq.ForwardInto(x, gs, q);
  w.wk.ForwardInto(x, gs, k);
  w.wv.ForwardInto(x, gs, v);

  // Stage 2: per-head attention, each context written into its columns.
  const auto qh = SplitHeads(q, cfg.heads);
  const auto kh = SplitHeads(k, cfg.heads);
  const auto vh = SplitHeads(v, cfg.heads);
  MatrixF& ctx = q;
  for (std::size_t h = 0; h < cfg.heads; ++h) {
    CopyColumnBlock(attn(qh[h], kh[h], vh[h]), h * d, d, ctx);
  }
  MatrixF& a = k;
  w.wo.ForwardInto(ctx, gs, a);
  MatrixF& x1 = v;
  ResidualLayerNormInto(x, a, w.ln1_gamma, w.ln1_beta, x1);

  // Stage 3: feedforward.
  MatrixF& f = ws.Float(wslots::kEncoderFfn, n, cfg.ffn());
  w.ffn1.ForwardInto(x1, gs, f);
  GeluInPlace(f);
  MatrixF& f2 = q;
  w.ffn2.ForwardInto(f, gs, f2);

  MatrixF out;
  ResidualLayerNormInto(x1, f2, w.ln2_gamma, w.ln2_beta, out);
  return out;
}

}  // namespace

EncoderWeights MakeEncoderWeights(Rng& rng, const EncoderConfig& cfg) {
  if (cfg.heads == 0 || cfg.hidden % cfg.heads != 0) {
    throw std::invalid_argument("EncoderConfig: heads must divide hidden");
  }
  EncoderWeights w;
  w.wq = MakeLinear(rng, cfg.hidden, cfg.hidden);
  w.wk = MakeLinear(rng, cfg.hidden, cfg.hidden);
  w.wv = MakeLinear(rng, cfg.hidden, cfg.hidden);
  w.wo = MakeLinear(rng, cfg.hidden, cfg.hidden);
  w.ffn1 = MakeLinear(rng, cfg.hidden, cfg.ffn());
  w.ffn2 = MakeLinear(rng, cfg.ffn(), cfg.hidden);
  w.ln1_gamma.assign(cfg.hidden, 1.f);
  w.ln1_beta.assign(cfg.hidden, 0.f);
  w.ln2_gamma.assign(cfg.hidden, 1.f);
  w.ln2_beta.assign(cfg.hidden, 0.f);
  return w;
}

QuantizedEncoderWeights QuantizedEncoderWeights::FromFloat(
    const EncoderWeights& w) {
  QuantizedEncoderWeights q;
  q.wq = QuantizedLinear::FromFloat(w.wq);
  q.wk = QuantizedLinear::FromFloat(w.wk);
  q.wv = QuantizedLinear::FromFloat(w.wv);
  q.wo = QuantizedLinear::FromFloat(w.wo);
  q.ffn1 = QuantizedLinear::FromFloat(w.ffn1);
  q.ffn2 = QuantizedLinear::FromFloat(w.ffn2);
  q.ln1_gamma = w.ln1_gamma;
  q.ln1_beta = w.ln1_beta;
  q.ln2_gamma = w.ln2_gamma;
  q.ln2_beta = w.ln2_beta;
  return q;
}

MatrixF EncoderForwardWorkspace(const MatrixF& x, const EncoderWeights& w,
                                const EncoderConfig& cfg,
                                const AttentionFn& attn, Workspace& ws) {
  return EncoderLayer(x, w, cfg, attn, ws);
}

MatrixF EncoderForwardWorkspace(const MatrixF& x,
                                const QuantizedEncoderWeights& w,
                                const EncoderConfig& cfg,
                                const AttentionFn& attn, Workspace& ws) {
  return EncoderLayer(x, w, cfg, attn, ws);
}

MatrixF EncoderForward(const MatrixF& x, const EncoderWeights& w,
                       const EncoderConfig& cfg, const AttentionFn& attn) {
  Workspace ws;
  return EncoderLayer(x, w, cfg, attn, ws);
}

MatrixF QuantizedEncoderForward(const MatrixF& x,
                                const QuantizedEncoderWeights& w,
                                const EncoderConfig& cfg,
                                const AttentionFn& attn) {
  Workspace ws;
  return EncoderLayer(x, w, cfg, attn, ws);
}

MatrixF EncoderForwardDense(const MatrixF& x, const EncoderWeights& w,
                            const EncoderConfig& cfg) {
  return EncoderForward(x, w, cfg, DenseAttention);
}

WorkspaceAttentionFn MakeWorkspaceDenseAttentionFn() {
  return [](const MatrixF& q, const MatrixF& k, const MatrixF& v,
            Workspace& ws) { return DenseAttentionWorkspace(q, k, v, ws); };
}

void CopyColumnBlock(const MatrixF& src, std::size_t col0, std::size_t width,
                     MatrixF& dst) {
  if (src.rows() != dst.rows() || src.cols() != width ||
      col0 + width > dst.cols()) {
    throw std::invalid_argument(
        "CopyColumnBlock: block shape does not match its column range");
  }
  for (std::size_t r = 0; r < src.rows(); ++r) {
    const auto row = src.row(r);
    std::copy(row.begin(), row.end(), dst.row(r).begin() + col0);
  }
}

void ResidualLayerNormInto(const MatrixF& residual, const MatrixF& y,
                           std::span<const float> gamma,
                           std::span<const float> beta, MatrixF& out) {
  AddInto(residual, y, out);
  LayerNormInPlace(out, gamma, beta);
}

}  // namespace latte
