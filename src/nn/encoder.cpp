#include "nn/encoder.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <vector>

#include "nn/ops.hpp"
#include "runtime/shard_exec.hpp"
#include "sched/shard_plan.hpp"
#include "tensor/matmul.hpp"

namespace latte {
namespace {

// One partitionable axis of the layer, as a ShardPlan member.
using Axis = std::vector<ShardRange> ShardPlan::*;

// Stage runner without a plan: one shard over every column, run inline on
// the caller's Workspace, which is also where the stages gather -- the
// unsharded layer.
struct InlineStages {
  static constexpr bool kSharded = false;
  Workspace& ws;

  Workspace& comm() const { return ws; }
  ShardRange Range(Axis, std::size_t, std::size_t extent) const {
    return {0, extent};
  }
  bool row_parallel_ffn2() const { return false; }
  template <class Stage>
  void Run(const Stage& stage) const {
    stage(0, ws);
  }
};

// Stage runner over a plan: each stage runs once per shard across the
// gang of `exec` and gathers into its comm Workspace.
struct GangStages {
  static constexpr bool kSharded = true;
  const ShardPlan& plan;
  ShardExecutor& exec;

  Workspace& comm() const { return exec.comm(); }
  ShardRange Range(Axis axis, std::size_t s, std::size_t) const {
    return (plan.*axis)[s];
  }
  bool row_parallel_ffn2() const { return plan.row_parallel_ffn2; }
  template <class Stage>
  void Run(const Stage& stage) const {
    exec.RunStage(std::cref(stage));  // a reference: nothing to allocate
  }
};

// out = x * l.weight[:, r) (+ the bias slice).  A range over every column
// is the plain forward pass -- the unsharded layer's call, and the only
// one the int8 layer has; only fp32 layers are sharded.
template <class Stages, class Layer>
void ProjectInto(const Layer& l, const MatrixF& x, ShardRange r,
                 GemmScratch& gs, MatrixF& out) {
  if constexpr (Stages::kSharded) {
    if (r.size() != l.out_features()) {
      l.ForwardColumnsInto(x, r.begin, r.end, gs, out);
      return;
    }
  }
  l.ForwardInto(x, gs, out);
}

// One column-parallel stage: shard s projects the columns `axis` gives it,
// applies GELU if `gelu` and gathers the slice into `all`.  A shard whose
// range covers every column writes straight into `all`; a partial one
// stages its slice in its own slot `slot`.  Shards own disjoint column
// ranges, so concurrent copies never touch the same element.
template <class Stages, class Layer>
void ColumnStage(const Stages& st, Axis axis, const Layer& l,
                 const MatrixF& x, std::size_t slot, MatrixF& all, bool gelu) {
  st.Run([&](std::size_t s, Workspace& ws) {
    const ShardRange r = st.Range(axis, s, all.cols());
    if (r.size() == 0) return;
    const bool whole = r.size() == all.cols();
    MatrixF& y = whole ? all : ws.Float(slot, x.rows(), r.size());
    ProjectInto<Stages>(l, x, r, ws.gemm(), y);
    if (gelu) GeluInPlace(y);
    if (!whole) CopyColumnBlock(y, r.begin, r.size(), all);
  });
}

// Row-parallel FFN, the one plan-only branch (fp32 weights): each shard
// keeps its GELU slice local and emits a full-width FFN2 partial product;
// the partials are reduced in ascending shard order (fixed, so
// deterministic to the bit -- but re-associated relative to the
// monolithic GEMM, hence agreement to rounding only).
void RowParallelFfnInto(const GangStages& st, const EncoderWeights& w,
                        const MatrixF& x1, MatrixF& f2) {
  const std::size_t n = x1.rows();
  std::vector<MatrixF*> partials(st.plan.shards);
  for (std::size_t s = 0; s < st.plan.shards; ++s) {
    partials[s] = &st.comm().Float(shardslots::kPartialBase + s, n, x1.cols());
  }
  st.Run([&](std::size_t s, Workspace& ws) {
    const ShardRange fc = st.plan.ffn_cols[s];
    GemmScratch& gs = ws.gemm();
    MatrixF& f = ws.Float(wslots::kEncoderFfn, n, fc.size());
    w.ffn1.ForwardColumnsInto(x1, fc.begin, fc.end, gs, f);
    GeluInPlace(f);
    // An empty FFN range still emits an (exactly zero) partial.
    MatMulRowsInto(f, w.ffn2.weight, fc.begin, fc.end, *partials[s], gs);
  });
  st.exec.ReducePartialsInto(n, x1.cols(), f2);
  if (!w.ffn2.bias.empty()) AddBiasInPlace(f2, w.ffn2.bias);
}

// The one encoder-layer body.  Weights is EncoderWeights (fp32 tiled GEMM)
// or QuantizedEncoderWeights (int8 GEMM with a dequantize epilogue), whose
// layers share the ForwardInto signature; Stages decides where each stage
// runs.  `attn(q, k, v, ws)` runs one head on its shard's workspace.
//
// Gathered activations live in the comm Workspace (the caller's own when
// unsharded) on the wslots plan: once SplitHeads has copied Q/K/V their
// slots are free, so context -> Q, Wo out -> K, x1 -> V, FFN -> Ffn and
// FFN2 out -> Q (the context is dead by then).  An unsharded layer thus
// holds 3 (n x hidden) slots and one (n x ffn) slot.  Comm slots are
// leased only between stages, from this thread: inside a stage shards
// only read them and write disjoint element ranges.
template <class Weights, class Stages, class HeadAttention>
MatrixF EncoderLayer(const MatrixF& x, const Weights& w,
                     const EncoderConfig& cfg, const HeadAttention& attn,
                     const Stages& st) {
  if (x.cols() != cfg.hidden) {
    throw std::invalid_argument("EncoderForward: input width != hidden");
  }
  Workspace& comm = st.comm();
  const std::size_t n = x.rows();
  const std::size_t d = cfg.head_dim();

  // Stage 1+2: linear transformation (MatMul unit in Fig 2(a)) and
  // attention, head-parallel: a shard projects only its head group's
  // columns and writes each head's context into its column range.
  MatrixF& ctx = comm.Float(wslots::kEncoderQ, n, cfg.hidden);
  st.Run([&](std::size_t s, Workspace& ws) {
    const ShardRange heads = st.Range(&ShardPlan::heads, s, cfg.heads);
    if (heads.size() == 0) return;
    const ShardRange cols{heads.begin * d, heads.end * d};
    GemmScratch& gs = ws.gemm();
    MatrixF& q = ws.Float(wslots::kEncoderQ, n, cols.size());
    MatrixF& k = ws.Float(wslots::kEncoderK, n, cols.size());
    MatrixF& v = ws.Float(wslots::kEncoderV, n, cols.size());
    ProjectInto<Stages>(w.wq, x, cols, gs, q);
    ProjectInto<Stages>(w.wk, x, cols, gs, k);
    ProjectInto<Stages>(w.wv, x, cols, gs, v);
    const auto qh = SplitHeads(q, heads.size());
    const auto kh = SplitHeads(k, heads.size());
    const auto vh = SplitHeads(v, heads.size());
    for (std::size_t h = 0; h < heads.size(); ++h) {
      CopyColumnBlock(attn(qh[h], kh[h], vh[h], ws), (heads.begin + h) * d, d,
                      ctx);
    }
  });
  MatrixF& a = comm.Float(wslots::kEncoderK, n, cfg.hidden);
  ColumnStage(st, &ShardPlan::hidden_cols, w.wo, ctx, wslots::kEncoderK, a,
              false);
  MatrixF& x1 = comm.Float(wslots::kEncoderV, n, cfg.hidden);
  ResidualLayerNormInto(x, a, w.ln1_gamma, w.ln1_beta, x1);

  // Stage 3: feedforward.
  MatrixF& f2 = comm.Float(wslots::kEncoderQ, n, cfg.hidden);
  if (st.row_parallel_ffn2()) {
    if constexpr (Stages::kSharded) RowParallelFfnInto(st, w, x1, f2);
  } else {
    MatrixF& f = comm.Float(wslots::kEncoderFfn, n, cfg.ffn());
    ColumnStage(st, &ShardPlan::ffn_cols, w.ffn1, x1, wslots::kEncoderFfn, f,
                true);
    ColumnStage(st, &ShardPlan::hidden_cols, w.ffn2, f, wslots::kEncoderQ, f2,
                false);
  }

  MatrixF out;
  ResidualLayerNormInto(x1, f2, w.ln2_gamma, w.ln2_beta, out);
  return out;
}

// Adapts a plain per-head AttentionFn to the body's per-shard signature.
template <class Weights>
MatrixF UnshardedLayer(const MatrixF& x, const Weights& w,
                       const EncoderConfig& cfg, const AttentionFn& attn,
                       Workspace& ws) {
  const auto head = [&attn](const MatrixF& q, const MatrixF& k,
                            const MatrixF& v, Workspace&) {
    return attn(q, k, v);
  };
  return EncoderLayer(x, w, cfg, head, InlineStages{ws});
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
  return UnshardedLayer(x, w, cfg, attn, ws);
}

MatrixF EncoderForwardWorkspace(const MatrixF& x,
                                const QuantizedEncoderWeights& w,
                                const EncoderConfig& cfg,
                                const AttentionFn& attn, Workspace& ws) {
  return UnshardedLayer(x, w, cfg, attn, ws);
}

MatrixF EncoderForward(const MatrixF& x, const EncoderWeights& w,
                       const EncoderConfig& cfg, const AttentionFn& attn) {
  Workspace ws;
  return UnshardedLayer(x, w, cfg, attn, ws);
}

MatrixF QuantizedEncoderForward(const MatrixF& x,
                                const QuantizedEncoderWeights& w,
                                const EncoderConfig& cfg,
                                const AttentionFn& attn) {
  Workspace ws;
  return UnshardedLayer(x, w, cfg, attn, ws);
}

MatrixF ShardedEncoderForward(const MatrixF& x, const EncoderWeights& w,
                              const EncoderConfig& cfg, const ShardPlan& plan,
                              const WorkspaceAttentionFn& attn,
                              ShardExecutor& exec) {
  if (plan.shards != exec.shards()) {
    throw std::invalid_argument(
        "ShardedEncoderForward: plan degree != executor gang size");
  }
  if (plan.heads.size() != plan.shards ||
      plan.ffn_cols.size() != plan.shards ||
      plan.hidden_cols.size() != plan.shards) {
    throw std::invalid_argument("ShardedEncoderForward: malformed plan axes");
  }
  if (plan.heads.back().end != cfg.heads ||
      plan.ffn_cols.back().end != cfg.ffn() ||
      plan.hidden_cols.back().end != cfg.hidden) {
    throw std::invalid_argument(
        "ShardedEncoderForward: plan does not cover the layer shape");
  }
  return EncoderLayer(x, w, cfg, attn, GangStages{plan, exec});
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
