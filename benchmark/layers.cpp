// The traced per-layer pass.
//
// The pass re-runs the workload's own inputs through each layer's public
// functions and times the calls from this file (spans inside the library
// are not this benchmark's business).  Per-request sections use a
// length-stratified sample of distinct contents from the workload trace,
// with the exact embeddings the engine serves for them.
//
//   serve/cache/adapt  one executed Push()+Drain() of the whole trace (the
//                      engine's own counters give the cache and adapt
//                      outcomes) plus accounting-only replays.
//   runtime            ForwardBatch on the first formed batches; BatchRunner
//                      Run (1 and `threads` threads) and RunSharded with a
//                      timing ItemFn, whose per-item times give idle shares.
//   model              Forward() in the four inference modes, 1 thread.
//   nn                 one encoder layer (layer 0 weights): fp32 workspace,
//                      int8 and 2-way column-sharded, with the attention
//                      callback timed.
//   core               one attention head at a time on Q/K/V projected
//                      through layer 0.
//   tensor             the encoder's projection and FFN GEMMs (fp32, int8)
//                      and activation quantization at the sample's lengths.
//
// Everything after the serve section runs twice, untraced then traced;
// bench.trace_overhead is the ratio of the two wall times.  The serve
// section runs once, traced: it records a handful of spans, and a second
// executed replay of the trace would double the pass's cost.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include "bench.hpp"

namespace latte::bench {
namespace {

constexpr std::size_t kLayerSample = 16;
constexpr std::size_t kTimedBatches = 8;
constexpr int kAccountingRepeats = 3;

// Published GEMM results are never elided.
volatile float g_sink = 0;

/// Times fn() as one span; returns seconds.
template <typename Fn>
double Timed(SpanRecorder& rec, const char* name, std::int64_t request,
             Fn&& fn) {
  ScopedSpan span(rec, name, request);
  const auto t0 = Clock::now();
  fn();
  return SecondsSince(t0);
}

/// Everything the per-request sections measure.
struct MicroResults {
  double batch_ms = 0;
  double tps_t1 = 0, tps_tn = 0, idle_dynamic = 0, idle_lpt = 0;
  double fwd_ms[4] = {0, 0, 0, 0};
  double enc_fp32_ms = 0, enc_int8_ms = 0, enc_sharded_ms = 0;
  double attn_fp32_s = 0, attn_int8_s = 0;
  double select_ms = 0, sparse_ms = 0, dense_ms = 0, recall = 0;
  std::size_t lut_multiplies = 0, exact_macs = 0;
  double gemm_fp32_ms = 0, gemm_int8_ms = 0, quantize_ms = 0;
  double gemm_ops = 0;  ///< per request, from nn/op_cost
  std::vector<MatrixF> sparse_int8_out;  ///< per sample request
  double wall_s = 0;
};

struct Context {
  const ModelInstance& model;
  const ServingEngineConfig& cfg;
  const std::vector<TimedRequest>& trace;
  const ServingResult& served;  ///< the executed serve pass
  std::vector<std::size_t> sample;  ///< trace ordinals
  std::vector<MatrixF> inputs;      ///< parallel to sample
  std::size_t threads = 1;
};

/// BatchRunner run whose ItemFn times every item; returns
/// (wall seconds, idle share) and adds one span per item.
std::pair<double, double> TimedRun(SpanRecorder& rec, const char* name,
                                   BatchRunner& runner, const Context& ctx,
                                   const InferenceConfig& inf, bool sharded) {
  const std::size_t n = ctx.inputs.size();
  std::vector<double> begin(n), end(n);
  std::vector<std::uint32_t> slot(n);
  auto item = [&](std::size_t i, Workspace& ws) {
    begin[i] = rec.Now();
    const MatrixF y =
        ctx.model.Forward(ctx.inputs[i], inf, nullptr, &ws.attention(), &ws);
    end[i] = rec.Now();
    for (std::size_t s = 0; s < runner.workers(); ++s) {
      if (&runner.workspace(s) == &ws) slot[i] = static_cast<std::uint32_t>(s);
    }
  };
  ScopedSpan span(rec, name);
  const double t0 = rec.Now();
  if (sharded) {
    std::vector<std::size_t> lengths;
    for (const MatrixF& x : ctx.inputs) lengths.push_back(x.rows());
    runner.RunSharded(lengths, item);
  } else {
    runner.Run(n, item);
  }
  const double wall = rec.Now() - t0;
  double busy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    busy += end[i] - begin[i];
    rec.AddChild(span.id(), "runtime.item", begin[i], end[i],
                 static_cast<std::int64_t>(ctx.sample[i]), slot[i] + 1);
  }
  const double capacity = wall * static_cast<double>(runner.workers());
  return {wall, capacity > 0 ? 1.0 - busy / capacity : 0.0};
}

MicroResults RunMicro(const Context& ctx, SpanRecorder& rec) {
  MicroResults r;
  const auto t_pass = Clock::now();
  const ModelInstance& model = ctx.model;
  const EncoderConfig& enc = model.config().encoder;
  const EncoderWeights& w0 = model.layer(0);
  const std::size_t count = ctx.inputs.size();
  const double per_req = 1.0 / static_cast<double>(count);
  std::size_t sample_tokens = 0;
  for (const MatrixF& x : ctx.inputs) sample_tokens += x.rows();

  // ---- runtime ----------------------------------------------------------
  {
    ScopedSpan layer(rec, "runtime");
    BatchRunner runner(ctx.threads);
    std::vector<double> batch_s;
    const auto& batches = ctx.served.batches;
    for (std::size_t b = 0; b < std::min(kTimedBatches, batches.size()); ++b) {
      std::vector<MatrixF> xs;
      for (std::size_t idx : batches[b].indices) {
        const std::size_t ordinal = ctx.served.offered_ids[idx];
        xs.push_back(RequestInput(ctx.cfg, ctx.trace[ordinal], ordinal,
                                  enc.hidden));
      }
      InferenceConfig inf = ctx.cfg.inference;
      if (ctx.cfg.adapt.enabled) {
        inf.sparse.top_k = ctx.cfg.adapt.tiers.at(batches[b].tier).top_k;
      }
      batch_s.push_back(Timed(rec, "runtime.forward_batch",
                              static_cast<std::int64_t>(b), [&] {
                                model.ForwardBatch(xs, inf, runner);
                              }));
    }
    r.batch_ms = Median(batch_s) * 1e3;

    BatchRunner one(1);
    const double t1 =
        TimedRun(rec, "runtime.run.t1", one, ctx, ctx.cfg.inference, false)
            .first;
    const auto [tn, idle_dyn] =
        TimedRun(rec, "runtime.run.tn", runner, ctx, ctx.cfg.inference, false);
    const auto lpt =
        TimedRun(rec, "runtime.run_sharded.tn", runner, ctx, ctx.cfg.inference,
                 true);
    r.tps_t1 = static_cast<double>(sample_tokens) / t1;
    r.tps_tn = static_cast<double>(sample_tokens) / tn;
    r.idle_dynamic = idle_dyn;
    r.idle_lpt = lpt.second;
  }

  // ---- model ------------------------------------------------------------
  {
    ScopedSpan layer(rec, "model");
    const InferenceMode modes[4] = {
        InferenceMode::kDenseFloat, InferenceMode::kSparseFloat,
        InferenceMode::kDenseInt8, InferenceMode::kSparseInt8};
    const char* names[4] = {"model.forward.dense_fp32",
                            "model.forward.sparse_fp32",
                            "model.forward.dense_int8",
                            "model.forward.sparse_int8"};
    r.sparse_int8_out.resize(count);
    for (int m = 0; m < 4; ++m) {
      InferenceConfig inf = ctx.cfg.inference;
      inf.mode = modes[m];
      double total = 0;
      for (std::size_t i = 0; i < count; ++i) {
        MatrixF y;
        total += Timed(rec, names[m], static_cast<std::int64_t>(ctx.sample[i]),
                       [&] { y = model.Forward(ctx.inputs[i], inf); });
        if (modes[m] == InferenceMode::kSparseInt8) {
          r.sparse_int8_out[i] = std::move(y);
        }
      }
      r.fwd_ms[m] = total * per_req * 1e3;
    }
  }

  // ---- nn ---------------------------------------------------------------
  {
    ScopedSpan layer(rec, "nn");
    const AttentionFn sparse = MakeSparseAttentionFn(ctx.cfg.inference.sparse);
    double attn_s = 0;
    const AttentionFn timed_attn = [&](const MatrixF& q, const MatrixF& k,
                                       const MatrixF& v) {
      MatrixF z;
      attn_s += Timed(rec, "nn.attention", -1, [&] { z = sparse(q, k, v); });
      return z;
    };
    Workspace ws;
    double total = 0;
    for (std::size_t i = 0; i < count; ++i) {
      total += Timed(rec, "nn.encoder.fp32",
                     static_cast<std::int64_t>(ctx.sample[i]), [&] {
                       EncoderForwardWorkspace(ctx.inputs[i], w0, enc,
                                               timed_attn, ws);
                     });
    }
    r.enc_fp32_ms = total * per_req * 1e3;
    r.attn_fp32_s = attn_s / total;

    const QuantizedEncoderWeights q0 = QuantizedEncoderWeights::FromFloat(w0);
    attn_s = 0;
    total = 0;
    for (std::size_t i = 0; i < count; ++i) {
      total += Timed(rec, "nn.encoder.int8",
                     static_cast<std::int64_t>(ctx.sample[i]), [&] {
                       QuantizedEncoderForward(ctx.inputs[i], q0, enc,
                                               timed_attn);
                     });
    }
    r.enc_int8_ms = total * per_req * 1e3;
    r.attn_int8_s = attn_s / total;

    ShardPlanConfig plan_cfg;
    plan_cfg.shards = 2;
    const ShardPlan plan = MakeShardPlan(enc, plan_cfg);
    ShardExecutor exec(plan_cfg.shards, plan_cfg.shards);
    const WorkspaceAttentionFn ws_sparse =
        MakeWorkspaceSparseAttentionFn(ctx.cfg.inference.sparse);
    total = 0;
    for (std::size_t i = 0; i < count; ++i) {
      total += Timed(rec, "nn.encoder.sharded",
                     static_cast<std::int64_t>(ctx.sample[i]), [&] {
                       ShardedEncoderForward(ctx.inputs[i], w0, enc, plan,
                                             ws_sparse, exec);
                     });
    }
    r.enc_sharded_ms = total * per_req * 1e3;
  }

  // ---- core -------------------------------------------------------------
  {
    ScopedSpan layer(rec, "core");
    const SparseAttentionConfig& scfg = ctx.cfg.inference.sparse;
    SelectorConfig sel_cfg;
    sel_cfg.top_k = scfg.top_k;
    sel_cfg.bits = scfg.bits;
    AttentionScratch scratch;
    Workspace ws;
    double select_s = 0, sparse_s = 0, dense_s = 0, recall = 0;
    std::size_t heads = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const auto req = static_cast<std::int64_t>(ctx.sample[i]);
      const auto qs = SplitHeads(w0.wq.Forward(ctx.inputs[i]), enc.heads);
      const auto ks = SplitHeads(w0.wk.Forward(ctx.inputs[i]), enc.heads);
      const auto vs = SplitHeads(w0.wv.Forward(ctx.inputs[i]), enc.heads);
      for (std::size_t h = 0; h < enc.heads; ++h) {
        SelectionResult sel;
        select_s += Timed(rec, "core.select", req, [&] {
          sel = SelectCandidates(qs[h], ks[h], sel_cfg);
        });
        SparseAttentionStats stats;
        sparse_s += Timed(rec, "core.sparse_attention", req, [&] {
          SparseAttention(qs[h], ks[h], vs[h], scfg, &stats, scratch);
        });
        dense_s += Timed(rec, "core.dense_attention", req, [&] {
          DenseAttentionWorkspace(qs[h], ks[h], vs[h], ws);
        });
        std::vector<std::vector<std::uint32_t>> exact;
        Timed(rec, "core.exact_topk", req, [&] {
          exact = ExactTopKCandidates(qs[h], ks[h], scfg.top_k);
        });
        double rows_recall = 0;
        for (std::size_t row = 0; row < exact.size(); ++row) {
          auto a = sel.candidates[row];
          auto b = exact[row];
          std::sort(a.begin(), a.end());
          std::sort(b.begin(), b.end());
          std::vector<std::uint32_t> both;
          std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                                std::back_inserter(both));
          rows_recall += b.empty() ? 1.0
                                   : static_cast<double>(both.size()) /
                                         static_cast<double>(b.size());
        }
        recall += rows_recall / static_cast<double>(exact.size());
        r.lut_multiplies += stats.lut_multiplies;
        r.exact_macs += stats.exact_macs;
        ++heads;
      }
    }
    const double per_head = 1.0 / static_cast<double>(heads);
    r.select_ms = select_s * per_head * 1e3;
    r.sparse_ms = sparse_s * per_head * 1e3;
    r.dense_ms = dense_s * per_head * 1e3;
    r.recall = recall * per_head;
  }

  // ---- tensor -----------------------------------------------------------
  {
    ScopedSpan layer(rec, "tensor");
    const auto ops = EncoderOps(enc, AttentionMode::kSparseTopK,
                                ctx.cfg.inference.sparse.top_k);
    const QuantizedEncoderWeights q0 = QuantizedEncoderWeights::FromFloat(w0);
    const MatrixF* wf[6] = {&w0.wq.weight, &w0.wk.weight, &w0.wv.weight,
                            &w0.wo.weight, &w0.ffn1.weight, &w0.ffn2.weight};
    const MatrixI8* wi[6] = {&q0.wq.weight.codes, &q0.wk.weight.codes,
                             &q0.wv.weight.codes, &q0.wo.weight.codes,
                             &q0.ffn1.weight.codes, &q0.ffn2.weight.codes};
    GemmScratch scratch;
    MatrixF y, f;
    MatrixI32 acc;
    double fp32_s = 0, int8_s = 0, quant_s = 0, gemm_ops = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const MatrixF& x = ctx.inputs[i];
      const auto req = static_cast<std::int64_t>(ctx.sample[i]);
      for (const OpSpec& op : ops) {
        if (op.kind == OpKind::kQkvProjection ||
            op.kind == OpKind::kOutputProjection || op.kind == OpKind::kFfn1 ||
            op.kind == OpKind::kFfn2) {
          gemm_ops += op.flops.Eval(static_cast<double>(x.rows()));
        }
      }
      // FFN2 reads the FFN1 output; the other five GEMMs read x.
      fp32_s += Timed(rec, "tensor.gemm_fp32", req, [&] {
        for (int g = 0; g < 4; ++g) MatMulInto(x, *wf[g], y, scratch);
        MatMulInto(x, *wf[4], f, scratch);
        MatMulInto(f, *wf[5], y, scratch);
      });
      g_sink = y(0, 0);
      QuantizedMatrix xq, fq;
      quant_s += Timed(rec, "tensor.quantize", req, [&] {
        xq = Quantize(x, 8);
        fq = Quantize(f, 8);
      });
      int8_s += Timed(rec, "tensor.gemm_int8", req, [&] {
        for (int g = 0; g < 5; ++g) Int8GemmInto(xq.codes, *wi[g], acc);
        Int8GemmInto(fq.codes, *wi[5], acc);
      });
      g_sink = static_cast<float>(acc(0, 0));
    }
    r.gemm_fp32_ms = fp32_s * per_req * 1e3;
    r.gemm_int8_ms = int8_s * per_req * 1e3;
    r.quantize_ms = quant_s * per_req * 1e3;
    r.gemm_ops = gemm_ops * per_req;
  }
  r.wall_s = SecondsSince(t_pass);
  return r;
}

}  // namespace

Outcome RunLayers(const Options& opt) {
  const Workload w = FindWorkload(opt.workload, opt.size);
  const ModelInstance model(ReferenceModel(), kWeightSeed);
  const auto trace = GenerateTrace(w, opt.seed);
  const ServingEngineConfig cfg =
      EngineConfig(w, model.config(), opt.seed, opt.threads);
  const std::size_t offered = trace.size();
  const double per_offered = 1.0 / static_cast<double>(offered);
  SpanRecorder rec(true);
  Outcome out;

  // ---- serve / cache / adapt ----------------------------------------------
  ServingResult res;
  double ingest_s = 0, drain_s = 0;
  std::vector<double> control_s;
  {
    ScopedSpan layer(rec, "serve");
    ServingEngine engine(model, cfg);
    ingest_s = Timed(rec, "serve.ingest", -1, [&] {
      for (const TimedRequest& r : trace) engine.Push(r);
    });
    drain_s = Timed(rec, "serve.drain", -1, [&] { res = engine.Drain(); });
    ServingEngineConfig acct = cfg;
    acct.execute = false;
    for (int k = 0; k < kAccountingRepeats; ++k) {
      ServingEngine accounting(model, acct);
      control_s.push_back(Timed(rec, "serve.accounting_replay", -1, [&] {
        accounting.Replay(trace);
      }));
    }
  }
  std::vector<double> queue_wait;
  for (std::size_t b = 0; b < res.batches.size(); ++b) {
    for (std::size_t idx : res.batches[b].indices) {
      queue_wait.push_back(res.schedule.launch_s[b] -
                           trace[res.offered_ids[idx]].arrival_s);
    }
  }
  std::sort(queue_wait.begin(), queue_wait.end());
  std::size_t degraded = 0, escalated = 0;
  for (std::size_t t = 0; t < res.report().tiers.size(); ++t) {
    if (t > 0) degraded += res.report().tiers[t].requests;
    escalated += res.report().tiers[t].escalated;
  }
  double rerun_tokens = 0, executed_tokens = 0;
  for (std::size_t i = 0; i < res.offered_ids.size(); ++i) {
    const double len = static_cast<double>(trace[res.offered_ids[i]].length);
    executed_tokens += len;
    if (!res.superseded.empty() && res.superseded[i] != 0) rerun_tokens += len;
  }

  // ---- per-request sections, untraced then traced -------------------------
  Context ctx{model, cfg, trace, res, {}, {}, opt.threads};
  ctx.sample = LengthStratifiedSample(
      trace, opt.size == Size::kTiny ? kLayerSample / 4 : kLayerSample);
  for (std::size_t ordinal : ctx.sample) {
    ctx.inputs.push_back(RequestInput(cfg, trace[ordinal], ordinal,
                                      model.config().encoder.hidden));
  }
  SpanRecorder off(false);
  const MicroResults untraced = RunMicro(ctx, off);
  const MicroResults m = RunMicro(ctx, rec);

  // ---- output check: the sample's served outputs vs sequential Forward ----
  PhaseCount check{"layer_pass"};
  const auto served = FinalOutputs(cfg, res, offered);
  for (std::size_t j = 0; j < ctx.sample.size(); ++j) {
    const FinalOutput& got = served[ctx.sample[j]];
    if (got.output == nullptr) continue;  // shed
    ++check.sent;
    MatrixF ref = m.sparse_int8_out[j];
    if (got.top_k != cfg.inference.sparse.top_k) {
      InferenceConfig inf = cfg.inference;
      inf.sparse.top_k = got.top_k;
      ref = model.Forward(ctx.inputs[j], inf);
    }
    const bool ok = BitwiseEqual(*got.output, ref) &&
                    BitwiseEqual(m.sparse_int8_out[j],
                                 untraced.sparse_int8_out[j]);
    if (!ok) ++check.mismatched;
  }
  check.failed = check.mismatched;
  check.succeeded = check.sent - check.failed;
  PhaseCount serve{"serve_replay"};
  serve.sent = offered;
  serve.failed = res.admission.rejected;
  serve.succeeded = offered - serve.failed;
  out.phases = {serve, check};

  const double gemm_frac = m.gemm_fp32_ms / m.enc_fp32_ms;
  const CacheStats& cs = res.cache;
  auto M = [&](const char* name, double v, const char* unit, bool higher,
               Source src) {
    out.metrics.push_back({name, v, unit, higher, src});
  };
  const auto kMeas = Source::kMeasured;
  const auto kMod = Source::kModelled;
  const auto kEx = Source::kExact;
  M("serve.ingest_ms", ingest_s * 1e3, "ms", false, kMeas);
  M("serve.drain_ms", drain_s * 1e3, "ms", false, kMeas);
  M("serve.exec_share", res.wall_s / drain_s, "fraction", true, kMeas);
  M("serve.control_us_per_req", Median(control_s) * per_offered * 1e6, "us",
    false, kMeas);
  M("serve.batches", static_cast<double>(res.batches.size()), "count", false,
    kEx);
  M("serve.mean_batch_size", res.report().mean_batch_size, "requests", true,
    kEx);
  M("serve.modelled_queue_wait_p99_ms",
    PercentileOfSorted(queue_wait, 0.99) * 1e3, "ms", false, kMod);
  M("cache.hit_frac", static_cast<double>(cs.hits) * per_offered, "fraction",
    true, kEx);
  M("cache.coalesced_frac", static_cast<double>(cs.coalesced) * per_offered,
    "fraction", true, kEx);
  M("cache.miss_frac",
    static_cast<double>(offered - cs.hits - cs.coalesced) * per_offered,
    "fraction", false, kEx);
  M("cache.evictions", static_cast<double>(cs.store.evictions), "count", false,
    kEx);
  M("adapt.degraded_frac", static_cast<double>(degraded) * per_offered,
    "fraction", false, kEx);
  M("adapt.escalated_frac", static_cast<double>(escalated) * per_offered,
    "fraction", false, kEx);
  M("adapt.shed_frac",
    static_cast<double>(res.admission.rejected) * per_offered, "fraction",
    false, kEx);
  M("adapt.rerun_token_frac",
    executed_tokens > 0 ? rerun_tokens / executed_tokens : 0.0, "fraction",
    false, kEx);
  M("runtime.batch_ms", m.batch_ms, "ms", false, kMeas);
  M("runtime.tokens_per_s.t1", m.tps_t1, "tokens/s", true, kMeas);
  M("runtime.tokens_per_s.t4", m.tps_tn, "tokens/s", true, kMeas);
  M("runtime.scaling_eff",
    m.tps_tn / (static_cast<double>(opt.threads) * m.tps_t1), "ratio", true,
    kMeas);
  M("runtime.idle_share.dynamic", m.idle_dynamic, "fraction", false, kMeas);
  M("runtime.idle_share.lpt", m.idle_lpt, "fraction", false, kMeas);
  M("model.forward_ms.dense_fp32", m.fwd_ms[0], "ms", false, kMeas);
  M("model.forward_ms.sparse_fp32", m.fwd_ms[1], "ms", false, kMeas);
  M("model.forward_ms.dense_int8", m.fwd_ms[2], "ms", false, kMeas);
  M("model.forward_ms.sparse_int8", m.fwd_ms[3], "ms", false, kMeas);
  M("nn.encoder_ms.fp32", m.enc_fp32_ms, "ms", false, kMeas);
  M("nn.encoder_ms.int8", m.enc_int8_ms, "ms", false, kMeas);
  M("nn.encoder_ms.sharded", m.enc_sharded_ms, "ms", false, kMeas);
  M("nn.attn_share.fp32", m.attn_fp32_s, "fraction", false, kMeas);
  M("nn.attn_share.int8", m.attn_int8_s, "fraction", false, kMeas);
  M("nn.other_share", 1.0 - m.attn_fp32_s - gemm_frac, "fraction", false,
    kMeas);
  M("core.select_ms", m.select_ms, "ms", false, kMeas);
  M("core.sparse_attn_ms", m.sparse_ms, "ms", false, kMeas);
  M("core.stage2_ms", m.sparse_ms - m.select_ms, "ms", false, kMeas);
  M("core.dense_attn_ms", m.dense_ms, "ms", false, kMeas);
  M("core.topk_recall", m.recall, "fraction", true, kEx);
  M("core.lut_multiplies", static_cast<double>(m.lut_multiplies), "count",
    false, kEx);
  M("core.exact_macs", static_cast<double>(m.exact_macs), "count", false, kEx);
  M("tensor.gemm_fp32_ms", m.gemm_fp32_ms, "ms", false, kMeas);
  M("tensor.gemm_fp32_gflops", m.gemm_ops / (m.gemm_fp32_ms * 1e6), "GFLOP/s",
    true, kMeas);
  M("tensor.gemm_int8_ms", m.gemm_int8_ms, "ms", false, kMeas);
  M("tensor.gemm_int8_gops", m.gemm_ops / (m.gemm_int8_ms * 1e6), "GOP/s",
    true, kMeas);
  M("tensor.quantize_ms", m.quantize_ms, "ms", false, kMeas);
  M("bench.trace_overhead", m.wall_s / untraced.wall_s, "ratio", false, kMeas);

  char note[200];
  std::snprintf(note, sizeof note,
                "layer sample: %zu requests; GFLOP/s and GOP/s divide "
                "nn/op_cost operation counts (computed, not measured) by "
                "measured time",
                ctx.sample.size());
  out.notes.push_back(note);
  // Self time per span name, then per layer (the name's first part).
  const auto self_times = rec.SelfTimes();
  std::map<std::string, double> per_layer;
  out.notes.push_back("self time per span (ms, summed over spans):");
  for (const auto& [name, self_s] : self_times) {
    per_layer[name.substr(0, name.find('.'))] += self_s;
    std::snprintf(note, sizeof note, "  %-28s %12.3f", name.c_str(),
                  self_s * 1e3);
    out.notes.push_back(note);
  }
  out.notes.push_back("self time per layer (ms):");
  for (const auto& [layer, self_s] : per_layer) {
    std::snprintf(note, sizeof note, "  %-28s %12.3f", layer.c_str(),
                  self_s * 1e3);
    out.notes.push_back(note);
  }
  if (!opt.trace_out.empty()) {
    std::ofstream f(opt.trace_out);
    f << rec.ChromeTraceJson() << '\n';
    if (!f) throw std::runtime_error("cannot write " + opt.trace_out);
    out.notes.push_back("chrome trace: " + opt.trace_out);
  }
  return out;
}

}  // namespace latte::bench
