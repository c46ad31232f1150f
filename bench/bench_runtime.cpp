// Batched execution runtime benchmarks.
//
// Two questions the runtime PR must answer with numbers:
//   1. What does workspace reuse buy on the sparse attention hot path,
//      versus the seed's per-query-row heap allocations?  (1 thread)
//   2. How does BatchRunner throughput scale with worker count on a batch
//      of variable-length sequences?  (1 vs 2 vs 4 threads; on a 1-core
//      host the scaling numbers measure scheduling overhead, not speedup)
//
// Plain chrono timing, deterministic inputs, prints a small table and
// emits machine-readable JSON (BENCH_runtime.json, or argv[1]) for the CI
// perf-smoke job.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "obs/json_writer.hpp"
#include "latte/latte.hpp"

namespace latte {
namespace {

using Clock = std::chrono::steady_clock;

// Optimization barrier: published results are never elided.
volatile float g_sink = 0;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Copies the rows `idx` of `src` into a fresh (|idx| x cols) block.
MatrixF GatherRows(const MatrixF& src, std::span<const std::uint32_t> idx) {
  MatrixF out(idx.size(), src.cols());
  for (std::size_t r = 0; r < idx.size(); ++r) {
    auto s = src.row(idx[r]);
    std::copy(s.begin(), s.end(), out.row(r).begin());
  }
  return out;
}

// The seed's stage-2 loop: fresh heap-allocated gathered K/V blocks, score
// result and context row for every query row (what SparseAttention did
// before the workspace refactor).  The gathered blocks go through the
// production kernels with an identity candidate list, so both sides do the
// same arithmetic.
MatrixF SparseStage2PerRowAlloc(const MatrixF& q, const MatrixF& k,
                                const MatrixF& v, const SelectionResult& sel,
                                const FusedKernelConfig& fk) {
  MatrixF out(q.rows(), v.cols());
  std::vector<std::uint32_t> identity(k.rows());
  std::iota(identity.begin(), identity.end(), 0u);
  for (std::size_t i = 0; i < q.rows(); ++i) {
    const auto& cand = sel.candidates[i];
    const MatrixF ks = GatherRows(k, cand);  // fresh allocations per row,
    const MatrixF vs = GatherRows(v, cand);  // as in the seed
    const auto rows = std::span(identity).first(cand.size());
    FusedScoreResult fs;
    FusedScoreKernel(q.row(i), ks, rows, fk, fs);
    std::vector<float> z(v.cols());
    WeightedContext(fs, vs, rows, z);
    auto dst = out.row(i);
    for (std::size_t c = 0; c < z.size(); ++c) dst[c] = z[c];
  }
  return out;
}

// The production stage-2 loop: candidate rows read in place, score result
// and context row reused from `scratch`.
MatrixF SparseStage2Workspace(const MatrixF& q, const MatrixF& k,
                              const MatrixF& v, const SelectionResult& sel,
                              const FusedKernelConfig& fk,
                              AttentionScratch& scratch) {
  MatrixF out(q.rows(), v.cols());
  scratch.ReserveContext(v.cols());
  const std::span<float> z(scratch.ctx.data(), v.cols());
  for (std::size_t i = 0; i < q.rows(); ++i) {
    FusedScoreKernel(q.row(i), k, sel.candidates[i], fk, scratch.scores);
    WeightedContext(scratch.scores, v, sel.candidates[i], z);
    auto dst = out.row(i);
    for (std::size_t c = 0; c < z.size(); ++c) dst[c] = z[c];
  }
  return out;
}

struct WorkspaceBenchResult {
  double alloc_ms = 0;
  double workspace_ms = 0;
  double speedup = 0;
};

WorkspaceBenchResult BenchWorkspaceVsPerRowAlloc() {
  Rng rng(42);
  AttentionWorkloadConfig wl;
  wl.head_dim = 64;
  const std::size_t n = 512;
  const auto p = GenerateAttentionProblem(rng, n, wl);

  SelectorConfig sel_cfg;
  sel_cfg.top_k = 30;
  const SelectionResult sel = SelectCandidates(p.q, p.k, sel_cfg);
  FusedKernelConfig fk;
  fk.scale = 0.125f;

  const int reps = 40;
  // Warm up both paths (page in, grow the scratch to steady state).
  AttentionScratch scratch;
  float sink = 0;
  sink += SparseStage2PerRowAlloc(p.q, p.k, p.v, sel, fk)(0, 0);
  sink += SparseStage2Workspace(p.q, p.k, p.v, sel, fk, scratch)(0, 0);

  auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    sink += SparseStage2PerRowAlloc(p.q, p.k, p.v, sel, fk)(0, 0);
  }
  const double alloc_s = SecondsSince(t0) / reps;

  t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    sink += SparseStage2Workspace(p.q, p.k, p.v, sel, fk, scratch)(0, 0);
  }
  const double ws_s = SecondsSince(t0) / reps;
  g_sink = sink;

  std::printf("== sparse attention stage 2, n=%zu top_k=%zu d=%zu ==\n", n,
              sel_cfg.top_k, p.q.cols());
  std::printf("  per-row alloc : %8.3f ms/call\n", alloc_s * 1e3);
  std::printf("  workspace     : %8.3f ms/call\n", ws_s * 1e3);
  std::printf("  speedup       : %8.2fx\n\n", alloc_s / ws_s);
  return {alloc_s * 1e3, ws_s * 1e3, alloc_s / ws_s};
}

struct ScalingPoint {
  std::size_t threads = 0;
  double ms_per_batch = 0;
  double tokens_per_s = 0;
  double speedup = 0;
};

// The inference mode the scaling cells time, and its name in the banner
// and the JSON.
constexpr InferenceMode kScalingMode = InferenceMode::kSparseInt8;
constexpr const char* kScalingModeName = "sparse_int8";

std::vector<ScalingPoint> BenchBatchRunnerScaling() {
  const ModelConfig small = ScaledDown(BertBase(), 4);
  const ModelInstance model(small, 2022);
  InferenceConfig inf;
  inf.mode = kScalingMode;
  inf.sparse.top_k = 30;

  // A batch of variable-length sequences shaped like MRPC.
  Rng rng(7);
  LengthSampler sampler(Mrpc());
  const std::size_t batch = 16;
  std::vector<MatrixF> xs;
  std::vector<std::size_t> lengths;
  std::size_t tokens = 0;
  for (std::size_t i = 0; i < batch; ++i) {
    const std::size_t len = sampler.Sample(rng);
    lengths.push_back(len);
    tokens += len;
    xs.push_back(MakeInputEmbedding(rng, len, small.encoder.hidden));
  }

  std::printf("== BatchRunner: %zu seqs, %zu tokens, model %s, mode %s ==\n",
              batch, tokens, small.name.c_str(), kScalingModeName);
  const auto shards = ShardByTokens(lengths, 4);
  std::printf("  LPT 4-shard token balance:");
  for (const auto& s : shards) {
    std::size_t t = 0;
    for (std::size_t idx : s) t += lengths[idx];
    std::printf(" %zu", t);
  }
  std::printf("\n");

  std::vector<ScalingPoint> points;
  double base_s = 0;
  for (std::size_t threads : {1u, 2u, 4u}) {
    BatchRunner runner(threads);
    // Warm-up grows each worker's workspace to steady state.
    g_sink = model.ForwardBatch(xs, inf, runner)[0](0, 0);
    const int reps = 3;
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) model.ForwardBatch(xs, inf, runner);
    const double per_batch = SecondsSince(t0) / reps;
    if (threads == 1) base_s = per_batch;
    std::printf(
        "  threads=%zu : %8.3f ms/batch  %8.0f tokens/s  speedup %5.2fx\n",
        threads, per_batch * 1e3, tokens / per_batch, base_s / per_batch);
    points.push_back({threads, per_batch * 1e3,
                      static_cast<double>(tokens) / per_batch,
                      base_s / per_batch});
  }
  return points;
}

}  // namespace
}  // namespace latte

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_runtime.json";
  const auto workspace = latte::BenchWorkspaceVsPerRowAlloc();
  const auto scaling = latte::BenchBatchRunnerScaling();

  latte::obs::JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("runtime");
  json.Key("schema_version").Value(std::size_t{1});
  StampHost(json);
  json.Key("workspace");
  json.BeginObject();
  json.Key("alloc_ms").Value(workspace.alloc_ms);
  json.Key("workspace_ms").Value(workspace.workspace_ms);
  json.Key("speedup").Value(workspace.speedup);
  json.EndObject();
  json.Key("mode").Value(latte::kScalingModeName);
  json.Key("scaling");
  json.BeginArray();
  for (const auto& p : scaling) {
    json.BeginObject();
    json.Key("threads").Value(p.threads);
    json.Key("ms_per_batch").Value(p.ms_per_batch);
    json.Key("tokens_per_s").Value(p.tokens_per_s);
    json.Key("speedup").Value(p.speedup);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  if (!json.WriteFile(out_path)) return 1;
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
