// google-benchmark microbenchmarks of the actual C++ kernels: quantization,
// LUT scoring, streaming Top-k, fused score kernel, and sparse vs dense
// attention wall time.  These measure this library's host implementation
// (not the FPGA model) -- they demonstrate the algorithmic O(n^2) -> O(nk)
// win on real silicon too.

#include <benchmark/benchmark.h>

#include "latte/latte.hpp"

namespace latte {
namespace {

AttentionProblem Problem(std::size_t n) {
  Rng rng(42 + n);
  AttentionWorkloadConfig cfg;
  return GenerateAttentionProblem(rng, n, cfg);
}

void BM_Quantize1Bit(benchmark::State& state) {
  const auto p = Problem(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Quantize(p.q, 1));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 64);
}
BENCHMARK(BM_Quantize1Bit)->Arg(128)->Arg(512);

void BM_LutScoreMatrix(benchmark::State& state) {
  const auto p = Problem(static_cast<std::size_t>(state.range(0)));
  const auto q = Quantize(p.q, 4);
  const auto k = Quantize(p.k, 4);
  LutMultiplier lut;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lut.ScoreMatrix(q, k));
  }
}
BENCHMARK(BM_LutScoreMatrix)->Arg(128)->Arg(256);

// The host Stage 1 that replaces LUT scoring + streaming Top-k: packed-sign
// XNOR-popcount (bits 1) or int dot (bits 4) scores, O(n) per-row select,
// all in a reused scratch.  Args: {n, bits}.
void BM_SelectCandidates(benchmark::State& state) {
  const auto p = Problem(static_cast<std::size_t>(state.range(0)));
  SelectorConfig cfg;
  cfg.top_k = 30;
  cfg.bits = static_cast<int>(state.range(1));
  SelectionScratch scratch;
  for (auto _ : state) {
    SelectCandidates(p.q, p.k, cfg, scratch);
    benchmark::DoNotOptimize(scratch.index.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(0));
}
BENCHMARK(BM_SelectCandidates)->ArgsProduct({{128, 384, 1024}, {1, 4}});

void BM_StreamingTopK(benchmark::State& state) {
  Rng rng(7);
  const std::size_t n = 1024;
  std::vector<std::int32_t> row(n);
  for (auto& x : row) x = static_cast<std::int32_t>(rng.NextIndex(1u << 20));
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopK(row, static_cast<std::size_t>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StreamingTopK)->Arg(10)->Arg(30)->Arg(100);

// Stage 2.2 for one query row: scores range(0) candidate rows of a 512-row
// K in place, into a reused result (as SparseAttention does per row).
void BM_FusedScoreKernel(benchmark::State& state) {
  Rng rng(8);
  const auto q = rng.NormalMatrix(1, 64, 0.0, 1.0);
  const auto k = rng.NormalMatrix(512, 64, 0.0, 1.0);
  std::vector<std::uint32_t> cand(static_cast<std::size_t>(state.range(0)));
  for (auto& j : cand) j = static_cast<std::uint32_t>(rng.NextIndex(512));
  FusedKernelConfig cfg;
  cfg.scale = 0.125f;
  FusedScoreResult out;
  for (auto _ : state) {
    FusedScoreKernel(q.row(0), k, cand, cfg, out);
    benchmark::DoNotOptimize(out.sum);
  }
}
BENCHMARK(BM_FusedScoreKernel)->Arg(30)->Arg(128);

void BM_DenseAttention(benchmark::State& state) {
  const auto p = Problem(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DenseAttention(p.q, p.k, p.v));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DenseAttention)->Arg(128)->Arg(256)->Arg(512)->Complexity();

void BM_SparseAttentionTop30(benchmark::State& state) {
  const auto p = Problem(static_cast<std::size_t>(state.range(0)));
  SparseAttentionConfig cfg;
  cfg.top_k = 30;
  // Scratch persists across iterations, as it does across batch items on
  // a BatchRunner worker: zero steady-state allocations in stage 2.
  AttentionScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SparseAttention(p.q, p.k, p.v, cfg, nullptr, scratch));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SparseAttentionTop30)->Arg(128)->Arg(256)->Arg(512)->Complexity();

void BM_EncoderLayerDense(benchmark::State& state) {
  Rng rng(9);
  EncoderConfig cfg;
  cfg.hidden = 256;
  cfg.heads = 4;
  const auto w = MakeEncoderWeights(rng, cfg);
  const auto x = MakeInputEmbedding(rng, 128, cfg.hidden);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncoderForward(x, w, cfg, DenseAttention));
  }
}
BENCHMARK(BM_EncoderLayerDense);

void BM_PipelineSimulation(benchmark::State& state) {
  const auto ops =
      EncoderOps(BertBase().encoder, AttentionMode::kSparseTopK, 30);
  const auto models =
      BuildStageTimings(GroupByStageHint(ops), AlveoU280Slr0(), 177);
  std::vector<std::size_t> lens;
  for (std::size_t i = 0; i < 16; ++i) lens.push_back(400 - 20 * i);
  PipelineSimConfig cfg;
  cfg.layers = 12;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimulatePipeline(lens, models, cfg));
  }
}
BENCHMARK(BM_PipelineSimulation);

}  // namespace
}  // namespace latte

BENCHMARK_MAIN();
