// Ablation: sparse-attention design choices -- Top-k value, pre-selection
// bit width (1 vs 4), and the fused-kernel unroll factor.

#include <cstdio>
#include <numeric>

#include "bench_common.hpp"

using namespace latte;
using namespace latte::bench;

int main() {
  std::printf("== Ablation: sparse attention design choices ==\n\n");
  const auto spec = Squad();
  const auto wl = WorkloadForDataset(spec);

  // --- k sweep x bit width: fidelity + FPGA latency ---------------------
  TextTable table({"top-k", "bits", "recall", "retained mass",
                   "output cosine", "attn FLOP reduction",
                   "FPGA latency (ms)"});
  const auto model = BertBase();
  const auto lens = SampleBatch(spec, 16, 42);
  const auto dense_ops = EncoderOps(model.encoder, AttentionMode::kDense);

  for (std::size_t k : {10u, 20u, 30u, 40u, 50u}) {
    for (int bits : {1, 4}) {
      Rng rng(500 + k + static_cast<std::uint64_t>(bits));
      LengthSampler sampler(spec);
      double recall = 0, mass = 0, cosine = 0;
      const int reps = 5;
      for (int r = 0; r < reps; ++r) {
        const auto p =
            GenerateAttentionProblem(rng, sampler.Sample(rng), wl);
        SparseAttentionConfig cfg;
        cfg.top_k = k;
        cfg.bits = bits;
        const auto rep = EvaluateFidelity(p, cfg);
        recall += rep.topk_recall;
        mass += rep.retained_mass;
        cosine += rep.output_cosine;
      }
      const auto sparse_ops =
          EncoderOps(model.encoder, AttentionMode::kSparseTopK, k);
      const double red = 1.0 - AttentionFlops(sparse_ops, spec.avg_len) /
                                   AttentionFlops(dense_ops, spec.avg_len);
      AcceleratorConfig acfg;
      acfg.top_k = k;
      const auto rep = RunAccelerator(model, lens, acfg);
      table.AddRow({std::to_string(k), std::to_string(bits),
                    Fmt(recall / reps, 3), Fmt(mass / reps, 3),
                    Fmt(cosine / reps, 4), Fmt(100 * red, 1) + "%",
                    Fmt(rep.latency_s * 1e3, 3)});
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("(bits only affect selection quality; the exact computation "
              "runs at full precision either way)\n\n");

  // --- fused kernel unroll factor p (Fig 4) -----------------------------
  std::printf("fused-kernel cycle model, d=64, 30 candidates:\n");
  Rng rng(9);
  const auto q = rng.NormalMatrix(1, 64, 0.0, 1.0);
  const auto k = rng.NormalMatrix(30, 64, 0.0, 1.0);
  std::vector<std::uint32_t> cand(k.rows());
  std::iota(cand.begin(), cand.end(), 0u);
  FusedScoreResult res;
  for (unsigned p : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    FusedKernelConfig fk;
    fk.unroll = p;
    FusedScoreKernel(q.row(0), k, cand, fk, res);
    std::printf("  UNROLL p=%2u -> %4zu cycles per query row (II=1)\n", p,
                res.cycles);
  }
  std::printf("\nloop fusion avoids materializing the score row: scale, "
              "mask and exp execute in the last reduction iteration "
              "(Fig 4), so Stage 2.2 makes a single pass over Ks.\n");
  return 0;
}
