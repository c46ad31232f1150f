// Quickstart: run the paper's sparse Top-k attention on one synthetic
// sequence and compare it against dense attention.
//
//   $ ./quickstart
//
// Demonstrates the three public building blocks: workload generation,
// the SparseAttention operator, and the fidelity metrics.

#include <cstdio>

#include "latte/latte.hpp"

int main() {
  using namespace latte;

  // 1. A synthetic 256-token attention problem with BERT-like score
  //    concentration (a few dominant keys per query).
  Rng rng(2022);
  AttentionWorkloadConfig wl;
  wl.head_dim = 64;
  const AttentionProblem problem = GenerateAttentionProblem(rng, 256, wl);

  // 2. Sparse attention: 1-bit quantized pre-selection, Top-30 candidates.
  SparseAttentionConfig cfg;
  cfg.top_k = 30;
  cfg.bits = 1;
  SparseAttentionStats stats;
  AttentionScratch scratch;
  const MatrixF sparse =
      SparseAttention(problem.q, problem.k, problem.v, cfg, &stats, scratch);

  // 3. Dense reference and fidelity.
  const FidelityReport rep = EvaluateFidelity(problem, cfg);

  std::printf("sparse attention on n=%zu tokens, top-k=%zu, %d-bit codes\n",
              stats.n, stats.selected_per_row, cfg.bits);
  std::printf("  full-precision MACs  : %zu (dense would need %zu)\n",
              stats.exact_macs, stats.n * stats.n * problem.q.cols() * 2);
  std::printf("  top-k recall         : %.3f\n", rep.topk_recall);
  std::printf("  retained softmax mass: %.3f\n", rep.retained_mass);
  std::printf("  output cosine        : %.4f\n", rep.output_cosine);
  std::printf("  output rel. error    : %.4f\n", rep.output_rel_error);
  std::printf("  (output shape %zux%zu)\n", sparse.rows(), sparse.cols());
  return 0;
}
