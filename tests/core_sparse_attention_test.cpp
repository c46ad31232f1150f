// Tests for candidate pre-selection, the fused kernel and the end-to-end
// sparse attention operator.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <unordered_set>

#include "attention_reference.hpp"
#include "core/candidate_selector.hpp"
#include "core/fused_kernel.hpp"
#include "core/sparse_attention.hpp"
#include "nn/attention.hpp"
#include "tensor/matmul.hpp"
#include "tensor/rng.hpp"
#include "workload/synthetic.hpp"

namespace latte {
namespace {

AttentionProblem MakeProblem(std::uint64_t seed, std::size_t n,
                             std::size_t d = 32) {
  Rng rng(seed);
  AttentionWorkloadConfig cfg;
  cfg.head_dim = d;
  return GenerateAttentionProblem(rng, n, cfg);
}

// Every row of `m`, in order: runs the in-place kernels over a whole block.
std::vector<std::uint32_t> AllRows(const MatrixF& m) {
  std::vector<std::uint32_t> rows(m.rows());
  std::iota(rows.begin(), rows.end(), 0u);
  return rows;
}

FusedScoreResult ScoreAll(std::span<const float> q_row, const MatrixF& ks,
                          const FusedKernelConfig& cfg) {
  FusedScoreResult res;
  FusedScoreKernel(q_row, ks, AllRows(ks), cfg, res);
  return res;
}

// Sparse attention on a fresh scratch.
MatrixF Sparse(const MatrixF& q, const MatrixF& k, const MatrixF& v,
               const SparseAttentionConfig& cfg,
               SparseAttentionStats* stats = nullptr) {
  AttentionScratch scratch;
  return SparseAttention(q, k, v, cfg, stats, scratch);
}

// ----------------------------------------------------- CandidateSelector --

TEST(CandidateSelectorTest, SelectsRequestedCount) {
  const auto p = MakeProblem(1, 64);
  SelectorConfig cfg;
  cfg.top_k = 10;
  const auto sel = SelectCandidates(p.q, p.k, cfg);
  ASSERT_EQ(sel.candidates.size(), 64u);
  for (const auto& c : sel.candidates) EXPECT_EQ(c.size(), 10u);
}

TEST(CandidateSelectorTest, DegeneratesToAllWhenKExceedsN) {
  const auto p = MakeProblem(2, 8);
  SelectorConfig cfg;
  cfg.top_k = 50;
  const auto sel = SelectCandidates(p.q, p.k, cfg);
  for (const auto& c : sel.candidates) {
    EXPECT_EQ(c.size(), 8u);
    std::unordered_set<std::uint32_t> uniq(c.begin(), c.end());
    EXPECT_EQ(uniq.size(), 8u);  // every key selected exactly once
  }
}

TEST(CandidateSelectorTest, RejectsBadConfig) {
  const auto p = MakeProblem(3, 4);
  SelectorConfig cfg;
  cfg.top_k = 0;
  EXPECT_THROW(SelectCandidates(p.q, p.k, cfg), std::invalid_argument);
  cfg.top_k = 2;
  cfg.bits = 8;  // pre-selection supports 1 or 4 only
  EXPECT_THROW(SelectCandidates(p.q, p.k, cfg), std::invalid_argument);
}

TEST(CandidateSelectorTest, CountsLutWorkAndSorterCycles) {
  const auto p = MakeProblem(4, 16, 32);
  SelectorConfig cfg;
  cfg.top_k = 4;
  const auto sel = SelectCandidates(p.q, p.k, cfg);
  EXPECT_EQ(sel.lut_multiplies, 16u * 16u * 32u);
  EXPECT_EQ(sel.sorter_cycles, 16u * 16u);  // n elements streamed per row
}

TEST(CandidateSelectorTest, FourBitRecoversExactTopKOnSeparatedScores) {
  // Keys separated by more than one 4-bit quantization step along a single
  // direction: the selected SET must match the exact Top-k (order within
  // the set may differ where quantization introduces ties).
  const std::size_t n = 12, d = 8;
  MatrixF q(1, d), k(n, d);
  q(0, 0) = 1.f;
  for (std::size_t j = 0; j < n; ++j) {
    k(j, 0) = static_cast<float>(j + 1) * 2.f;  // step 2 > M/7 = 24/7
  }
  SelectorConfig cfg;
  cfg.top_k = 3;
  cfg.bits = 4;
  const auto sel = SelectCandidates(q, k, cfg);
  const auto exact = ExactTopKCandidates(q, k, 3);
  auto got = sel.candidates[0];
  auto want = exact[0];
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST(CandidateSelectorTest, OneBitBeatsRandomSelection) {
  // On a concentrated workload 1-bit selection must capture far more exact
  // Top-k hits than chance (k/n).
  const auto p = MakeProblem(5, 128, 64);
  SelectorConfig cfg;
  cfg.top_k = 16;
  const auto sel = SelectCandidates(p.q, p.k, cfg);
  const auto exact = ExactTopKCandidates(p.q, p.k, 16);
  double recall = 0;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    std::unordered_set<std::uint32_t> got(sel.candidates[i].begin(),
                                          sel.candidates[i].end());
    std::size_t hit = 0;
    for (auto j : exact[i]) hit += got.count(j);
    recall += static_cast<double>(hit) / 16.0;
  }
  recall /= static_cast<double>(exact.size());
  EXPECT_GT(recall, 2.5 * 16.0 / 128.0);  // >2.5x chance
}

TEST(CandidateSelectorTest, HigherBitsNeverHurtRankFidelity) {
  const auto p = MakeProblem(6, 96, 64);
  auto recall_at = [&](int bits) {
    SelectorConfig cfg;
    cfg.top_k = 12;
    cfg.bits = bits;
    const auto sel = SelectCandidates(p.q, p.k, cfg);
    const auto exact = ExactTopKCandidates(p.q, p.k, 12);
    double r = 0;
    for (std::size_t i = 0; i < exact.size(); ++i) {
      std::unordered_set<std::uint32_t> got(sel.candidates[i].begin(),
                                            sel.candidates[i].end());
      std::size_t hit = 0;
      for (auto j : exact[i]) hit += got.count(j);
      r += static_cast<double>(hit) / 12.0;
    }
    return r / static_cast<double>(exact.size());
  };
  EXPECT_GE(recall_at(4) + 0.02, recall_at(1));  // 4-bit ~>= 1-bit
}

// ----------------------------------------------------------- FusedKernel --

TEST(FusedKernelTest, MatchesUnfusedReference) {
  Rng rng(7);
  const auto q = rng.NormalMatrix(1, 16, 0.0, 1.0);
  const auto ks = rng.NormalMatrix(5, 16, 0.0, 1.0);
  FusedKernelConfig cfg;
  cfg.scale = 0.25f;
  const auto res = ScoreAll(q.row(0), ks, cfg);
  ASSERT_EQ(res.exp_scores.size(), 5u);
  double sum = 0;
  for (std::size_t j = 0; j < 5; ++j) {
    float dot = 0;
    for (std::size_t c = 0; c < 16; ++c) dot += q(0, c) * ks(j, c);
    const float expect = std::exp(dot * 0.25f);
    EXPECT_NEAR(res.exp_scores[j], expect, 1e-4f * expect);
    sum += expect;
  }
  EXPECT_NEAR(res.sum, sum, 1e-3 * sum);
}

TEST(FusedKernelTest, MaskedCandidatesGetZeroWeight) {
  Rng rng(8);
  const auto q = rng.NormalMatrix(1, 8, 0.0, 1.0);
  const auto ks = rng.NormalMatrix(3, 8, 0.0, 1.0);
  FusedKernelConfig cfg;
  cfg.masked = {false, true, false};
  const auto res = ScoreAll(q.row(0), ks, cfg);
  EXPECT_EQ(res.exp_scores[1], 0.f);  // exp(-inf) clamped to exp(-80) ~ 0
  EXPECT_GT(res.exp_scores[0], 0.f);
}

TEST(FusedKernelTest, CycleModelRespectsUnroll) {
  Rng rng(9);
  const auto q = rng.NormalMatrix(1, 64, 0.0, 1.0);
  const auto ks = rng.NormalMatrix(10, 64, 0.0, 1.0);
  FusedKernelConfig cfg;
  cfg.unroll = 8;
  EXPECT_EQ(ScoreAll(q.row(0), ks, cfg).cycles, 10u * 8u);
  cfg.unroll = 64;
  EXPECT_EQ(ScoreAll(q.row(0), ks, cfg).cycles, 10u);
  cfg.unroll = 3;  // non-divisible: ceil(64/3) = 22
  EXPECT_EQ(ScoreAll(q.row(0), ks, cfg).cycles, 10u * 22u);
}

TEST(FusedKernelTest, SaturatesLargeExponents) {
  MatrixF q(1, 1, 100.f);
  MatrixF ks(1, 1, 100.f);
  FusedKernelConfig cfg;  // raw score 1e4 would overflow exp()
  const auto res = ScoreAll(q.row(0), ks, cfg);
  EXPECT_TRUE(std::isfinite(res.exp_scores[0]));
  EXPECT_NEAR(res.exp_scores[0], std::exp(80.f), 1e-3f * std::exp(80.f));
}

TEST(FusedKernelTest, RejectsBadArguments) {
  MatrixF q(1, 4, 1.f);
  MatrixF ks(2, 8, 1.f);
  FusedKernelConfig cfg;
  EXPECT_THROW(ScoreAll(q.row(0), ks, cfg), std::invalid_argument);
  MatrixF ks2(2, 4, 1.f);
  cfg.masked = {true};  // wrong length
  EXPECT_THROW(ScoreAll(q.row(0), ks2, cfg), std::invalid_argument);
  cfg.masked.clear();
  cfg.unroll = 0;
  EXPECT_THROW(ScoreAll(q.row(0), ks2, cfg), std::invalid_argument);
}

TEST(FusedKernelTest, ReadsCandidateRowsInPlace) {
  // Scoring rows {4, 1, 4} of K in place equals scoring a copied block of
  // those rows, bit for bit; a repeated index scores twice.
  Rng rng(10);
  const auto q = rng.NormalMatrix(1, 16, 0.0, 1.0);
  const auto k = rng.NormalMatrix(6, 16, 0.0, 1.0);
  const std::vector<std::uint32_t> cand = {4, 1, 4};
  MatrixF block(cand.size(), 16);
  for (std::size_t j = 0; j < cand.size(); ++j) {
    for (std::size_t c = 0; c < 16; ++c) block(j, c) = k(cand[j], c);
  }
  FusedKernelConfig cfg;
  cfg.scale = 0.25f;
  FusedScoreResult res;
  FusedScoreKernel(q.row(0), k, cand, cfg, res);
  const auto copied = ScoreAll(q.row(0), block, cfg);
  EXPECT_EQ(res.exp_scores, copied.exp_scores);
  EXPECT_EQ(res.sum, copied.sum);
  EXPECT_EQ(res.exp_scores[0], res.exp_scores[2]);
  EXPECT_EQ(res.cycles, 3u * 2u);
}

TEST(FusedKernelTest, RejectsCandidateOutsideK) {
  MatrixF q(1, 4, 1.f);
  MatrixF k(3, 4, 1.f);
  FusedScoreResult res;
  const std::vector<std::uint32_t> cand = {0, 3};  // row 3 does not exist
  EXPECT_THROW(FusedScoreKernel(q.row(0), k, cand, {}, res),
               std::invalid_argument);
}

TEST(FusedKernelTest, EmptyCandidateListScoresNothing) {
  MatrixF q(1, 4, 1.f);
  MatrixF k(3, 4, 1.f);
  FusedScoreResult res;
  res.exp_scores = {1.f, 2.f};  // a reused scratch holding an older row
  res.sum = 3.0;
  FusedScoreKernel(q.row(0), k, {}, {}, res);
  EXPECT_TRUE(res.exp_scores.empty());
  EXPECT_EQ(res.sum, 0.0);
  EXPECT_EQ(res.cycles, 0u);
  std::vector<float> z(4, 9.f);
  WeightedContext(res, k, {}, z);
  for (float x : z) EXPECT_EQ(x, 0.f);
}

TEST(WeightedContextTest, NormalizedConvexCombination) {
  MatrixF vs(2, 3);
  for (std::size_t c = 0; c < 3; ++c) {
    vs(0, c) = 1.f;
    vs(1, c) = 3.f;
  }
  FusedScoreResult fs;
  fs.exp_scores = {1.f, 1.f};
  fs.sum = 2.0;
  std::vector<float> z(3);
  WeightedContext(fs, vs, AllRows(vs), z);
  for (float x : z) EXPECT_FLOAT_EQ(x, 2.f);  // midpoint
}

TEST(WeightedContextTest, WeightsCandidateRowsInPlace) {
  MatrixF v(3, 2);
  for (std::size_t c = 0; c < 2; ++c) {
    v(0, c) = 1.f;
    v(1, c) = 100.f;  // never selected
    v(2, c) = 4.f;
  }
  FusedScoreResult fs;
  fs.exp_scores = {1.f, 2.f};
  fs.sum = 3.0;
  std::vector<float> z(2);
  WeightedContext(fs, v, std::vector<std::uint32_t>{2, 0}, z);
  for (float x : z) EXPECT_FLOAT_EQ(x, 2.f);  // (4 + 2 * 1) / 3
}

TEST(WeightedContextTest, RejectsCandidateOutsideV) {
  MatrixF v(2, 3, 1.f);
  FusedScoreResult fs;
  fs.exp_scores = {1.f, 1.f};
  fs.sum = 2.0;
  std::vector<float> z(3);
  EXPECT_THROW(WeightedContext(fs, v, std::vector<std::uint32_t>{1, 2}, z),
               std::invalid_argument);
}

TEST(WeightedContextTest, RejectsMismatchedLengths) {
  MatrixF v(2, 3, 1.f);
  FusedScoreResult fs;
  fs.exp_scores = {1.f, 1.f};
  fs.sum = 2.0;
  std::vector<float> z(3);
  EXPECT_THROW(WeightedContext(fs, v, std::vector<std::uint32_t>{1}, z),
               std::invalid_argument);
  std::vector<float> short_z(2);  // output length must be v.cols()
  EXPECT_THROW(WeightedContext(fs, v, AllRows(v), short_z),
               std::invalid_argument);
}

// ------------------------------------------------------- SparseAttention --

TEST(SparseAttentionTest, EqualsDenseWhenKCoversAll) {
  const auto p = MakeProblem(10, 24);
  SparseAttentionConfig cfg;
  cfg.top_k = 24;  // every key selected
  const auto sparse = Sparse(p.q, p.k, p.v, cfg);
  const auto dense = DenseAttention(p.q, p.k, p.v);
  ASSERT_EQ(sparse.rows(), dense.rows());
  for (std::size_t i = 0; i < sparse.size(); ++i) {
    EXPECT_NEAR(sparse.flat()[i], dense.flat()[i], 2e-3f);
  }
}

TEST(SparseAttentionTest, MatchesOracleOnItsOwnCandidates) {
  // Oracle: a double-precision softmax over the selected keys, computed
  // without the fused kernels.
  const auto p = MakeProblem(11, 48);
  SparseAttentionConfig cfg;
  cfg.top_k = 8;
  AttentionScratch scratch;
  const auto sparse = SparseAttention(p.q, p.k, p.v, cfg, nullptr, scratch);
  const double err = oracle::MaxReferenceError(
      sparse, p.q, p.k, p.v, scratch.select);
  EXPECT_LT(err, 1e-5);
}

TEST(SparseAttentionTest, StatsAccounting) {
  const auto p = MakeProblem(12, 40, 32);
  SparseAttentionConfig cfg;
  cfg.top_k = 10;
  SparseAttentionStats stats;
  AttentionScratch scratch;
  SparseAttention(p.q, p.k, p.v, cfg, &stats, scratch);
  EXPECT_EQ(stats.n, 40u);
  EXPECT_EQ(stats.selected_per_row, 10u);
  EXPECT_EQ(stats.exact_macs, 40u * 10u * 32u * 2u);
  EXPECT_EQ(stats.lut_multiplies, 40u * 40u * 32u);
  EXPECT_EQ(scratch.select.rows, 40u);
}

TEST(SparseAttentionTest, ComplexityLinearInN) {
  // Exact MACs scale as n*k*d, not n^2*d: doubling n doubles exact work.
  SparseAttentionConfig cfg;
  cfg.top_k = 8;
  SparseAttentionStats s1, s2;
  const auto p1 = MakeProblem(13, 50);
  const auto p2 = MakeProblem(14, 100);
  Sparse(p1.q, p1.k, p1.v, cfg, &s1);
  Sparse(p2.q, p2.k, p2.v, cfg, &s2);
  EXPECT_EQ(s2.exact_macs, 2 * s1.exact_macs);
}

TEST(SparseAttentionTest, ShapeMismatchThrows) {
  MatrixF q(4, 8), k(4, 16), v(4, 8);
  SparseAttentionConfig cfg;
  EXPECT_THROW(Sparse(q, k, v, cfg), std::invalid_argument);
}

TEST(SparseAttentionTest, AttentionFnAdapterWorks) {
  const auto p = MakeProblem(15, 16);
  SparseAttentionConfig cfg;
  cfg.top_k = 16;
  const AttentionFn fn = MakeSparseAttentionFn(cfg);
  const auto a = fn(p.q, p.k, p.v);
  const auto b = Sparse(p.q, p.k, p.v, cfg);
  EXPECT_EQ(a, b);
}

// Property sweep: output rows are convex combinations of V rows, so every
// output coordinate lies within the min/max of the corresponding V column.
class SparseAttentionProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, int>> {};

TEST_P(SparseAttentionProperty, OutputInsideVHull) {
  const auto [n, k, bits] = GetParam();
  const auto p = MakeProblem(20 + n + k, n);
  SparseAttentionConfig cfg;
  cfg.top_k = k;
  cfg.bits = bits;
  const auto out = Sparse(p.q, p.k, p.v, cfg);
  for (std::size_t c = 0; c < p.v.cols(); ++c) {
    float lo = p.v(0, c), hi = p.v(0, c);
    for (std::size_t j = 1; j < p.v.rows(); ++j) {
      lo = std::min(lo, p.v(j, c));
      hi = std::max(hi, p.v(j, c));
    }
    for (std::size_t i = 0; i < out.rows(); ++i) {
      EXPECT_GE(out(i, c), lo - 1e-4f);
      EXPECT_LE(out(i, c), hi + 1e-4f);
    }
  }
}

TEST_P(SparseAttentionProperty, RetainedCandidatesSortedByApproxScore) {
  const auto [n, k, bits] = GetParam();
  const auto p = MakeProblem(50 + n, n);
  SelectorConfig cfg;
  cfg.top_k = k;
  cfg.bits = bits;
  const auto sel = SelectCandidates(p.q, p.k, cfg);
  for (const auto& scores : sel.approx_scores) {
    for (std::size_t i = 1; i < scores.size(); ++i) {
      EXPECT_GE(scores[i - 1], scores[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SparseAttentionProperty,
    ::testing::Combine(::testing::Values<std::size_t>(4, 17, 64),
                       ::testing::Values<std::size_t>(1, 5, 30),
                       ::testing::Values(1, 4)));

}  // namespace
}  // namespace latte
