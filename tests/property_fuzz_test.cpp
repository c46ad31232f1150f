// Seed-sweep property tests: randomized instances checked against
// invariants that must hold for every input, not just the curated cases in
// the per-module suites.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <unordered_set>

#include "latte/latte.hpp"

namespace latte {
namespace {

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

// --------------------------------------------------- sparse attention ----

TEST_P(SeedSweep, SparseAttentionInvariants) {
  Rng rng(GetParam());
  const std::size_t n = 8 + rng.NextIndex(120);
  const std::size_t k = 1 + rng.NextIndex(40);
  const int bits = rng.NextUniform() < 0.5 ? 1 : 4;
  AttentionWorkloadConfig wl;
  wl.head_dim = 32;
  const auto p = GenerateAttentionProblem(rng, n, wl);

  SparseAttentionConfig cfg;
  cfg.top_k = k;
  cfg.bits = bits;
  SparseAttentionStats stats;
  const auto out = SparseAttention(p.q, p.k, p.v, cfg, &stats);

  // Shape and per-row candidate invariants.
  ASSERT_EQ(out.rows(), n);
  ASSERT_EQ(stats.candidates.size(), n);
  const std::size_t expect = std::min(k, n);
  for (const auto& cand : stats.candidates) {
    EXPECT_EQ(cand.size(), expect);
    std::unordered_set<std::uint32_t> uniq(cand.begin(), cand.end());
    EXPECT_EQ(uniq.size(), cand.size());  // no duplicates
    for (auto j : cand) EXPECT_LT(j, n);
  }
  // Output stays in the convex hull of V, coordinate-wise.
  for (std::size_t c = 0; c < p.v.cols(); ++c) {
    float lo = p.v(0, c), hi = p.v(0, c);
    for (std::size_t j = 1; j < n; ++j) {
      lo = std::min(lo, p.v(j, c));
      hi = std::max(hi, p.v(j, c));
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_GE(out(i, c), lo - 1e-4f);
      EXPECT_LE(out(i, c), hi + 1e-4f);
    }
  }
}

TEST_P(SeedSweep, MaskedSelectionNeverLeaksPadding) {
  Rng rng(GetParam() * 31 + 7);
  const std::size_t n = 16 + rng.NextIndex(100);
  const std::size_t valid = 1 + rng.NextIndex(n);
  AttentionWorkloadConfig wl;
  wl.head_dim = 16;
  const auto p = GenerateAttentionProblem(rng, n, wl);
  SparseAttentionConfig cfg;
  cfg.top_k = 12;
  cfg.valid_len = valid;
  SparseAttentionStats stats;
  SparseAttention(p.q, p.k, p.v, cfg, &stats);
  for (const auto& cand : stats.candidates) {
    EXPECT_EQ(cand.size(), std::min<std::size_t>(12, valid));
    for (auto j : cand) EXPECT_LT(j, valid);
  }
}

// ------------------------------------------------------- topk agreement --

TEST_P(SeedSweep, ThreeTopKImplementationsAgree) {
  Rng rng(GetParam() * 17 + 3);
  const std::size_t n = 1 + rng.NextIndex(400);
  const std::size_t k = 1 + rng.NextIndex(64);
  std::vector<std::int32_t> row(n);
  for (auto& x : row) {
    x = static_cast<std::int32_t>(rng.NextIndex(25)) - 12;  // heavy ties
  }
  const auto behavioural = TopK(row, k);
  const auto systolic = SystolicTopK(row, k);
  ASSERT_EQ(behavioural.size(), systolic.size());
  for (std::size_t i = 0; i < behavioural.size(); ++i) {
    EXPECT_EQ(behavioural[i].score, systolic[i].score);
    EXPECT_EQ(behavioural[i].index, systolic[i].index);
  }
}

// ------------------------------------- fast pre-selection vs reference --

// Head dims around the 64-bit sign-word boundaries.
constexpr std::size_t kSelectorDims[] = {1, 16, 63, 64, 65, 130};

// A Q or K block with the quantizer's corner cases mixed in: exact +0.0f
// and -0.0f (both code as +1), NaN for 1-bit codes (also +1), and, when
// `repeat` is set, rows copied from earlier rows so scores tie heavily.
MatrixF SelectorOperand(Rng& rng, std::size_t rows, std::size_t d, int bits,
                        bool repeat) {
  MatrixF m = rng.NormalMatrix(rows, d, 0.0, 1.0);
  for (float& x : m.flat()) {
    const double u = rng.NextUniform();
    if (u < 0.1) {
      x = 0.f;
    } else if (u < 0.2) {
      x = -0.f;
    } else if (u < 0.22 && bits == 1) {
      x = std::numeric_limits<float>::quiet_NaN();
    }
  }
  if (repeat) {
    for (std::size_t r = 1; r < rows; ++r) {
      if (rng.NextUniform() < 0.4) {
        const auto src = m.row(rng.NextIndex(r));
        std::copy(src.begin(), src.end(), m.row(r).begin());
      }
    }
  }
  return m;
}

TEST_P(SeedSweep, PackedAndIntScorersMatchLut) {
  Rng rng(GetParam() * 53 + 11);
  const LutMultiplier lut;
  std::vector<std::uint64_t> q_signs, k_signs;
  for (const std::size_t d : kSelectorDims) {
    const std::size_t n = 1 + rng.NextIndex(40);
    const std::size_t m = 1 + rng.NextIndex(40);
    for (const int bits : {1, 4}) {
      SCOPED_TRACE("bits " + std::to_string(bits) + " d " + std::to_string(d));
      const MatrixF q = SelectorOperand(rng, n, d, bits, false);
      const MatrixF k = SelectorOperand(rng, m, d, bits, true);
      const QuantizedMatrix qq = Quantize(q, bits);
      const QuantizedMatrix qk = Quantize(k, bits);
      const MatrixI32 ref = lut.ScoreMatrix(qq, qk);
      const std::size_t words = SignWords(d);
      PackSignRows(q, n, q_signs);
      PackSignRows(k, m, k_signs);
      const auto q_flat = qq.codes.flat();
      const auto k_flat = qk.codes.flat();
      const std::vector<std::int16_t> q_codes(q_flat.begin(), q_flat.end());
      const std::vector<std::int16_t> k_codes(k_flat.begin(), k_flat.end());
      std::vector<std::int32_t> row(m);
      for (std::size_t i = 0; i < n; ++i) {
        if (bits == 1) {
          const auto q_row = std::span(q_signs).subspan(i * words, words);
          ScoreSignRow(q_row, k_signs, d, row);
        } else {
          ScoreCodeRow(std::span(q_codes).subspan(i * d, d), k_codes, row);
        }
        for (std::size_t j = 0; j < m; ++j) {
          ASSERT_EQ(row[j], ref(i, j)) << i << "," << j;
        }
      }
    }
  }
}

TEST_P(SeedSweep, FastSelectorMatchesLutAndSystolicReference) {
  Rng rng(GetParam() * 29 + 5);
  // The seed pins which corners this instance covers, so the 12-seed
  // sweep hits every combination of top_k >= n and valid_len < n.
  const bool wide_k = GetParam() % 2 == 0;
  const bool masked = GetParam() % 3 != 0;
  SelectionScratch scratch;  // reused across shapes, as on a worker
  for (const std::size_t d : kSelectorDims) {
    for (const int bits : {1, 4}) {
      const std::size_t n = 1 + rng.NextIndex(90);
      const std::size_t m = 1 + rng.NextIndex(90);
      SelectorConfig cfg;
      cfg.bits = bits;
      cfg.top_k = wide_k ? m + rng.NextIndex(4) : 1 + rng.NextIndex(m);
      cfg.valid_len = masked ? 1 + rng.NextIndex(m) : 0;
      SCOPED_TRACE("bits " + std::to_string(bits) + " d " + std::to_string(d));
      SCOPED_TRACE("n " + std::to_string(n) + " m " + std::to_string(m));
      SCOPED_TRACE("top_k " + std::to_string(cfg.top_k) + " valid " +
                   std::to_string(cfg.valid_len));
      const MatrixF q = SelectorOperand(rng, n, d, bits, false);
      const MatrixF k = SelectorOperand(rng, m, d, bits, true);

      const SelectionResult fast = SelectCandidates(q, k, cfg);
      const SelectionResult reference = AtSelUnit(cfg).Run(q, k);
      SelectCandidates(q, k, cfg, scratch);
      ASSERT_EQ(fast.candidates.size(), n);
      ASSERT_EQ(reference.candidates.size(), n);
      ASSERT_EQ(scratch.rows, n);
      EXPECT_EQ(fast.lut_multiplies, reference.lut_multiplies);
      EXPECT_EQ(fast.sorter_cycles, reference.sorter_cycles);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(fast.candidates[i], reference.candidates[i]) << i;
        ASSERT_EQ(fast.approx_scores[i], reference.approx_scores[i]) << i;
        const auto c = scratch.Candidates(i);
        const auto s = scratch.Scores(i);
        ASSERT_TRUE(std::ranges::equal(c, reference.candidates[i])) << i;
        ASSERT_TRUE(std::ranges::equal(s, reference.approx_scores[i])) << i;
      }
    }
  }
}

// ----------------------------------------------------------- pipeline ----

TEST_P(SeedSweep, PipelineScheduleInvariants) {
  Rng rng(GetParam() * 101 + 13);
  const std::size_t batch = 1 + rng.NextIndex(12);
  std::vector<std::size_t> lens(batch);
  for (auto& l : lens) l = 16 + rng.NextIndex(800);

  const auto ops =
      EncoderOps(BertBase().encoder, AttentionMode::kSparseTopK, 30);
  const double s_avg = static_cast<double>(std::accumulate(
                           lens.begin(), lens.end(), std::size_t{0})) /
                       static_cast<double>(batch);
  const auto models =
      BuildStageTimings(GroupByStageHint(ops), AlveoU280Slr0(), s_avg);

  PipelineSimConfig cfg;
  cfg.layers = 1 + rng.NextIndex(6);
  cfg.double_buffer = rng.NextUniform() < 0.7;
  if (rng.NextUniform() < 0.4) {
    cfg.replication = {1 + rng.NextIndex(3), 1 + rng.NextIndex(3),
                       1 + rng.NextIndex(3)};
  }
  const auto res = SimulatePipeline(lens, models, cfg);

  // Every (seq, layer, stage) job exists exactly once.
  EXPECT_EQ(res.jobs.size(), batch * cfg.layers * models.size());
  // Dataflow order per sequence; makespan covers everything; durations > 0.
  double max_end = 0;
  for (const auto& j : res.jobs) {
    EXPECT_GT(j.end, j.start);
    max_end = std::max(max_end, j.end);
  }
  EXPECT_DOUBLE_EQ(res.makespan, max_end);
  // Utilization bounded by 1 per stage (instance-aware).
  for (double u : res.StageUtilization()) {
    EXPECT_LE(u, 1.0 + 1e-9);
    EXPECT_GE(u, 0.0);
  }
  // Serial time never beats the pipelined makespan.
  EXPECT_GE(res.SerialTime(), res.makespan - 1e-12);
}

// ------------------------------------------------------------- batching --

TEST_P(SeedSweep, BatchPoliciesPreserveTokensAndOrderInvariants) {
  Rng rng(GetParam() * 7 + 1);
  const std::size_t n = 1 + rng.NextIndex(64);
  std::vector<std::size_t> lens(n);
  for (auto& l : lens) l = 1 + rng.NextIndex(800);
  const std::size_t useful = std::accumulate(lens.begin(), lens.end(),
                                             std::size_t{0});

  for (auto policy : {BatchPolicy::kPadToMax, BatchPolicy::kMicroBatch,
                      BatchPolicy::kSortedDescending}) {
    const auto b = MakeBatch(lens, policy, 4);
    EXPECT_EQ(b.UsefulTokens(), useful);
    EXPECT_GE(b.EffectiveTokens(), useful);
    EXPECT_EQ(b.effective_lengths.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_GE(b.effective_lengths[i], b.original_lengths[i]);
    }
  }
  // Sorted descending is exactly the sorted original lengths.
  const auto sorted = MakeBatch(lens, BatchPolicy::kSortedDescending);
  EXPECT_DOUBLE_EQ(sorted.PaddingOverhead(), 1.0);
}

// ---------------------------------------------------------------- HBM ----

TEST_P(SeedSweep, HbmApportionmentInvariants) {
  Rng rng(GetParam() * 11 + 5);
  const auto spec = AlveoU280Slr0();
  const std::size_t streams = 1 + rng.NextIndex(6);
  std::vector<double> demand(streams);
  for (auto& d : demand) {
    d = rng.NextUniform() < 0.2 ? 0.0 : rng.NextUniform(1.0, 1e9);
  }
  const auto ch = ApportionChannels(spec, demand);
  std::size_t sum = 0;
  bool any_active = false;
  for (std::size_t i = 0; i < streams; ++i) {
    sum += ch[i];
    if (demand[i] > 0) {
      any_active = true;
      EXPECT_GE(ch[i], 1u);
    } else {
      EXPECT_EQ(ch[i], 0u);
    }
  }
  if (any_active) {
    EXPECT_EQ(sum, spec.hbm_channels);
  }
}

// ------------------------------------------------------------ quantize ---

TEST_P(SeedSweep, QuantizationMonotoneAndBounded) {
  Rng rng(GetParam() * 23 + 9);
  const auto m = rng.NormalMatrix(4, 64, 0.0, 2.0);
  for (int bits : {1, 4, 8}) {
    const auto q = Quantize(m, bits);
    auto src = m.flat();
    auto codes = q.codes.flat();
    for (std::size_t a = 0; a < src.size(); ++a) {
      EXPECT_LE(std::abs(static_cast<int>(codes[a])), MaxCode(bits));
      for (std::size_t b = a + 1; b < std::min(src.size(), a + 8); ++b) {
        if (src[a] > src[b]) {
          EXPECT_GE(codes[a], codes[b]);
        }
      }
    }
  }
}

// ---------------------------------------------------------- accelerator --

TEST_P(SeedSweep, AcceleratorReportsConsistent) {
  Rng rng(GetParam() * 41 + 2);
  const std::size_t batch = 1 + rng.NextIndex(8);
  std::vector<std::size_t> lens(batch);
  for (auto& l : lens) l = 16 + rng.NextIndex(400);
  const auto model = ModelZoo()[rng.NextIndex(4)];

  AcceleratorConfig cfg;
  cfg.top_k = 10 + rng.NextIndex(50);
  const auto rep = RunAccelerator(model, lens, cfg);
  EXPECT_GT(rep.latency_s, 0);
  EXPECT_GT(rep.attention_latency_s, 0);
  EXPECT_LE(rep.attention_latency_s, rep.latency_s + 1e-12);
  EXPECT_GT(rep.useful_dense_flops, rep.computed_flops * 0.01);
  EXPECT_EQ(rep.batch_size, batch);
  EXPECT_EQ(rep.useful_tokens,
            std::accumulate(lens.begin(), lens.end(), std::size_t{0}));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace latte
