// Tests for the hardware unit models added on top of the core algorithm:
// the e^x LUT, the systolic II=1 Top-k sorting network, the HBM channel
// apportionment, the int8 inference path, and pipeline replication.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/exp_lut.hpp"
#include "core/fused_kernel.hpp"
#include "core/merge_sorter.hpp"
#include "core/sparse_attention.hpp"
#include "fpga/hbm.hpp"
#include "fpga/pipeline_sim.hpp"
#include "model/config.hpp"
#include "nn/encoder.hpp"
#include "nn/qlinear.hpp"
#include "tensor/kernels.hpp"
#include "tensor/matmul.hpp"
#include "tensor/quantize.hpp"
#include "tensor/rng.hpp"

namespace latte {
namespace {

// ---------------------------------------------------------------- ExpLut --

TEST(ExpLutTest, AccurateOverWorkingRange) {
  ExpLut lut(64);
  EXPECT_LT(lut.MaxRelativeError(), 2e-3);
  for (float x : {-10.f, -1.f, 0.f, 0.5f, 1.f, 5.f, 20.f}) {
    EXPECT_NEAR(lut.Eval(x), std::exp(x), 2e-3 * std::exp(x)) << x;
  }
}

TEST(ExpLutTest, ResolutionImprovesAccuracy) {
  EXPECT_LT(ExpLut(256).MaxRelativeError(), ExpLut(16).MaxRelativeError());
}

TEST(ExpLutTest, SaturatesExtremes) {
  ExpLut lut;
  EXPECT_TRUE(std::isfinite(lut.Eval(1000.f)));
  EXPECT_GT(lut.Eval(1000.f), 1e37f);
  EXPECT_GE(lut.Eval(-1000.f), 0.f);
  EXPECT_LT(lut.Eval(-1000.f), 1e-37f);
}

TEST(ExpLutTest, MonotoneNonDecreasing) {
  ExpLut lut(64);
  float prev = lut.Eval(-30.f);
  for (float x = -29.9f; x < 30.f; x += 0.05f) {
    const float cur = lut.Eval(x);
    EXPECT_GE(cur, prev * (1 - 1e-6f)) << x;
    prev = cur;
  }
}

TEST(ExpLutTest, RejectsTinyTable) {
  EXPECT_THROW(ExpLut(1), std::invalid_argument);
}

TEST(ExpLutTest, PluggedIntoFusedKernelMatchesExp) {
  Rng rng(3);
  const auto q = rng.NormalMatrix(1, 32, 0.0, 1.0);
  const auto ks = rng.NormalMatrix(8, 32, 0.0, 1.0);
  ExpLut lut(128);
  FusedKernelConfig with;
  with.scale = 0.2f;
  with.exp_lut = &lut;
  FusedKernelConfig without;
  without.scale = 0.2f;
  std::vector<std::uint32_t> cand(ks.rows());
  std::iota(cand.begin(), cand.end(), 0u);
  FusedScoreResult a, b;
  FusedScoreKernel(q.row(0), ks, cand, with, a);
  FusedScoreKernel(q.row(0), ks, cand, without, b);
  for (std::size_t j = 0; j < 8; ++j) {
    EXPECT_NEAR(a.exp_scores[j], b.exp_scores[j],
                2e-3f * b.exp_scores[j] + 1e-9f);
  }
}

// --------------------------------------------------------- SystolicTopK --

TEST(SystolicSorterTest, MatchesBehaviouralStreamingTopK) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.NextIndex(300);
    const std::size_t k = 1 + rng.NextIndex(40);
    std::vector<std::int32_t> row(n);
    for (auto& x : row) {
      x = static_cast<std::int32_t>(rng.NextIndex(60)) - 30;  // many ties
    }
    const auto systolic = SystolicTopK(row, k);
    const auto behavioural = TopK(row, k);
    ASSERT_EQ(systolic.size(), behavioural.size());
    for (std::size_t i = 0; i < systolic.size(); ++i) {
      EXPECT_EQ(systolic[i].index, behavioural[i].index);
      EXPECT_EQ(systolic[i].score, behavioural[i].score);
    }
  }
}

TEST(SystolicSorterTest, IiOneCycleAccounting) {
  SystolicTopKSorter sorter(8);
  for (int i = 0; i < 100; ++i) {
    sorter.Clock(i, static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(sorter.cycles(), 100u);                 // one element per cycle
  EXPECT_EQ(sorter.compare_exchanges(), 800u);      // k comparators per cycle
  EXPECT_EQ(sorter.drain_latency(), 8u);
}

TEST(SystolicSorterTest, ResetReusable) {
  SystolicTopKSorter sorter(2);
  sorter.Clock(5, 0);
  sorter.Reset();
  EXPECT_EQ(sorter.cycles(), 0u);
  EXPECT_TRUE(sorter.Drain().empty());
  sorter.Clock(1, 1);
  ASSERT_EQ(sorter.Drain().size(), 1u);
  EXPECT_EQ(sorter.Drain()[0].index, 1u);
}

TEST(SystolicSorterTest, SortedOutput) {
  Rng rng(9);
  SystolicTopKSorter sorter(16);
  for (int i = 0; i < 500; ++i) {
    sorter.Clock(static_cast<std::int32_t>(rng.NextIndex(1000)),
                 static_cast<std::uint32_t>(i));
  }
  const auto out = sorter.Drain();
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(out[i - 1].score, out[i].score);
  }
}

TEST(SystolicSorterTest, RejectsZeroK) {
  EXPECT_THROW(SystolicTopKSorter(0), std::invalid_argument);
}

// ------------------------------------------------------------------ HBM --

TEST(HbmTest, ChannelsSumToAvailable) {
  const auto spec = AlveoU280Slr0();
  const std::vector<double> demand = {1.0, 2.0, 3.0};
  const auto ch = ApportionChannels(spec, demand);
  std::size_t sum = 0;
  for (auto c : ch) sum += c;
  EXPECT_EQ(sum, spec.hbm_channels);
}

TEST(HbmTest, ProportionalToDemand) {
  const auto spec = AlveoU280Slr0();  // 32 channels
  const std::vector<double> demand = {1.0, 3.0};
  const auto ch = ApportionChannels(spec, demand);
  EXPECT_EQ(ch[0], 8u);
  EXPECT_EQ(ch[1], 24u);
}

TEST(HbmTest, ZeroDemandGetsNothingTinyDemandGetsOne) {
  const auto spec = AlveoU280Slr0();
  const std::vector<double> demand = {0.0, 1e-9, 1.0};
  const auto ch = ApportionChannels(spec, demand);
  EXPECT_EQ(ch[0], 0u);
  EXPECT_GE(ch[1], 1u);
  EXPECT_GE(ch[2], 1u);
}

TEST(HbmTest, RejectsNegativeAndOversubscription) {
  const auto spec = AlveoU280Slr0();
  EXPECT_THROW(ApportionChannels(spec, std::vector<double>{-1.0}),
               std::invalid_argument);
  std::vector<double> too_many(spec.hbm_channels + 1, 1.0);
  EXPECT_THROW(ApportionChannels(spec, too_many), std::invalid_argument);
}

TEST(HbmTest, StreamBandwidthScalesWithChannels) {
  const auto spec = AlveoU280Slr0();
  EXPECT_DOUBLE_EQ(StreamBandwidth(spec, spec.hbm_channels),
                   spec.SustainedHbm());
  EXPECT_DOUBLE_EQ(StreamBandwidth(spec, 0), 0.0);
}

// ---------------------------------------------------------------- int8 ---

TEST(QuantizedLinearTest, TracksFloatLayerClosely) {
  Rng rng(11);
  const Linear l = MakeLinear(rng, 64, 48);
  const QuantizedLinear q = QuantizedLinear::FromFloat(l);
  const auto x = rng.NormalMatrix(10, 64, 0.0, 1.0);
  const auto yf = l.Forward(x);
  GemmScratch scratch;
  MatrixF yq;
  q.ForwardInto(x, scratch, yq);
  ASSERT_EQ(yq.rows(), yf.rows());
  ASSERT_EQ(yq.cols(), yf.cols());
  EXPECT_GT(MeanRowCosine(yq, yf), 0.999);
  // Relative Frobenius error of 8-bit symmetric quantization stays small.
  const MatrixF zero(yf.rows(), yf.cols());
  const double rel =
      FrobeniusDistance(yq, yf) / FrobeniusDistance(yf, zero);
  EXPECT_LT(rel, 0.02);
}

TEST(QuantizedLinearTest, MacCount) {
  Rng rng(12);
  const QuantizedLinear q =
      QuantizedLinear::FromFloat(MakeLinear(rng, 8, 16));
  EXPECT_EQ(q.MacCount(10), 10u * 8u * 16u);
}

TEST(QuantizedLinearTest, InputWidthChecked) {
  Rng rng(13);
  const QuantizedLinear q =
      QuantizedLinear::FromFloat(MakeLinear(rng, 8, 8));
  MatrixF bad(2, 4);
  GemmScratch scratch;
  MatrixF out;
  EXPECT_THROW(q.ForwardInto(bad, scratch, out), std::invalid_argument);
}

// The unchunked int8 datapath: one quantization of the whole input, one
// naive int32 triple loop over the unpacked codes, dequantize, then bias
// as a separate pass.
MatrixF ReferenceQuantizedForward(const QuantizedLinear& q, const MatrixF& x) {
  const QuantizedMatrix xq = Quantize(x, 8);
  const MatrixI8& w = q.weight.codes;
  MatrixF y(x.rows(), q.out_features());
  for (std::size_t i = 0; i < y.rows(); ++i) {
    for (std::size_t j = 0; j < y.cols(); ++j) {
      std::int32_t acc = 0;
      for (std::size_t p = 0; p < w.rows(); ++p) {
        acc += static_cast<std::int32_t>(xq.codes(i, p)) * w(p, j);
      }
      y(i, j) = static_cast<float>(acc) * (xq.scale * q.weight.scale);
    }
  }
  if (!q.bias.empty()) AddBiasInPlace(y, q.bias);
  return y;
}

TEST(QuantizedLinearTest, ChunkedForwardMatchesUnchunkedBitExactly) {
  Rng rng(16);
  // Odd input width: the packed GEMM's K-pair pad is in play.
  QuantizedLinear q = QuantizedLinear::FromFloat(MakeLinear(rng, 25, 20));
  constexpr std::size_t kChunk = QuantizedLinear::kRowChunk;
  GemmScratch scratch;
  MatrixF y;
  for (const bool with_bias : {true, false}) {
    if (!with_bias) q.bias.clear();
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, kChunk - 1, kChunk,
                          kChunk + 1, 2 * kChunk + 3}) {
      const MatrixF x = rng.NormalMatrix(n, 25, 0.0, 1.0);
      const MatrixF expected = ReferenceQuantizedForward(q, x);
      q.ForwardInto(x, scratch, y);
      EXPECT_EQ(y, expected) << "n=" << n << " bias=" << with_bias;
      // Again after a larger call on the same scratch: stale chunk
      // contents must not leak into the smaller one.
      const MatrixF big = rng.NormalMatrix(3 * kChunk + 5, 25, 0.0, 4.0);
      q.ForwardInto(big, scratch, y);
      EXPECT_EQ(y, ReferenceQuantizedForward(q, big));
      q.ForwardInto(x, scratch, y);
      EXPECT_EQ(y, expected) << "n=" << n << " after a larger call";
    }
  }
}

TEST(QuantizedLinearTest, BiasLengthChecked) {
  Rng rng(17);
  QuantizedLinear q = QuantizedLinear::FromFloat(MakeLinear(rng, 8, 6));
  q.bias.resize(5);
  GemmScratch scratch;
  MatrixF out;
  EXPECT_THROW(q.ForwardInto(MatrixF(2, 8), scratch, out),
               std::invalid_argument);
}

TEST(QuantizedEncoderTest, MatchesFloatEncoder) {
  Rng rng(14);
  EncoderConfig cfg;
  cfg.hidden = 64;
  cfg.heads = 4;
  const auto w = MakeEncoderWeights(rng, cfg);
  const auto qw = QuantizedEncoderWeights::FromFloat(w);
  const auto x = rng.NormalMatrix(24, 64, 0.0, 1.0);
  const auto yf = EncoderForward(x, w, cfg, DenseAttention);
  const auto yq = QuantizedEncoderForward(x, qw, cfg, DenseAttention);
  EXPECT_GT(MeanRowCosine(yq, yf), 0.995);
}

TEST(QuantizedEncoderTest, WorksWithSparseAttention) {
  Rng rng(15);
  EncoderConfig cfg;
  cfg.hidden = 64;
  cfg.heads = 4;
  const auto w = MakeEncoderWeights(rng, cfg);
  const auto qw = QuantizedEncoderWeights::FromFloat(w);
  const auto x = rng.NormalMatrix(32, 64, 0.0, 1.0);
  SparseAttentionConfig sa;
  sa.top_k = 32;  // degenerate-dense: isolates int8 error
  const auto yq =
      QuantizedEncoderForward(x, qw, cfg, MakeSparseAttentionFn(sa));
  const auto yf = EncoderForward(x, w, cfg, DenseAttention);
  EXPECT_GT(MeanRowCosine(yq, yf), 0.99);
}

// ---------------------------------------------------------- Replication --

std::vector<StageTimingModel> ThreeStageModels() {
  const auto ops =
      EncoderOps(BertBase().encoder, AttentionMode::kSparseTopK, 30);
  return BuildStageTimings(GroupByStageHint(ops), AlveoU280Slr0(), 177);
}

TEST(ReplicationTest, ReplicatedBottleneckSpeedsUp) {
  auto models = ThreeStageModels();
  // Make stage 1 the clear bottleneck by shrinking its DSP count, then
  // replicate it (each instance keeps the per-instance timing model).
  models[1].dsp = models[1].dsp / 4;
  std::vector<std::size_t> lens(12, 200);
  PipelineSimConfig base;
  base.layers = 4;
  PipelineSimConfig repl = base;
  repl.replication = {1, 4, 1};
  const auto a = SimulatePipeline(lens, models, base);
  const auto b = SimulatePipeline(lens, models, repl);
  EXPECT_LT(b.makespan, a.makespan * 0.5);
}

TEST(ReplicationTest, InstancesNeverOverlap) {
  auto models = ThreeStageModels();
  PipelineSimConfig cfg;
  cfg.layers = 3;
  cfg.replication = {2, 3, 1};
  std::vector<std::size_t> lens = {300, 250, 200, 150, 100, 90};
  const auto res = SimulatePipeline(lens, models, cfg);
  // Group jobs by (stage, instance): within a group, no time overlap.
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::size_t inst = 0; inst < 3; ++inst) {
      double prev_end = -1;
      for (const auto& j : res.jobs) {
        if (j.stage != s || j.instance != inst) continue;
        EXPECT_GE(j.start, prev_end - 1e-12);
        prev_end = j.end;
      }
    }
  }
}

TEST(ReplicationTest, RoundRobinAssignment) {
  auto models = ThreeStageModels();
  PipelineSimConfig cfg;
  cfg.layers = 1;
  cfg.replication = {2, 1, 1};
  std::vector<std::size_t> lens = {100, 100, 100, 100};
  const auto res = SimulatePipeline(lens, models, cfg);
  std::vector<std::size_t> stage0_instances;
  for (const auto& j : res.jobs) {
    if (j.stage == 0) stage0_instances.push_back(j.instance);
  }
  EXPECT_EQ(stage0_instances,
            (std::vector<std::size_t>{0, 1, 0, 1}));
}

TEST(ReplicationTest, SizeMismatchRejected) {
  auto models = ThreeStageModels();
  PipelineSimConfig cfg;
  cfg.replication = {1, 2};  // 2 entries for 3 stages
  EXPECT_THROW(SimulatePipeline({10}, models, cfg), std::invalid_argument);
}

TEST(ReplicationTest, UtilizationAccountsForInstances) {
  auto models = ThreeStageModels();
  PipelineSimConfig cfg;
  cfg.layers = 6;
  cfg.replication = {1, 2, 1};
  std::vector<std::size_t> lens(10, 150);
  const auto res = SimulatePipeline(lens, models, cfg);
  for (double u : res.StageUtilization()) {
    EXPECT_LE(u, 1.0 + 1e-9);
  }
}

// ----------------------------------------------- RestrictToAttention -----

TEST(RestrictToAttentionTest, KeepsResourcesDropsNonAttentionWork) {
  const auto ops =
      EncoderOps(BertBase().encoder, AttentionMode::kSparseTopK, 30);
  const auto groups = GroupByStageHint(ops);
  const auto full = BuildStageTimings(groups, AlveoU280Slr0(), 177);
  const auto attn = RestrictToAttention(groups, full);
  // Stage 3 (FdFwd) has no attention operators and is dropped.
  EXPECT_EQ(attn.size(), 2u);
  // Resource shares are inherited from the full design.
  EXPECT_DOUBLE_EQ(attn[0].dsp, full[0].dsp);
  EXPECT_DOUBLE_EQ(attn[1].dsp, full[1].dsp);
  // Attention work is a strict subset.
  EXPECT_LT(attn[0].flops.Eval(177), full[0].flops.Eval(177));
}

TEST(RestrictToAttentionTest, SizeMismatchRejected) {
  const auto ops =
      EncoderOps(BertBase().encoder, AttentionMode::kSparseTopK, 30);
  const auto groups = GroupByStageHint(ops);
  const auto full = BuildStageTimings(groups, AlveoU280Slr0(), 177);
  std::vector<std::vector<OpSpec>> wrong(groups.begin(), groups.end() - 1);
  EXPECT_THROW(RestrictToAttention(wrong, full), std::invalid_argument);
}

}  // namespace
}  // namespace latte
