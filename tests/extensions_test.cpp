// Tests for the extended system features: padding masks in the sparse
// path, the structural At-Sel unit, Q-format fixed point, the multi-layer
// inference engine, the serving simulator and schedule export.

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

#include "core/atsel_unit.hpp"
#include "fpga/serving.hpp"
#include "fpga/trace.hpp"
#include "model/inference.hpp"
#include "runtime/workspace.hpp"
#include "tensor/fixed_point.hpp"
#include "tensor/matmul.hpp"
#include "workload/synthetic.hpp"

namespace latte {
namespace {

AttentionProblem Problem(std::uint64_t seed, std::size_t n,
                         std::size_t d = 32) {
  Rng rng(seed);
  AttentionWorkloadConfig cfg;
  cfg.head_dim = d;
  return GenerateAttentionProblem(rng, n, cfg);
}

// ---------------------------------------------------------- padding mask --

TEST(MaskedSparseTest, NeverSelectsPaddingKeys) {
  const auto p = Problem(1, 64);
  SparseAttentionConfig cfg;
  cfg.top_k = 16;
  cfg.valid_len = 40;
  SparseAttentionStats stats;
  AttentionScratch scratch;
  SparseAttention(p.q, p.k, p.v, cfg, &stats, scratch);
  for (std::size_t i = 0; i < stats.n; ++i) {
    for (auto j : scratch.select.Candidates(i)) EXPECT_LT(j, 40u);
  }
  EXPECT_EQ(stats.selected_per_row, 16u);
}

TEST(MaskedSparseTest, EqualsMaskedDenseWhenKCoversValid) {
  const auto p = Problem(2, 48);
  SparseAttentionConfig cfg;
  cfg.top_k = 20;
  cfg.valid_len = 20;  // k covers every valid key
  const auto sparse = MakeSparseAttentionFn(cfg)(p.q, p.k, p.v);
  Workspace ws;
  const auto dense = DenseAttentionMaskedWorkspace(p.q, p.k, p.v, 20, ws);
  for (std::size_t i = 0; i < sparse.size(); ++i) {
    EXPECT_NEAR(sparse.flat()[i], dense.flat()[i], 2e-3f);
  }
}

TEST(MaskedSparseTest, ValidLenBeyondNIsAllValid) {
  const auto p = Problem(3, 16);
  SparseAttentionConfig cfg;
  cfg.top_k = 16;
  cfg.valid_len = 999;
  const auto a = MakeSparseAttentionFn(cfg)(p.q, p.k, p.v);
  cfg.valid_len = 0;
  const auto b = MakeSparseAttentionFn(cfg)(p.q, p.k, p.v);
  EXPECT_EQ(a, b);
}

TEST(MaskedDenseTest, PaddingGetsZeroWeight) {
  // With only the first key valid, the output must equal V row 0.
  const auto p = Problem(4, 8);
  Workspace ws;
  const auto out = DenseAttentionMaskedWorkspace(p.q, p.k, p.v, 1, ws);
  for (std::size_t i = 0; i < out.rows(); ++i) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      EXPECT_NEAR(out(i, c), p.v(0, c), 1e-5f);
    }
  }
}

// ------------------------------------------------------------ AtSelUnit --

TEST(AtSelUnitTest, AgreesWithBehaviouralSelector) {
  const auto p = Problem(5, 96);
  SelectorConfig cfg;
  cfg.top_k = 12;
  for (int bits : {1, 4}) {
    cfg.bits = bits;
    const AtSelUnit unit(cfg);
    const auto structural = unit.Run(p.q, p.k);
    const auto behavioural = SelectCandidates(p.q, p.k, cfg);
    ASSERT_EQ(structural.candidates.size(), behavioural.candidates.size());
    for (std::size_t i = 0; i < structural.candidates.size(); ++i) {
      EXPECT_EQ(structural.candidates[i], behavioural.candidates[i]);
      EXPECT_EQ(structural.approx_scores[i], behavioural.approx_scores[i]);
    }
  }
}

TEST(AtSelUnitTest, CycleAccounting) {
  const auto p = Problem(6, 32, 64);
  SelectorConfig cfg;
  cfg.top_k = 8;
  const AtSelUnit unit(cfg, /*lut_lanes=*/64);
  AtSelUnitStats stats;
  unit.Run(p.q, p.k, &stats);
  EXPECT_EQ(stats.quantize_cycles, 2u * 32u * 64u);
  EXPECT_EQ(stats.score_cycles, 32u * 32u);  // one dot/cycle at 64 lanes
  // Sorter: n pushes + k drain per row.
  EXPECT_EQ(stats.sort_cycles, 32u * (32u + 8u));
  EXPECT_EQ(stats.compare_exchanges, 32u * 32u * 8u);
  EXPECT_GT(stats.TotalCycles(), 0u);
}

TEST(AtSelUnitTest, RejectsZeroLanes) {
  EXPECT_THROW(AtSelUnit(SelectorConfig{}, 0), std::invalid_argument);
}

// ------------------------------------------------------------ FixedPoint --

TEST(FixedPointTest, RoundTripWithinEpsilon) {
  for (float x : {0.f, 1.f, -1.f, 3.1415f, -2.7182f}) {
    EXPECT_NEAR(Fix16::FromFloat(x).ToFloat(), x, Fix16::Epsilon());
  }
}

TEST(FixedPointTest, SaturatesAtRange) {
  const auto big = Fix8::FromFloat(1000.f);
  EXPECT_TRUE(big.saturated());
  EXPECT_FLOAT_EQ(big.ToFloat(), Fix8::Max());
  const auto small = Fix8::FromFloat(-1000.f);
  EXPECT_TRUE(small.saturated());
  EXPECT_LT(small.ToFloat(), -Fix8::Max());  // min is -(max+eps)
}

TEST(FixedPointTest, ArithmeticMatchesFloat) {
  const auto a = Fix16::FromFloat(1.5f);
  const auto b = Fix16::FromFloat(-0.25f);
  EXPECT_NEAR((a + b).ToFloat(), 1.25f, Fix16::Epsilon());
  EXPECT_NEAR((a - b).ToFloat(), 1.75f, Fix16::Epsilon());
  EXPECT_NEAR((a * b).ToFloat(), -0.375f, 2 * Fix16::Epsilon());
  EXPECT_NEAR((-a).ToFloat(), -1.5f, Fix16::Epsilon());
}

TEST(FixedPointTest, AdditionSaturatesStickily) {
  auto acc = Fix8::FromFloat(Fix8::Max());
  const auto one = Fix8::FromFloat(1.f);
  const auto sum = acc + one;
  EXPECT_TRUE(sum.saturated());
  EXPECT_FLOAT_EQ(sum.ToFloat(), Fix8::Max());
}

TEST(FixedPointTest, ComparisonIgnoresSaturationFlag) {
  const auto a = Fix8::FromFloat(Fix8::Max());      // not saturated
  const auto b = Fix8::FromFloat(Fix8::Max() + 1);  // saturated to same raw
  EXPECT_EQ(a, b);
  EXPECT_LT(Fix8::FromFloat(0.f), a);
}

TEST(FixedPointTest, MacChainTracksFloat) {
  Rng rng(7);
  float ref = 0;
  auto acc = Fix24::FromFloat(0.f);
  for (int i = 0; i < 100; ++i) {
    const float x = static_cast<float>(rng.NextUniform(-1.0, 1.0));
    const float w = static_cast<float>(rng.NextUniform(-1.0, 1.0));
    ref += x * w;
    acc = acc + Fix24::FromFloat(x) * Fix24::FromFloat(w);
  }
  EXPECT_NEAR(acc.ToFloat(), ref, 100 * 2 * Fix24::Epsilon());
}

// ------------------------------------------------------- ModelInstance ---

ModelConfig TinyModel() {
  ModelConfig m = ScaledDown(BertBase(), 6);  // 2 layers, hidden 128
  return m;
}

TEST(ModelInstanceTest, ScaledDownShape) {
  const auto m = TinyModel();
  EXPECT_EQ(m.layers, 2u);
  EXPECT_EQ(m.encoder.head_dim(), 64u);  // head_dim preserved
  EXPECT_EQ(m.encoder.hidden % m.encoder.heads, 0u);
}

TEST(ModelInstanceTest, DeterministicForward) {
  const auto m = TinyModel();
  ModelInstance a(m, 42), b(m, 42);
  Rng rng(9);
  const auto x = MakeInputEmbedding(rng, 20, m.encoder.hidden);
  InferenceConfig inf;
  inf.mode = InferenceMode::kDenseFloat;
  EXPECT_EQ(a.Forward(x, inf), b.Forward(x, inf));
}

TEST(ModelInstanceTest, FourModesAgreeOnConcentratedInput) {
  const auto m = TinyModel();
  ModelInstance inst(m, 42);
  Rng rng(10);
  const auto x = MakeInputEmbedding(rng, 40, m.encoder.hidden);

  InferenceConfig dense_f;
  dense_f.mode = InferenceMode::kDenseFloat;
  const auto ref = inst.Forward(x, dense_f);

  InferenceConfig sparse_i8;
  sparse_i8.mode = InferenceMode::kSparseInt8;
  sparse_i8.sparse.top_k = 40;  // degenerate-dense isolates datapath error
  const auto hw = inst.Forward(x, sparse_i8);

  EXPECT_GT(MeanRowCosine(hw, ref), 0.98);
}

TEST(ModelInstanceTest, SparseStatsReported) {
  const auto m = TinyModel();
  ModelInstance inst(m, 1);
  Rng rng(11);
  const auto x = MakeInputEmbedding(rng, 30, m.encoder.hidden);
  InferenceConfig inf;
  inf.mode = InferenceMode::kSparseFloat;
  inf.sparse.top_k = 8;
  std::vector<LayerRunStats> stats;
  inst.Forward(x, inf, &stats);
  ASSERT_EQ(stats.size(), m.layers);
  for (const auto& s : stats) {
    // heads * n * k * d * 2 exact MACs per layer.
    EXPECT_EQ(s.exact_macs,
              m.encoder.heads * 30u * 8u * m.encoder.head_dim() * 2u);
    EXPECT_GT(s.lut_multiplies, 0u);
  }
}

TEST(ModelInstanceTest, DenseModesReportNoSparseWork) {
  const auto m = TinyModel();
  ModelInstance inst(m, 1);
  Rng rng(12);
  const auto x = MakeInputEmbedding(rng, 10, m.encoder.hidden);
  InferenceConfig inf;
  inf.mode = InferenceMode::kDenseInt8;
  std::vector<LayerRunStats> stats;
  inst.Forward(x, inf, &stats);
  for (const auto& s : stats) {
    EXPECT_EQ(s.exact_macs, 0u);
    EXPECT_EQ(s.lut_multiplies, 0u);
  }
}

TEST(ModelInstanceTest, ScaledDownRejectsZero) {
  EXPECT_THROW(ScaledDown(BertBase(), 0), std::invalid_argument);
}

// ------------------------------------------------------------- Serving ---

ServingConfig LightServing() {
  ServingConfig cfg;
  cfg.arrival_rate_rps = 40;
  cfg.former.max_batch = 8;
  cfg.requests = 96;
  cfg.former.timeout_s = 0.02;
  return cfg;
}

TEST(ServingTest, BasicAccounting) {
  const auto rep = SimulateServing(BertBase(), Mrpc(), LightServing());
  EXPECT_EQ(rep.requests, 96u);
  EXPECT_GT(rep.batches, 0u);
  EXPECT_GE(rep.mean_batch_size, 1.0);
  EXPECT_LE(rep.mean_batch_size, 8.0);
  EXPECT_GT(rep.mean_latency_s, 0.0);
  EXPECT_LE(rep.p50_latency_s, rep.p95_latency_s);
  EXPECT_LE(rep.p95_latency_s, rep.p99_latency_s);
  EXPECT_GT(rep.throughput_rps, 0.0);
  EXPECT_GE(rep.device_busy_frac, 0.0);
  EXPECT_LE(rep.device_busy_frac, 1.0 + 1e-9);
}

TEST(ServingTest, LengthAwareSustainsHigherLoadThanBaseline) {
  auto cfg = LightServing();
  cfg.arrival_rate_rps = 60;
  cfg.requests = 128;
  const auto aware = SimulateServing(BertBase(), Rte(), cfg);

  auto base_cfg = cfg;
  base_cfg.accel.mode = FpgaMode::kBaseline;
  base_cfg.accel.baseline_pad_to = static_cast<std::size_t>(Rte().max_len);
  const auto base = SimulateServing(BertBase(), Rte(), base_cfg);

  EXPECT_LT(aware.p95_latency_s, base.p95_latency_s);
  EXPECT_LE(aware.device_busy_frac, base.device_busy_frac + 1e-9);
}

TEST(ServingTest, HigherLoadRaisesTailLatency) {
  auto low = LightServing();
  low.arrival_rate_rps = 10;
  auto high = LightServing();
  high.arrival_rate_rps = 300;
  const auto a = SimulateServing(BertBase(), Mrpc(), low);
  const auto b = SimulateServing(BertBase(), Mrpc(), high);
  EXPECT_LE(a.p99_latency_s, b.p99_latency_s * 2.0);  // loose sanity
  EXPECT_GE(b.device_busy_frac, a.device_busy_frac - 0.05);
}

TEST(ServingTest, RejectsBadConfig) {
  auto cfg = LightServing();
  cfg.arrival_rate_rps = 0;
  EXPECT_THROW(SimulateServing(BertBase(), Mrpc(), cfg),
               std::invalid_argument);
  cfg = LightServing();
  cfg.former.max_batch = 0;
  EXPECT_THROW(SimulateServing(BertBase(), Mrpc(), cfg),
               std::invalid_argument);
}

// --------------------------------------------------------------- Trace ---

ScheduleResult SmallSchedule() {
  const auto ops =
      EncoderOps(BertBase().encoder, AttentionMode::kSparseTopK, 30);
  const auto models =
      BuildStageTimings(GroupByStageHint(ops), AlveoU280Slr0(), 100);
  PipelineSimConfig cfg;
  cfg.layers = 2;
  return SimulatePipeline({120, 100, 80}, models, cfg);
}

TEST(TraceTest, ChromeTraceContainsAllJobs) {
  const auto schedule = SmallSchedule();
  const std::string json = ToChromeTrace(schedule);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("MM|At-Sel"), std::string::npos);
  // One "X" event per job.
  std::size_t count = 0, pos = 0;
  while ((pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos) {
    ++count;
    pos += 1;
  }
  EXPECT_EQ(count, schedule.jobs.size());
}

TEST(TraceTest, CsvHasHeaderAndOneLinePerJob) {
  const auto schedule = SmallSchedule();
  const std::string csv = ToCsv(schedule);
  const auto lines =
      static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines, schedule.jobs.size() + 1);
  EXPECT_EQ(csv.rfind("seq,layer,stage,instance,start_s,end_s", 0), 0u);
}

TEST(TraceTest, WriteTextFileRoundTrip) {
  const std::string path = "trace_test_tmp.json";
  EXPECT_TRUE(WriteTextFile(path, "{}"));
  std::remove(path.c_str());
  EXPECT_FALSE(WriteTextFile("/nonexistent-dir/x/y.json", "{}"));
}

}  // namespace
}  // namespace latte
