// Tests for the batched execution runtime: ThreadPool task draining,
// Workspace buffer reuse, BatchRunner bit-exactness against the
// sequential path, token sharding and the multi-worker serving model.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "latte/latte.hpp"

namespace latte {
namespace {

// ---------------------------------------------------------- ThreadPool --

TEST(ThreadPoolTest, DrainsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> hits{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&hits] { hits.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(hits.load(), 100);
  EXPECT_EQ(pool.completed(), 100u);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossRounds) {
  ThreadPool pool(2);
  std::atomic<int> hits{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) pool.Submit([&hits] { hits.fetch_add(1); });
    pool.Wait();
    EXPECT_EQ(hits.load(), (round + 1) * 10);
  }
}

TEST(ThreadPoolTest, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;  // 0 -> hardware_concurrency, clamped to >= 1
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, RethrowsFirstTaskException) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The error is consumed: the pool keeps working afterwards.
  std::atomic<int> hits{0};
  pool.Submit([&hits] { hits.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(hits.load(), 1);
}

TEST(ThreadPoolTest, CountsEveryTaskErrorNotJustTheFirst) {
  ThreadPool pool(2);
  std::atomic<int> hits{0};
  for (int i = 0; i < 6; ++i) {
    if (i % 2 == 0) {
      pool.Submit([] { throw std::runtime_error("task failed"); });
    } else {
      pool.Submit([&hits] { hits.fetch_add(1); });
    }
  }
  // Wait rethrows one error, but every failing task was captured -- none
  // were silently swallowed -- and the healthy tasks all ran.
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  EXPECT_EQ(pool.task_errors(), 3u);
  EXPECT_EQ(hits.load(), 3);

  // The batch's errors are consumed by the rethrow; the cumulative
  // counter keeps the history and the pool stays usable.
  pool.Submit([&hits] { hits.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(hits.load(), 4);
  EXPECT_EQ(pool.task_errors(), 3u);
  pool.Submit([] { throw std::logic_error("later batch"); });
  EXPECT_THROW(pool.Wait(), std::logic_error);
  EXPECT_EQ(pool.task_errors(), 4u);
}

// ----------------------------------------------------------- Workspace --

TEST(WorkspaceTest, AttentionScratchIsReusedAcrossCalls) {
  Rng rng(11);
  AttentionWorkloadConfig wl;
  wl.head_dim = 32;
  const auto p = GenerateAttentionProblem(rng, 64, wl);
  SparseAttentionConfig cfg;
  cfg.top_k = 16;

  Workspace ws;
  const MatrixF first = SparseAttention(p.q, p.k, p.v, cfg, nullptr,
                                        ws.attention());
  const std::size_t bytes_after_first = ws.CapacityBytes();
  const float* scores_ptr = ws.attention().scores.exp_scores.data();

  // Same shapes again: the arena must serve the same buffers, not grow.
  const MatrixF second = SparseAttention(p.q, p.k, p.v, cfg, nullptr,
                                         ws.attention());
  EXPECT_EQ(ws.CapacityBytes(), bytes_after_first);
  EXPECT_EQ(ws.attention().scores.exp_scores.data(), scores_ptr);
  EXPECT_GE(ws.leases(), 4u);
  EXPECT_EQ(first, second);  // and the math is deterministic

  ws.Reset();
  EXPECT_EQ(ws.CapacityBytes(), 0u);
  EXPECT_EQ(ws.leases(), 0u);
}

TEST(WorkspaceTest, WorkspacePathMatchesAllocatingPath) {
  Rng rng(12);
  AttentionWorkloadConfig wl;
  wl.head_dim = 16;
  const auto p = GenerateAttentionProblem(rng, 48, wl);
  SparseAttentionConfig cfg;
  cfg.top_k = 12;

  // The allocating path: a fresh scratch for this one call.
  SparseAttentionStats plain_stats;
  AttentionScratch fresh;
  const MatrixF plain =
      SparseAttention(p.q, p.k, p.v, cfg, &plain_stats, fresh);

  Workspace ws;
  SparseAttentionStats ws_stats;
  const MatrixF scratched =
      SparseAttention(p.q, p.k, p.v, cfg, &ws_stats, ws.attention());

  EXPECT_EQ(plain, scratched);  // bit-identical, not approximately equal
  EXPECT_EQ(plain_stats.exact_macs, ws_stats.exact_macs);
  EXPECT_EQ(plain_stats.selected_per_row, ws_stats.selected_per_row);
}

TEST(WorkspaceTest, FloatSlotsGrowStickyAndStayDistinct) {
  Workspace ws;
  MatrixF& a = ws.Float(0, 4, 8);
  MatrixF& b = ws.Float(1, 2, 2);
  EXPECT_NE(&a, &b);
  a(0, 0) = 1.f;
  const float* a_ptr = a.flat().data();
  MatrixF& a2 = ws.Float(0, 3, 8);  // smaller: same allocation
  EXPECT_EQ(a2.flat().data(), a_ptr);
}

TEST(SparseAttentionStatsTest, SelectedPerRowReportsActualMean) {
  Rng rng(13);
  AttentionWorkloadConfig wl;
  wl.head_dim = 16;
  const auto p = GenerateAttentionProblem(rng, 32, wl);

  // valid_len smaller than n: every row can only select valid_len keys,
  // and top_k exceeds it, so the mean must equal valid_len.
  SparseAttentionConfig cfg;
  cfg.top_k = 40;
  cfg.valid_len = 20;
  SparseAttentionStats stats;
  AttentionScratch scratch;
  SparseAttention(p.q, p.k, p.v, cfg, &stats, scratch);
  std::size_t total = 0;
  for (std::size_t i = 0; i < stats.n; ++i) {
    total += scratch.select.Candidates(i).size();
  }
  EXPECT_EQ(stats.selected_per_row, total / stats.n);
  EXPECT_EQ(stats.selected_per_row, 20u);
}

// ---------------------------------------------------------- BatchRunner --

std::vector<MatrixF> SeededBatch(std::uint64_t seed, std::size_t count,
                                 std::size_t hidden) {
  Rng rng(seed);
  std::vector<MatrixF> xs;
  xs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t n = 8 + rng.NextIndex(40);  // variable lengths
    xs.push_back(MakeInputEmbedding(rng, n, hidden));
  }
  return xs;
}

TEST(BatchRunnerTest, RunVisitsEveryItemExactlyOnce) {
  BatchRunner runner(4);
  EXPECT_EQ(runner.workers(), 4u);
  std::vector<std::atomic<int>> visits(97);
  runner.Run(97, [&](std::size_t i, Workspace&) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  EXPECT_EQ(runner.items_completed(), 97u);
}

TEST(BatchRunnerTest, PropagatesItemException) {
  BatchRunner runner(2);
  EXPECT_THROW(runner.Run(8,
                          [](std::size_t i, Workspace&) {
                            if (i == 5) throw std::invalid_argument("bad");
                          }),
               std::invalid_argument);
}

TEST(BatchRunnerTest, FailedItemCancelsRemainingWork) {
  BatchRunner runner(4);
  std::atomic<int> executed{0};
  const std::size_t items = 256;
  EXPECT_THROW(
      runner.Run(items,
                 [&executed](std::size_t i, Workspace&) {
                   if (i == 0) throw std::runtime_error("poison item");
                   std::this_thread::sleep_for(std::chrono::milliseconds(1));
                   executed.fetch_add(1);
                 }),
      std::runtime_error);
  // The abort flag stops the other slots from draining the whole batch;
  // only items already in flight when item 0 threw may finish.
  EXPECT_LT(executed.load(), static_cast<int>(items) / 2);
}

TEST(BatchRunnerTest, ModelBatchMatchesSequentialBitExactly) {
  const ModelConfig small = ScaledDown(BertBase(), 6);
  const ModelInstance model(small, 2022);
  InferenceConfig inf;
  inf.mode = InferenceMode::kSparseInt8;
  inf.sparse.top_k = 16;

  const auto xs = SeededBatch(7, 12, small.encoder.hidden);

  // Sequential reference.
  std::vector<MatrixF> expected;
  std::vector<std::vector<LayerRunStats>> expected_stats;
  for (const auto& x : xs) {
    std::vector<LayerRunStats> s;
    expected.push_back(model.Forward(x, inf, &s));
    expected_stats.push_back(std::move(s));
  }

  // Parallel, workspace-backed.
  BatchRunner runner(4);
  std::vector<std::vector<LayerRunStats>> stats;
  const auto got = model.ForwardBatch(xs, inf, runner, &stats);

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "sequence " << i;
    ASSERT_EQ(stats[i].size(), expected_stats[i].size());
    for (std::size_t l = 0; l < stats[i].size(); ++l) {
      EXPECT_EQ(stats[i][l].exact_macs, expected_stats[i][l].exact_macs);
      EXPECT_EQ(stats[i][l].lut_multiplies,
                expected_stats[i][l].lut_multiplies);
    }
  }
}

TEST(BatchRunnerTest, EncoderBatchMatchesSequentialBitExactly) {
  Rng rng(5);
  EncoderConfig cfg;
  cfg.hidden = 64;
  cfg.heads = 2;
  const auto w = MakeEncoderWeights(rng, cfg);
  const auto xs = SeededBatch(9, 10, cfg.hidden);

  SparseAttentionConfig sa;
  sa.top_k = 8;
  std::vector<MatrixF> expected;
  for (const auto& x : xs) {
    expected.push_back(EncoderForward(x, w, cfg, MakeSparseAttentionFn(sa)));
  }

  BatchRunner runner(3);
  std::vector<MatrixF> got(xs.size());
  runner.Run(xs.size(), [&](std::size_t i, Workspace& ws) {
    const AttentionFn attn = [&](const MatrixF& q, const MatrixF& k,
                                 const MatrixF& v) {
      return SparseAttention(q, k, v, sa, nullptr, ws.attention());
    };
    got[i] = EncoderForwardWorkspace(xs[i], w, cfg, attn, ws);
  });
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "sequence " << i;
  }
}

TEST(BatchRunnerTest, RunShardedMatchesSequentialAndVisitsAll) {
  const ModelConfig small = ScaledDown(BertBase(), 6);
  const ModelInstance model(small, 17);
  InferenceConfig inf;
  inf.mode = InferenceMode::kSparseFloat;
  inf.sparse.top_k = 8;
  const auto xs = SeededBatch(31, 9, small.encoder.hidden);
  std::vector<std::size_t> lengths;
  for (const auto& x : xs) lengths.push_back(x.rows());

  BatchRunner runner(4);
  std::vector<MatrixF> got(xs.size());
  runner.RunSharded(lengths, [&](std::size_t i, Workspace& ws) {
    got[i] = model.Forward(xs[i], inf, nullptr, &ws.attention());
  });
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(got[i], model.Forward(xs[i], inf)) << "sequence " << i;
  }
  EXPECT_EQ(runner.items_completed(), xs.size());
}

TEST(BatchRunnerTest, AllocatingDenseAttentionMatchesSequential) {
  Rng rng(6);
  EncoderConfig cfg;
  cfg.hidden = 64;
  cfg.heads = 2;
  const auto w = MakeEncoderWeights(rng, cfg);
  const auto xs = SeededBatch(15, 6, cfg.hidden);

  BatchRunner runner(2);
  std::vector<MatrixF> got(xs.size());
  runner.Run(xs.size(), [&](std::size_t i, Workspace& ws) {
    got[i] = EncoderForwardWorkspace(xs[i], w, cfg, DenseAttention, ws);
  });
  ASSERT_EQ(got.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(got[i], EncoderForward(xs[i], w, cfg, DenseAttention))
        << "sequence " << i;
  }
}

TEST(BatchRunnerTest, WorkspaceDenseAttentionMatchesSequential) {
  // The workspace-leasing dense attention must be bit-identical to both
  // the allocating one and the sequential reference, while the per-slot
  // arenas (scores slot + GEMM pack buffer) absorb the scratch.
  Rng rng(7);
  EncoderConfig cfg;
  cfg.hidden = 64;
  cfg.heads = 2;
  const auto w = MakeEncoderWeights(rng, cfg);
  const auto xs = SeededBatch(15, 6, cfg.hidden);

  BatchRunner runner(2);
  const WorkspaceAttentionFn dense = DenseAttentionWorkspace;
  std::vector<MatrixF> got(xs.size());
  runner.Run(xs.size(), [&](std::size_t i, Workspace& ws) {
    const AttentionFn attn = [&](const MatrixF& q, const MatrixF& k,
                                 const MatrixF& v) {
      return dense(q, k, v, ws);
    };
    got[i] = EncoderForwardWorkspace(xs[i], w, cfg, attn, ws);
  });
  ASSERT_EQ(got.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(got[i], EncoderForward(xs[i], w, cfg, DenseAttention))
        << "sequence " << i;
  }
  EXPECT_GT(runner.workspace(0).CapacityBytes(), 0u);
}

TEST(BatchRunnerTest, SingleWorkerRunnerStillWorks) {
  const ModelConfig small = ScaledDown(BertBase(), 6);
  const ModelInstance model(small, 3);
  InferenceConfig inf;
  inf.mode = InferenceMode::kSparseFloat;
  inf.sparse.top_k = 8;
  const auto xs = SeededBatch(21, 4, small.encoder.hidden);

  BatchRunner runner(1);
  const auto got = model.ForwardBatch(xs, inf, runner);
  ASSERT_EQ(got.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(got[i], model.Forward(xs[i], inf));
  }
}

// ------------------------------------------------------- ModelInstance --

constexpr InferenceMode kAllModes[] = {
    InferenceMode::kDenseFloat, InferenceMode::kSparseFloat,
    InferenceMode::kDenseInt8, InferenceMode::kSparseInt8};

// FNV-1a over the shape and the float bit patterns: any changed bit of the
// output changes the hash.
std::uint64_t BitHash(const MatrixF& m) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint32_t>(m.rows()));
  mix(static_cast<std::uint32_t>(m.cols()));
  for (float f : m.flat()) mix(std::bit_cast<std::uint32_t>(f));
  return h;
}

TEST(ModelInstanceTest, ForwardMatchesGoldenBitsInEveryMode) {
#if !defined(__x86_64__) || defined(__FMA__)
  // The hashes pin the x86-64 baseline ISA with the portable kernels; an
  // FMA target contracts multiply-adds and legitimately rounds otherwise.
  GTEST_SKIP() << "golden bits recorded for x86-64 without FMA";
#endif
  const ModelConfig small = ScaledDown(BertBase(), 6);
  const ModelInstance model(small, 2024);
  Rng rng(77);
  const MatrixF x = rng.NormalMatrix(40, small.encoder.hidden, 0.0, 1.0);
  const std::uint64_t golden[] = {0xe576595b8c78f2baull, 0x9e30cca21be013efull,
                                  0x99a621a9e135b58bull, 0xc7d252e99b17bb5bull};
  for (std::size_t i = 0; i < std::size(kAllModes); ++i) {
    InferenceConfig inf;
    inf.mode = kAllModes[i];
    inf.sparse.top_k = 8;
    EXPECT_EQ(BitHash(model.Forward(x, inf)), golden[i]) << "mode " << i;
  }
}

TEST(ModelInstanceTest, WorkspaceForwardMatchesCallLocalAcrossLengths) {
  // One Workspace serves long -> short -> long sequences: its slots shrink
  // and regrow, and no stale contents may leak into any output.
  const ModelConfig small = ScaledDown(BertBase(), 6);
  const ModelInstance model(small, 41);
  Rng rng(42);
  std::vector<MatrixF> xs;
  for (std::size_t n : {96u, 7u, 33u, 96u, 130u}) {
    xs.push_back(MakeInputEmbedding(rng, n, small.encoder.hidden));
  }
  for (InferenceMode mode : kAllModes) {
    InferenceConfig inf;
    inf.mode = mode;
    inf.sparse.top_k = 8;
    Workspace ws;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      std::vector<LayerRunStats> with_ws, without_ws;
      const MatrixF a = model.Forward(xs[i], inf, &with_ws, nullptr, &ws);
      const MatrixF b = model.Forward(xs[i], inf, &without_ws);
      EXPECT_EQ(a, b) << "mode " << static_cast<int>(mode) << " seq " << i;
      ASSERT_EQ(with_ws.size(), without_ws.size());
      for (std::size_t l = 0; l < with_ws.size(); ++l) {
        EXPECT_EQ(with_ws[l].exact_macs, without_ws[l].exact_macs);
        EXPECT_EQ(with_ws[l].lut_multiplies, without_ws[l].lut_multiplies);
      }
    }
  }
}

TEST(ModelInstanceTest, WorkspaceStopsGrowingAtSteadyShapes) {
  // fp32 and int8 layers alike lease every intermediate from the arena:
  // after one forward at a shape, repeats reuse it without growing.
  const ModelConfig small = ScaledDown(BertBase(), 6);
  const ModelInstance model(small, 43);
  Rng rng(44);
  const MatrixF x = MakeInputEmbedding(rng, 70, small.encoder.hidden);
  for (InferenceMode mode : kAllModes) {
    InferenceConfig inf;
    inf.mode = mode;
    inf.sparse.top_k = 8;
    Workspace ws;
    const MatrixF first = model.Forward(x, inf, nullptr, nullptr, &ws);
    const std::size_t bytes = ws.CapacityBytes();
    const std::size_t leases = ws.leases();
    EXPECT_GT(bytes, 0u);
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(model.Forward(x, inf, nullptr, nullptr, &ws), first);
      EXPECT_EQ(ws.CapacityBytes(), bytes)
          << "mode " << static_cast<int>(mode) << " repeat " << r;
    }
    EXPECT_GT(ws.leases(), leases);
  }
}

// -------------------------------------------------------- ShardByTokens --

TEST(ShardByTokensTest, PartitionsEveryIndexOnceAndBalances) {
  const std::vector<std::size_t> lengths = {400, 30, 350, 60, 90,
                                            300, 20, 250, 120, 80};
  const auto shards = ShardByTokens(lengths, 4);
  ASSERT_EQ(shards.size(), 4u);

  std::vector<int> seen(lengths.size(), 0);
  std::vector<std::size_t> tokens;
  for (const auto& shard : shards) {
    std::size_t t = 0;
    for (std::size_t idx : shard) {
      ASSERT_LT(idx, lengths.size());
      ++seen[idx];
      t += lengths[idx];
    }
    tokens.push_back(t);
  }
  for (int s : seen) EXPECT_EQ(s, 1);

  const std::size_t total =
      std::accumulate(lengths.begin(), lengths.end(), std::size_t{0});
  const std::size_t max_shard =
      *std::max_element(tokens.begin(), tokens.end());
  const std::size_t max_len =
      *std::max_element(lengths.begin(), lengths.end());
  // LPT guarantee: makespan <= 4/3 * OPT, with OPT >= max(total/m, max_len).
  const double opt_lower =
      std::max(static_cast<double>(total) / 4.0, static_cast<double>(max_len));
  EXPECT_LE(static_cast<double>(max_shard), 4.0 / 3.0 * opt_lower + 1e-9);
}

TEST(ShardByTokensTest, RejectsZeroWorkersHandlesSmallBatches) {
  EXPECT_THROW(ShardByTokens({10, 20}, 0), std::invalid_argument);
  const auto shards = ShardByTokens({10, 20}, 5);
  ASSERT_EQ(shards.size(), 5u);
  std::size_t nonempty = 0;
  for (const auto& s : shards) nonempty += s.empty() ? 0 : 1;
  EXPECT_EQ(nonempty, 2u);
}

// ------------------------------------------------------- Serving config --

TEST(ServingValidationTest, RejectsEachBadFieldWithClearMessage) {
  ServingConfig cfg;
  cfg.requests = 32;

  auto message_of = [](const ServingConfig& c) -> std::string {
    try {
      ThrowOnIssues("ServingConfig", CheckServingConfig(c));
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };

  ServingConfig bad = cfg;
  bad.arrival_rate_rps = 0;
  EXPECT_NE(message_of(bad).find("arrival_rate_rps"), std::string::npos);
  bad = cfg;
  bad.arrival_rate_rps = -3;
  EXPECT_NE(message_of(bad).find("arrival_rate_rps"), std::string::npos);
  bad = cfg;
  bad.former.max_batch = 0;
  EXPECT_NE(message_of(bad).find("former.max_batch"), std::string::npos);
  bad = cfg;
  bad.requests = 0;
  EXPECT_NE(message_of(bad).find("requests"), std::string::npos);
  bad = cfg;
  bad.workers = 0;
  EXPECT_NE(message_of(bad).find("workers"), std::string::npos);
  bad = cfg;
  bad.former.timeout_s = -0.1;
  EXPECT_NE(message_of(bad).find("former.timeout_s"), std::string::npos);
  // NaN must not slip through a `<= 0` comparison.
  bad = cfg;
  bad.arrival_rate_rps = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(message_of(bad).find("arrival_rate_rps"), std::string::npos);
  bad = cfg;
  bad.former.timeout_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(message_of(bad).find("former.timeout_s"), std::string::npos);

  EXPECT_TRUE(CheckServingConfig(cfg).empty());
}

TEST(ServingValidationTest, SimulateServingValidates) {
  ServingConfig cfg;
  cfg.requests = 0;
  EXPECT_THROW(SimulateServing(BertBase(), Mrpc(), cfg),
               std::invalid_argument);
}

TEST(ServingWorkersTest, MoreWorkersDoNotHurtSaturatedThroughput) {
  ServingConfig cfg;
  cfg.arrival_rate_rps = 5000;  // deeply saturated: queueing dominates
  cfg.requests = 64;
  cfg.former.max_batch = 8;

  ServingConfig two = cfg;
  two.workers = 2;
  const auto one_rep = SimulateServing(BertBase(), Mrpc(), cfg);
  const auto two_rep = SimulateServing(BertBase(), Mrpc(), two);

  EXPECT_GT(two_rep.throughput_rps, one_rep.throughput_rps * 1.5);
  EXPECT_LT(two_rep.p99_latency_s, one_rep.p99_latency_s);
  EXPECT_LE(two_rep.device_busy_frac, 1.0 + 1e-9);
}

}  // namespace
}  // namespace latte
