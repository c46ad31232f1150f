// Heap-allocation budgets of the inference hot paths.
//
// This executable replaces the global operator new with a counting one and
// asserts how many allocations the third of three identical calls makes,
// once every Workspace buffer has reached its steady-state capacity.  What
// is left is the per-call work the layer cannot lease: per-head splits and
// returned contexts and outputs.  The sparse operator keeps its selection
// in the Workspace, so sparse and dense layers allocate alike.
//
// Budgets only ratchet down.  Each one is the count measured when it was
// set; a change that needs a larger number has grown the hot path's
// allocations and should be fixed, not accommodated.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "latte/latte.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace latte {
namespace {

// Allocations made by the third of three calls of `call`.
template <class F>
std::size_t SteadyStateAllocations(const F& call) {
  call();
  call();
  const std::size_t before = g_allocations.load();
  call();
  return g_allocations.load() - before;
}

// Prints the measured count beside its budget, then checks it.
void ExpectWithinBudget(const std::string& what, std::size_t allocations,
                        std::size_t budget) {
  std::printf("[ budget   ] %s: %zu allocations (budget %zu)\n", what.c_str(),
              allocations, budget);
  EXPECT_LE(allocations, budget) << what;
}

struct LayerFixture {
  EncoderConfig cfg;
  EncoderWeights w;
  QuantizedEncoderWeights qw;
  MatrixF x;

  LayerFixture() {
    cfg.hidden = 128;
    cfg.heads = 2;
    cfg.ffn_dim = 512;
    Rng rng(5);
    w = MakeEncoderWeights(rng, cfg);
    qw = QuantizedEncoderWeights::FromFloat(w);
    x = MakeInputEmbedding(rng, 96, cfg.hidden);
  }
};

TEST(AllocationBudgetTest, CounterSeesHeapAllocations) {
  EXPECT_EQ(SteadyStateAllocations([] { (void)MatrixF(3, 4); }), 1u);
}

TEST(AllocationBudgetTest, QuantizedLinearForward) {
  const LayerFixture f;
  GemmScratch scratch;
  MatrixF out;
  // 96 rows stream through a full and a partial int8 row chunk; the int16
  // activation rows and int32 accumulators live in the scratch.
  ExpectWithinBudget("int8 projection (FFN1)", SteadyStateAllocations([&] {
                       f.qw.ffn1.ForwardInto(f.x, scratch, out);
                     }),
                     0);
}

TEST(AllocationBudgetTest, UnshardedEncoderLayer) {
  const LayerFixture f;
  Workspace ws;
  const AttentionFn dense = [&ws](const MatrixF& q, const MatrixF& k,
                                  const MatrixF& v) {
    return DenseAttentionWorkspace(q, k, v, ws);
  };
  SparseAttentionConfig scfg;
  scfg.top_k = 8;
  const AttentionFn sparse = [&ws, &scfg](const MatrixF& q, const MatrixF& k,
                                          const MatrixF& v) {
    return SparseAttention(q, k, v, scfg, nullptr, ws.attention());
  };

  const auto layer = [&](const auto& weights, const AttentionFn& attn) {
    return SteadyStateAllocations([&] {
      (void)EncoderForwardWorkspace(f.x, weights, f.cfg, attn, ws);
    });
  };
  ExpectWithinBudget("fp32 dense layer", layer(f.w, dense), 12);
  ExpectWithinBudget("int8 dense layer", layer(f.qw, dense), 12);
  ExpectWithinBudget("fp32 sparse layer (top_k 8)", layer(f.w, sparse), 12);
  scfg.bits = 4;
  ExpectWithinBudget("fp32 sparse layer (top_k 8, 4-bit)",
                     layer(f.w, sparse), 12);
}

TEST(AllocationBudgetTest, ShardedEncoderLayer) {
  const LayerFixture f;
  ShardExecutor exec(2, 1);  // two shards time-sliced on one worker
  for (const bool row_parallel : {false, true}) {
    ShardPlanConfig plan_cfg;
    plan_cfg.shards = 2;
    plan_cfg.row_parallel_ffn2 = row_parallel;
    const ShardPlan plan = MakeShardPlan(f.cfg, plan_cfg);
    ExpectWithinBudget(
        row_parallel ? "sharded layer, row-parallel FFN2"
                     : "sharded layer, column plan",
        SteadyStateAllocations([&] {
          (void)ShardedEncoderForward(f.x, f.w, f.cfg, plan,
                                      DenseAttentionWorkspace, exec);
        }),
        row_parallel ? 16 : 15);
  }
}

TEST(AllocationBudgetTest, ModelForwardOnCallerWorkspace) {
  const ModelInstance model(ScaledDown(BertBase(), 6), 2024);
  Rng rng(9);
  const MatrixF x = MakeInputEmbedding(rng, 96, model.config().encoder.hidden);
  Workspace ws;
  InferenceConfig inf;
  inf.sparse.top_k = 8;
  for (const auto mode :
       {InferenceMode::kDenseFloat, InferenceMode::kSparseFloat,
        InferenceMode::kDenseInt8, InferenceMode::kSparseInt8}) {
    inf.mode = mode;
    ExpectWithinBudget("model forward, mode " +
                           std::to_string(static_cast<int>(mode)),
                       SteadyStateAllocations([&] {
                         (void)model.Forward(x, inf, nullptr, nullptr, &ws);
                       }),
                       26);
  }
}

}  // namespace
}  // namespace latte
