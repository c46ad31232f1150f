#pragma once
// Gang executor for tensor-parallel encoder shards.
//
// One ShardExecutor owns what a gang of N shards needs to run a sharded
// forward pass with zero steady-state allocations: a ThreadPool, one
// private Workspace per shard (GEMM pack buffers, per-shard activation
// slices) and one shared "communication" Workspace whose Float slots
// stand in for the interconnect: shards write their slices into disjoint
// column ranges of a comm matrix (the all-gather/concat), and row-
// parallel partial sums land in per-shard comm slots that the caller
// reduces in a fixed order.  Everything is byte-accounted: CapacityBytes
// sums every arena, like GemmScratch, so benches can assert the gang
// stops allocating at steady-state shapes.
//
// Concurrency contract: a stage runs one task per shard and barriers on
// ThreadPool::Wait(), which rethrows the first task exception (all are
// counted; see thread_pool.hpp).  Within a stage, shards may read any
// comm matrix leased before the stage and write only ranges they own, so
// stage output is independent of thread count and scheduling order --
// the sharded encoder's bit-exactness and byte-determinism rest on this.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/workspace.hpp"
#include "tensor/matrix.hpp"

namespace latte {

/// Float-slot assignments in the communication Workspace of a
/// ShardExecutor.  The gathered activations alias the encoder's wslots
/// plan, so the sharded layer reuses comm slots exactly where the
/// unsharded one reuses its own: the context is dead once Wo has run, so
/// the FFN2 output takes its slot.  kPartialBase + s holds shard s's
/// row-parallel FFN2 partial sum.
namespace shardslots {
inline constexpr std::size_t kCtx = wslots::kEncoderQ;     ///< context
inline constexpr std::size_t kAttnOut = wslots::kEncoderK; ///< Wo outputs
inline constexpr std::size_t kX1 = wslots::kEncoderV;      ///< post-LN1
inline constexpr std::size_t kFfn = wslots::kEncoderFfn;   ///< GELU output
inline constexpr std::size_t kFfnOut = wslots::kEncoderQ;  ///< FFN2 output
inline constexpr std::size_t kPartialBase = 8;  ///< + shard index
}  // namespace shardslots

/// Owns the pool and scratch arenas of one tensor-parallel gang.
class ShardExecutor {
 public:
  /// A gang of `shards` shards on `threads` pool workers; threads == 0
  /// means one worker per shard.  Results never depend on the thread
  /// count -- fewer workers than shards just serializes stage tasks.
  /// Throws std::invalid_argument when shards == 0.
  explicit ShardExecutor(std::size_t shards, std::size_t threads = 0);

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  std::size_t shards() const { return shard_ws_.size(); }

  /// Shard s's private arena (valid for the executor's lifetime).
  Workspace& shard_ws(std::size_t s) { return shard_ws_.at(s); }

  /// The shared communication arena.  Lease comm slots only between
  /// stages (from the caller thread): Workspace is not internally
  /// synchronized, so resizing during a stage would race with readers.
  Workspace& comm() { return comm_; }

  /// Runs `fn(shard, shard_ws(shard))` once per shard and barriers until
  /// all complete; rethrows the first task exception.
  void RunStage(const std::function<void(std::size_t, Workspace&)>& fn);

  /// Attaches a tracer (not owned; pass nullptr to detach).  Every
  /// subsequent stage records one kStage span per shard on track
  /// `track_base + shard`, in a pseudo virtual time where stage k covers
  /// [k, k+1).  Spans are recorded from the caller thread after the stage
  /// barrier, so the trace is byte-identical at any pool thread count.
  void SetTracer(obs::Tracer* tracer, std::uint32_t track_base = 0,
                 std::string_view label_prefix = {});

  /// Stages executed since construction (the kStage pseudo-clock).
  std::uint64_t stages_run() const { return stage_seq_; }

  /// Fixed-order reduction of the row-parallel partials: copies comm slot
  /// kPartialBase + 0 into `out` and adds slots kPartialBase + 1 ... in
  /// ascending shard order.  The order never varies, so reduced results
  /// are deterministic (and byte-stable across thread counts) even though
  /// float addition is not associative.  Every partial must already hold
  /// a (rows x cols) matrix from the producing stage.
  void ReducePartialsInto(std::size_t rows, std::size_t cols, MatrixF& out);

  /// Total bytes held across every arena of the gang (per-shard
  /// workspaces plus the comm workspace) -- the sharded analogue of
  /// GemmScratch::CapacityBytes.
  std::size_t CapacityBytes() const;

 private:
  ThreadPool pool_;
  std::vector<Workspace> shard_ws_;
  Workspace comm_;
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t track_base_ = 0;
  std::uint64_t stage_seq_ = 0;
};

}  // namespace latte
