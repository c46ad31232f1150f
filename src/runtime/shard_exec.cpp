#include "runtime/shard_exec.hpp"

#include <stdexcept>
#include <string>

#include "tensor/matmul.hpp"

namespace latte {

ShardExecutor::ShardExecutor(std::size_t shards, std::size_t threads)
    : pool_(threads == 0 ? shards : threads), shard_ws_(shards) {
  if (shards == 0) {
    throw std::invalid_argument("ShardExecutor: shards must be >= 1");
  }
}

void ShardExecutor::SetTracer(obs::Tracer* tracer, std::uint32_t track_base,
                              std::string_view label_prefix) {
  tracer_ = tracer;
  track_base_ = track_base;
  if (tracer_ == nullptr) return;
  for (std::size_t s = 0; s < shard_ws_.size(); ++s) {
    tracer_->RegisterTrack(track_base_ + static_cast<std::uint32_t>(s),
                           std::string(label_prefix) + "shard " +
                               std::to_string(s));
  }
}

void ShardExecutor::RunStage(
    const std::function<void(std::size_t, Workspace&)>& fn) {
  // Each submitted closure holds one reference and the shard index, so it
  // fits std::function's local buffer and submitting does not allocate.
  const auto run = [this, &fn](std::size_t s) { fn(s, shard_ws_[s]); };
  for (std::size_t s = 0; s < shard_ws_.size(); ++s) {
    pool_.Submit([&run, s] { run(s); });
  }
  pool_.Wait();
  if (tracer_ != nullptr) {
    // Recorded from the caller thread after the barrier: one span per
    // shard, stage k covering pseudo virtual time [k, k+1).  Nothing here
    // depends on which pool thread ran which shard.
    const double begin = static_cast<double>(stage_seq_);
    const double wall = tracer_->WallStamp();
    for (std::size_t s = 0; s < shard_ws_.size(); ++s) {
      obs::TraceEvent e;
      e.kind = obs::SpanKind::kStage;
      e.begin_s = begin;
      e.end_s = begin + 1.0;
      e.wall_s = wall;
      e.id = stage_seq_;
      e.arg = static_cast<std::int64_t>(s);
      e.track = track_base_ + static_cast<std::uint32_t>(s);
      tracer_->Record(e);
    }
  }
  ++stage_seq_;
}

void ShardExecutor::ReducePartialsInto(std::size_t rows, std::size_t cols,
                                       MatrixF& out) {
  // Re-leasing at the shape the producing stage used is a no-op resize,
  // so the partials' values survive the lease.
  out = comm_.Float(shardslots::kPartialBase, rows, cols);
  for (std::size_t s = 1; s < shard_ws_.size(); ++s) {
    AddInto(out, comm_.Float(shardslots::kPartialBase + s, rows, cols), out);
  }
}

std::size_t ShardExecutor::CapacityBytes() const {
  std::size_t bytes = comm_.CapacityBytes();
  for (const auto& ws : shard_ws_) bytes += ws.CapacityBytes();
  return bytes;
}

}  // namespace latte
