#include "search/design_space.hpp"

#include <algorithm>
#include <string>

namespace latte::search {

namespace {

template <typename T>
bool Contains(const std::vector<T>& menu, const T& v) {
  return std::find(menu.begin(), menu.end(), v) != menu.end();
}

/// Uniform draw from a menu.
template <typename T>
const T& Pick(const std::vector<T>& menu, Rng& rng) {
  return menu[rng.NextIndex(menu.size())];
}

/// One step to a neighboring menu entry (reflecting at the ends so a
/// boundary value always moves when the menu has >= 2 entries).  A value
/// that fell off the menu re-enters with a uniform draw.
template <typename T>
T Neighbor(const std::vector<T>& menu, const T& value, Rng& rng) {
  const auto it = std::find(menu.begin(), menu.end(), value);
  if (it == menu.end()) return Pick(menu, rng);
  if (menu.size() < 2) return value;
  const std::size_t idx = static_cast<std::size_t>(it - menu.begin());
  const bool up = rng.NextIndex(2) == 1;
  std::size_t next;
  if (up) {
    next = idx + 1 < menu.size() ? idx + 1 : idx - 1;
  } else {
    next = idx > 0 ? idx - 1 : idx + 1;
  }
  return menu[next];
}

/// The inert gang config a replicated replica carries: smallest legal
/// degree on the space's fabric, so designs stay canonical (two designs
/// differing only in an unread shard block would be distinct JSON).
ShardServiceConfig CanonicalShard(const DesignSpace& space) {
  ShardServiceConfig shard;
  shard.degree = space.degree_menu.empty() ? 2 : space.degree_menu.front();
  shard.interconnect = space.interconnect;
  return shard;
}

/// Canonical store knobs for cache_mode == kNone.
ResultCacheConfig NoCache() { return ResultCacheConfig{}; }

/// Field-exact comparison of two adaptive blocks (CheckInSpace accepts
/// only the canonical ladder, so equality is the membership test).
bool SameAdaptive(const AdaptiveServingConfig& a,
                  const AdaptiveServingConfig& b) {
  if (a.enabled != b.enabled || a.tiers.size() != b.tiers.size()) {
    return false;
  }
  for (std::size_t t = 0; t < a.tiers.size(); ++t) {
    if (a.tiers[t].top_k != b.tiers[t].top_k ||
        a.tiers[t].escalate != b.tiers[t].escalate ||
        a.tiers[t].accuracy != b.tiers[t].accuracy) {
      return false;
    }
  }
  return a.slo_p99_s == b.slo_p99_s &&
         a.accuracy_floor == b.accuracy_floor && a.epoch_s == b.epoch_s &&
         a.low_band == b.low_band && a.high_band == b.high_band &&
         a.queue_ref == b.queue_ref &&
         a.latency_window == b.latency_window &&
         a.escalate_margin == b.escalate_margin &&
         a.escalate_bits == b.escalate_bits &&
         a.escalate_rows == b.escalate_rows;
}

ReplicaDesign SampleReplica(const DesignSpace& space, Rng& rng) {
  ReplicaDesign rd;
  rd.former.max_batch = Pick(space.max_batch_menu, rng);
  rd.former.max_tokens = Pick(space.max_tokens_menu, rng);
  rd.former.timeout_s = Pick(space.timeout_menu, rng);
  rd.former.sort_by_length = rng.NextIndex(2) == 1;
  rd.workers = Pick(space.workers_menu, rng);
  rd.queue_capacity = Pick(space.queue_menu, rng);
  rd.top_k = Pick(space.top_k_menu, rng);
  rd.shard = CanonicalShard(space);
  // A quarter of sampled replicas start sharded: gangs are the rarer
  // shape, and mutation can always flip the backend later.
  if (rng.NextIndex(4) == 0) {
    rd.backend = BackendMode::kSharded;
    rd.shard.degree = Pick(space.degree_menu, rng);
  }
  // Likewise a quarter start with the adaptive layer on (mutation can
  // toggle it either way later).
  if (!space.adapt_slo_menu.empty() && rng.NextIndex(4) == 0) {
    rd.adapt =
        CanonicalAdaptiveLadder(rd.top_k, Pick(space.adapt_slo_menu, rng));
  }
  return rd;
}

/// Re-draws the aux fields a router policy reads and clears the ones it
/// does not, so designs stay canonical across policy changes.
void CanonicalizeRouter(const DesignSpace& space, RouterConfig& router,
                        Rng& rng) {
  router.length_edges.clear();
  router.long_len_threshold = 0;
  if (router.policy == RouterPolicy::kLengthBucketed) {
    router.length_edges = Pick(space.edges_menu, rng);
  } else if (router.policy == RouterPolicy::kLongToSharded) {
    router.long_len_threshold = Pick(space.threshold_menu, rng);
  }
}

/// Fills the store knobs a non-none cache mode reads.
void SampleCacheStore(const DesignSpace& space, DesignPoint& dp, Rng& rng) {
  dp.cache = NoCache();
  dp.cache.enabled = true;
  dp.cache.key_policy = CacheKeyPolicy::kRequestId;
  dp.cache.eviction = Pick(space.eviction_menu, rng);
  dp.cache.capacity_bytes = Pick(space.cache_capacity_menu, rng);
  dp.cache.ttl_s = Pick(space.ttl_menu, rng);
}

std::size_t ReplicaSlots(const ReplicaDesign& rd) {
  const std::size_t gang =
      rd.backend == BackendMode::kSharded ? rd.shard.degree : 1;
  return rd.workers * gang;
}

/// Deterministically shrinks a design to the slot budget: the widest
/// replica (lowest index on ties) loses workers first, then its gang,
/// then trailing replicas are dropped.  No randomness -- equal inputs
/// repair identically.
void RepairBudget(const DesignSpace& space, DesignPoint& dp) {
  while (BackendSlots(dp) > space.max_backend_slots && !dp.replicas.empty()) {
    std::size_t widest = 0;
    for (std::size_t i = 1; i < dp.replicas.size(); ++i) {
      if (ReplicaSlots(dp.replicas[i]) > ReplicaSlots(dp.replicas[widest])) {
        widest = i;
      }
    }
    ReplicaDesign& rd = dp.replicas[widest];
    if (rd.workers > 1) {
      rd.workers = 1;
    } else if (rd.backend == BackendMode::kSharded) {
      rd.backend = BackendMode::kReplicated;
      rd.shard = CanonicalShard(space);
    } else if (dp.replicas.size() > space.min_replicas) {
      dp.replicas.pop_back();
    } else {
      break;
    }
  }
}

void MutateReplicaKnob(const DesignSpace& space, ReplicaDesign& rd,
                       Rng& rng) {
  switch (rng.NextIndex(10)) {
    case 0:
      rd.former.max_batch =
          Neighbor(space.max_batch_menu, rd.former.max_batch, rng);
      break;
    case 1:
      rd.former.max_tokens =
          Neighbor(space.max_tokens_menu, rd.former.max_tokens, rng);
      break;
    case 2:
      rd.former.timeout_s =
          Neighbor(space.timeout_menu, rd.former.timeout_s, rng);
      break;
    case 3:
      rd.former.sort_by_length = !rd.former.sort_by_length;
      break;
    case 4:
      rd.workers = Neighbor(space.workers_menu, rd.workers, rng);
      break;
    case 5:
      rd.queue_capacity = Neighbor(space.queue_menu, rd.queue_capacity, rng);
      break;
    case 6:
      rd.top_k = Neighbor(space.top_k_menu, rd.top_k, rng);
      // Tier 0 is the full-quality service and must track top_k, so an
      // enabled ladder is re-derived (same SLO) rather than invalidated.
      if (rd.adapt.enabled) {
        rd.adapt = CanonicalAdaptiveLadder(rd.top_k, rd.adapt.slo_p99_s);
      }
      break;
    case 7:
      // Backend flip: gangs enter with a drawn degree, leave canonical.
      if (rd.backend == BackendMode::kReplicated) {
        rd.backend = BackendMode::kSharded;
        rd.shard = CanonicalShard(space);
        rd.shard.degree = Pick(space.degree_menu, rng);
      } else {
        rd.backend = BackendMode::kReplicated;
        rd.shard = CanonicalShard(space);
      }
      break;
    case 8:
      if (rd.backend == BackendMode::kSharded) {
        rd.shard.degree = Neighbor(space.degree_menu, rd.shard.degree, rng);
      } else {
        rd.backend = BackendMode::kSharded;
        rd.shard = CanonicalShard(space);
        rd.shard.degree = Pick(space.degree_menu, rng);
      }
      break;
    case 9:
      // Adaptive toggle: enabling installs the canonical ladder with a
      // freshly drawn SLO; disabling restores the default-constructed
      // block so designs stay canonical (an unread adapt block would
      // make otherwise-equal designs distinct JSON).
      if (rd.adapt.enabled || space.adapt_slo_menu.empty()) {
        rd.adapt = AdaptiveServingConfig{};
      } else {
        rd.adapt = CanonicalAdaptiveLadder(rd.top_k,
                                           Pick(space.adapt_slo_menu, rng));
      }
      break;
  }
}

void MutateCache(const DesignSpace& space, DesignPoint& dp, Rng& rng) {
  const bool had_store = dp.cache_mode != ClusterCacheMode::kNone;
  if (!had_store || rng.NextIndex(4) == 0) {
    dp.cache_mode = Neighbor(space.cache_mode_menu, dp.cache_mode, rng);
    if (dp.cache_mode == ClusterCacheMode::kNone) {
      dp.cache = NoCache();
    } else if (!had_store) {
      SampleCacheStore(space, dp, rng);
    }
    return;
  }
  switch (rng.NextIndex(3)) {
    case 0:
      dp.cache.capacity_bytes =
          Neighbor(space.cache_capacity_menu, dp.cache.capacity_bytes, rng);
      break;
    case 1:
      dp.cache.ttl_s = Neighbor(space.ttl_menu, dp.cache.ttl_s, rng);
      break;
    case 2:
      dp.cache.eviction =
          Neighbor(space.eviction_menu, dp.cache.eviction, rng);
      break;
  }
}

}  // namespace

std::size_t BackendSlots(const DesignPoint& dp) {
  std::size_t slots = 0;
  for (const ReplicaDesign& rd : dp.replicas) slots += ReplicaSlots(rd);
  return slots;
}

AdaptiveServingConfig CanonicalAdaptiveLadder(std::size_t top_k,
                                              double slo_p99_s) {
  AdaptiveServingConfig adapt;
  adapt.enabled = true;
  adapt.slo_p99_s = slo_p99_s;
  adapt.tiers.resize(3);
  adapt.tiers[0] = ServiceTier{top_k, false, 1.0};
  adapt.tiers[1] =
      ServiceTier{std::max<std::size_t>(top_k / 2, 2), false, 0.97};
  adapt.tiers[2] =
      ServiceTier{std::max<std::size_t>(top_k / 4, 1), true, 0.9};
  return adapt;
}

ConfigIssues CheckInSpace(const DesignSpace& space, const DesignPoint& dp) {
  ConfigIssues issues = CheckDesignPoint(dp);
  if (dp.replicas.size() < space.min_replicas ||
      dp.replicas.size() > space.max_replicas) {
    AddIssue(issues, "replicas",
             "fleet size must be in [" + std::to_string(space.min_replicas) +
                 ", " + std::to_string(space.max_replicas) + "], got " +
                 std::to_string(dp.replicas.size()));
  }
  const std::size_t slots = BackendSlots(dp);
  if (slots > space.max_backend_slots) {
    AddIssue(issues, "replicas",
             "provisions " + std::to_string(slots) +
                 " backend slots, over the budget of " +
                 std::to_string(space.max_backend_slots));
  }
  for (std::size_t i = 0; i < dp.replicas.size(); ++i) {
    const ReplicaDesign& rd = dp.replicas[i];
    const std::string prefix = "replicas[" + std::to_string(i) + "]";
    if (!Contains(space.max_batch_menu, rd.former.max_batch)) {
      AddIssue(issues, prefix + ".former.max_batch", "is not on the menu");
    }
    if (!Contains(space.max_tokens_menu, rd.former.max_tokens)) {
      AddIssue(issues, prefix + ".former.max_tokens", "is not on the menu");
    }
    if (!Contains(space.timeout_menu, rd.former.timeout_s)) {
      AddIssue(issues, prefix + ".former.timeout_s", "is not on the menu");
    }
    if (!Contains(space.workers_menu, rd.workers)) {
      AddIssue(issues, prefix + ".workers", "is not on the menu");
    }
    if (!Contains(space.queue_menu, rd.queue_capacity)) {
      AddIssue(issues, prefix + ".queue_capacity", "is not on the menu");
    }
    if (!Contains(space.top_k_menu, rd.top_k)) {
      AddIssue(issues, prefix + ".top_k", "is not on the menu");
    }
    if (rd.backend == BackendMode::kSharded &&
        !Contains(space.degree_menu, rd.shard.degree)) {
      AddIssue(issues, prefix + ".shard.degree", "is not on the menu");
    }
    if (rd.adapt.enabled) {
      if (!Contains(space.adapt_slo_menu, rd.adapt.slo_p99_s)) {
        AddIssue(issues, prefix + ".adapt.slo_p99_s", "is not on the menu");
      }
      if (!SameAdaptive(rd.adapt, CanonicalAdaptiveLadder(
                                      rd.top_k, rd.adapt.slo_p99_s))) {
        AddIssue(issues, prefix + ".adapt",
                 "is not the canonical ladder for this top_k (the space "
                 "tunes only the enabled bit and the SLO)");
      }
    }
  }
  if (!Contains(space.policy_menu, dp.router.policy)) {
    AddIssue(issues, "router.policy", "is not on the menu");
  }
  if (dp.router.policy == RouterPolicy::kLengthBucketed &&
      !Contains(space.edges_menu, dp.router.length_edges)) {
    AddIssue(issues, "router.length_edges", "is not on the menu");
  }
  if (dp.router.policy == RouterPolicy::kLongToSharded &&
      !Contains(space.threshold_menu, dp.router.long_len_threshold)) {
    AddIssue(issues, "router.long_len_threshold", "is not on the menu");
  }
  if (!Contains(space.cache_mode_menu, dp.cache_mode)) {
    AddIssue(issues, "cache.mode", "is not on the menu");
  }
  if (dp.cache_mode != ClusterCacheMode::kNone) {
    if (!Contains(space.cache_capacity_menu, dp.cache.capacity_bytes)) {
      AddIssue(issues, "cache.capacity_bytes", "is not on the menu");
    }
    if (!Contains(space.ttl_menu, dp.cache.ttl_s)) {
      AddIssue(issues, "cache.ttl_s", "is not on the menu");
    }
    if (!Contains(space.eviction_menu, dp.cache.eviction)) {
      AddIssue(issues, "cache.eviction", "is not on the menu");
    }
  }
  return issues;
}

DesignPoint SampleDesign(const DesignSpace& space, Rng& rng) {
  DesignPoint dp;
  const std::size_t fleet =
      space.min_replicas +
      rng.NextIndex(space.max_replicas - space.min_replicas + 1);
  dp.replicas.reserve(fleet);
  for (std::size_t i = 0; i < fleet; ++i) {
    dp.replicas.push_back(SampleReplica(space, rng));
  }
  dp.router.policy = Pick(space.policy_menu, rng);
  CanonicalizeRouter(space, dp.router, rng);
  dp.cache_mode = Pick(space.cache_mode_menu, rng);
  if (dp.cache_mode != ClusterCacheMode::kNone) {
    SampleCacheStore(space, dp, rng);
  } else {
    dp.cache = NoCache();
  }
  RepairBudget(space, dp);
  return dp;
}

DesignPoint MutateDesign(const DesignSpace& space, const DesignPoint& dp,
                         Rng& rng) {
  DesignPoint next = dp;
  const std::size_t move = rng.NextIndex(8);
  switch (move) {
    case 0:  // grow the fleet: clone an existing replica
      if (next.replicas.size() < space.max_replicas &&
          !next.replicas.empty()) {
        next.replicas.push_back(
            next.replicas[rng.NextIndex(next.replicas.size())]);
        return next;
      }
      break;
    case 1:  // shrink the fleet
      if (next.replicas.size() > space.min_replicas) {
        next.replicas.erase(next.replicas.begin() +
                            static_cast<std::ptrdiff_t>(
                                rng.NextIndex(next.replicas.size())));
        return next;
      }
      break;
    case 6:  // router move
      next.router.policy = Pick(space.policy_menu, rng);
      CanonicalizeRouter(space, next.router, rng);
      return next;
    case 7:  // cache move
      MutateCache(space, next, rng);
      return next;
    default:
      break;
  }
  // Knob move (cases 2-5, and the fallback when a fleet move was not
  // applicable at the current size).
  if (!next.replicas.empty()) {
    ReplicaDesign& rd = next.replicas[rng.NextIndex(next.replicas.size())];
    MutateReplicaKnob(space, rd, rng);
  }
  return next;
}

}  // namespace latte::search
