#include "search/design_point.hpp"

#include <stdexcept>

#include "obs/json_writer.hpp"

namespace latte::search {

namespace {

template <typename Enum, typename NameFn>
Enum EnumFromName(const std::string& name, std::initializer_list<Enum> values,
                  NameFn name_of, std::string_view what) {
  for (const Enum v : values) {
    if (name == name_of(v)) return v;
  }
  throw std::invalid_argument("DesignPoint: unknown " + std::string(what) +
                              " \"" + name + "\"");
}

RouterPolicy RouterPolicyFromName(const std::string& name) {
  return EnumFromName(name,
                      {RouterPolicy::kRoundRobin,
                       RouterPolicy::kJoinShortestQueue,
                       RouterPolicy::kLeastOutstandingTokens,
                       RouterPolicy::kLengthBucketed,
                       RouterPolicy::kKeyAffinity,
                       RouterPolicy::kLongToSharded,
                       RouterPolicy::kLeastDegraded},
                      RouterPolicyName, "router policy");
}

EvictionPolicy EvictionPolicyFromName(const std::string& name) {
  return EnumFromName(name,
                      {EvictionPolicy::kLru, EvictionPolicy::kSegmentedLru},
                      EvictionPolicyName, "eviction policy");
}

CacheKeyPolicy CacheKeyPolicyFromName(const std::string& name) {
  return EnumFromName(
      name, {CacheKeyPolicy::kRequestId, CacheKeyPolicy::kEmbeddingHash},
      CacheKeyPolicyName, "cache key policy");
}

ClusterCacheMode ClusterCacheModeFromName(const std::string& name) {
  return EnumFromName(name,
                      {ClusterCacheMode::kNone, ClusterCacheMode::kPerReplica,
                       ClusterCacheMode::kShared},
                      ClusterCacheModeName, "cache mode");
}

BackendMode BackendModeFromName(const std::string& name) {
  return EnumFromName(name,
                      {BackendMode::kReplicated, BackendMode::kSharded},
                      BackendModeName, "backend mode");
}

}  // namespace

const char* BackendModeName(BackendMode mode) {
  switch (mode) {
    case BackendMode::kReplicated:
      return "replicated";
    case BackendMode::kSharded:
      return "sharded";
  }
  return "unknown";
}

ConfigIssues CheckDesignPoint(const DesignPoint& dp) {
  ConfigIssues issues;
  if (dp.replicas.empty()) {
    AddIssue(issues, "replicas",
             "must name at least one replica (an empty fleet cannot serve)");
  }
  for (std::size_t i = 0; i < dp.replicas.size(); ++i) {
    const ReplicaDesign& rd = dp.replicas[i];
    const std::string prefix = "replicas[" + std::to_string(i) + "]";
    MergePrefixed(issues, prefix + ".former",
                  CheckBatchFormerConfig(rd.former));
    if (rd.workers == 0) {
      AddIssue(issues, prefix + ".workers",
               "must be >= 1 (no backend slot to account against)");
    }
    if (rd.top_k == 0) {
      AddIssue(issues, prefix + ".top_k",
               "must be >= 1 (0 selects no attention candidates)");
    }
    if (rd.backend == BackendMode::kSharded) {
      MergePrefixed(issues, prefix + ".shard",
                    CheckShardServiceConfig(rd.shard));
    }
    if (rd.adapt.enabled) {
      MergePrefixed(issues, prefix + ".adapt",
                    CheckAdaptiveServingConfig(rd.adapt));
      if (!rd.adapt.tiers.empty() && rd.adapt.tiers[0].top_k != rd.top_k) {
        AddIssue(issues, prefix + ".adapt.tiers[0].top_k",
                 "must equal the replica's top_k (" +
                     std::to_string(rd.top_k) +
                     "): tier 0 is the full-quality service");
      }
    }
  }
  MergePrefixed(issues, "router",
                CheckRouterConfig(dp.router, dp.replicas.size()));
  if (dp.cache_mode != ClusterCacheMode::kNone) {
    MergePrefixed(issues, "cache", CheckResultCacheConfig(dp.cache));
  }
  return issues;
}

ServingEngineConfig EngineConfigFromDesignPoint(const ReplicaDesign& rd) {
  ServingEngineConfig cfg;
  cfg.former = rd.former;
  cfg.workers = rd.workers;
  cfg.queue_capacity = rd.queue_capacity;
  cfg.inference.sparse.top_k = rd.top_k;
  cfg.backend = rd.backend;
  cfg.shard = rd.shard;
  cfg.adapt = rd.adapt;
  return cfg;
}

ClusterConfig ClusterConfigFromDesignPoint(const DesignPoint& dp) {
  ClusterConfig cfg;
  cfg.replicas.reserve(dp.replicas.size());
  for (const ReplicaDesign& rd : dp.replicas) {
    ReplicaConfig rep;
    rep.engine = EngineConfigFromDesignPoint(rd);
    cfg.replicas.push_back(std::move(rep));
  }
  cfg.router = dp.router;
  cfg.cache.mode = dp.cache_mode;
  cfg.cache.config = dp.cache;
  return cfg;
}

void WriteDesignPointJson(obs::JsonWriter& json, const DesignPoint& dp) {
  json.BeginObject();
  json.Key("replicas").BeginArray();
  for (const ReplicaDesign& rd : dp.replicas) {
    json.BeginObject();
    json.Key("max_batch").Value(rd.former.max_batch);
    json.Key("max_tokens").Value(rd.former.max_tokens);
    json.Key("timeout_s").ValueExact(rd.former.timeout_s);
    json.Key("sort_by_length").Value(rd.former.sort_by_length);
    json.Key("workers").Value(rd.workers);
    json.Key("queue_capacity").Value(rd.queue_capacity);
    json.Key("top_k").Value(rd.top_k);
    json.Key("backend").Value(BackendModeName(rd.backend));
    json.Key("shard").BeginObject();
    json.Key("degree").Value(rd.shard.degree);
    json.Key("row_parallel_ffn2").Value(rd.shard.row_parallel_ffn2);
    json.Key("min_sharded_len").Value(rd.shard.min_sharded_len);
    json.Key("interconnect").BeginObject();
    json.Key("link_bytes_per_s").ValueExact(rd.shard.interconnect.link_bytes_per_s);
    json.Key("hop_latency_s").ValueExact(rd.shard.interconnect.hop_latency_s);
    json.Key("mesh_cols").Value(rd.shard.interconnect.mesh_cols);
    json.Key("dram_spill_bytes").Value(rd.shard.interconnect.dram_spill_bytes);
    json.Key("dram_bytes_per_s").ValueExact(rd.shard.interconnect.dram_bytes_per_s);
    json.EndObject();
    json.EndObject();
    json.Key("adapt").BeginObject();
    json.Key("enabled").Value(rd.adapt.enabled);
    json.Key("slo_p99_s").ValueExact(rd.adapt.slo_p99_s);
    json.Key("accuracy_floor").ValueExact(rd.adapt.accuracy_floor);
    json.Key("epoch_s").ValueExact(rd.adapt.epoch_s);
    json.Key("low_band").ValueExact(rd.adapt.low_band);
    json.Key("high_band").ValueExact(rd.adapt.high_band);
    json.Key("queue_ref").Value(rd.adapt.queue_ref);
    json.Key("latency_window").Value(rd.adapt.latency_window);
    json.Key("escalate_margin").ValueExact(rd.adapt.escalate_margin);
    json.Key("escalate_bits").Value(static_cast<std::size_t>(rd.adapt.escalate_bits));
    json.Key("escalate_rows").Value(rd.adapt.escalate_rows);
    json.Key("tiers").BeginArray();
    for (const ServiceTier& tier : rd.adapt.tiers) {
      json.BeginObject();
      json.Key("top_k").Value(tier.top_k);
      json.Key("escalate").Value(tier.escalate);
      json.Key("accuracy").ValueExact(tier.accuracy);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.Key("router").BeginObject();
  json.Key("policy").Value(RouterPolicyName(dp.router.policy));
  json.Key("length_edges").BeginArray();
  for (const std::size_t edge : dp.router.length_edges) json.Value(edge);
  json.EndArray();
  json.Key("long_len_threshold").Value(dp.router.long_len_threshold);
  json.EndObject();
  json.Key("cache").BeginObject();
  json.Key("mode").Value(ClusterCacheModeName(dp.cache_mode));
  json.Key("key_policy").Value(CacheKeyPolicyName(dp.cache.key_policy));
  json.Key("eviction").Value(EvictionPolicyName(dp.cache.eviction));
  json.Key("capacity_bytes").Value(dp.cache.capacity_bytes);
  json.Key("ttl_s").ValueExact(dp.cache.ttl_s);
  json.Key("hit_latency_s").ValueExact(dp.cache.hit_latency_s);
  json.Key("protected_fraction").ValueExact(dp.cache.protected_fraction);
  json.Key("entry_overhead_bytes").Value(dp.cache.entry_overhead_bytes);
  json.EndObject();
  json.EndObject();
}

std::string DesignPointToJson(const DesignPoint& dp) {
  obs::JsonWriter json;
  WriteDesignPointJson(json, dp);
  return json.str();
}

DesignPoint DesignPointFromJsonValue(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kObject) {
    throw std::invalid_argument("DesignPoint: document must be an object");
  }
  DesignPoint dp;
  const JsonValue& replicas = v.Get("replicas");
  if (replicas.kind != JsonValue::Kind::kArray) {
    throw std::invalid_argument("DesignPoint: replicas must be an array");
  }
  for (const JsonValue& rv : replicas.array) {
    ReplicaDesign rd;
    rd.former.max_batch = rv.Get("max_batch").AsSize("max_batch");
    rd.former.max_tokens = rv.Get("max_tokens").AsSize("max_tokens");
    rd.former.timeout_s = rv.Get("timeout_s").AsNumber("timeout_s");
    rd.former.sort_by_length =
        rv.Get("sort_by_length").AsBool("sort_by_length");
    rd.workers = rv.Get("workers").AsSize("workers");
    rd.queue_capacity = rv.Get("queue_capacity").AsSize("queue_capacity");
    rd.top_k = rv.Get("top_k").AsSize("top_k");
    rd.backend = BackendModeFromName(rv.Get("backend").AsString("backend"));
    const JsonValue& sv = rv.Get("shard");
    rd.shard.degree = sv.Get("degree").AsSize("shard.degree");
    rd.shard.row_parallel_ffn2 =
        sv.Get("row_parallel_ffn2").AsBool("shard.row_parallel_ffn2");
    rd.shard.min_sharded_len =
        sv.Get("min_sharded_len").AsSize("shard.min_sharded_len");
    const JsonValue& iv = sv.Get("interconnect");
    rd.shard.interconnect.link_bytes_per_s =
        iv.Get("link_bytes_per_s").AsNumber("interconnect.link_bytes_per_s");
    rd.shard.interconnect.hop_latency_s =
        iv.Get("hop_latency_s").AsNumber("interconnect.hop_latency_s");
    rd.shard.interconnect.mesh_cols =
        iv.Get("mesh_cols").AsSize("interconnect.mesh_cols");
    rd.shard.interconnect.dram_spill_bytes =
        iv.Get("dram_spill_bytes").AsSize("interconnect.dram_spill_bytes");
    rd.shard.interconnect.dram_bytes_per_s =
        iv.Get("dram_bytes_per_s").AsNumber("interconnect.dram_bytes_per_s");
    const JsonValue& av = rv.Get("adapt");
    rd.adapt.enabled = av.Get("enabled").AsBool("adapt.enabled");
    rd.adapt.slo_p99_s = av.Get("slo_p99_s").AsNumber("adapt.slo_p99_s");
    rd.adapt.accuracy_floor =
        av.Get("accuracy_floor").AsNumber("adapt.accuracy_floor");
    rd.adapt.epoch_s = av.Get("epoch_s").AsNumber("adapt.epoch_s");
    rd.adapt.low_band = av.Get("low_band").AsNumber("adapt.low_band");
    rd.adapt.high_band = av.Get("high_band").AsNumber("adapt.high_band");
    rd.adapt.queue_ref = av.Get("queue_ref").AsSize("adapt.queue_ref");
    rd.adapt.latency_window =
        av.Get("latency_window").AsSize("adapt.latency_window");
    rd.adapt.escalate_margin =
        av.Get("escalate_margin").AsNumber("adapt.escalate_margin");
    rd.adapt.escalate_bits = static_cast<int>(
        av.Get("escalate_bits").AsSize("adapt.escalate_bits"));
    rd.adapt.escalate_rows =
        av.Get("escalate_rows").AsSize("adapt.escalate_rows");
    const JsonValue& tiers = av.Get("tiers");
    if (tiers.kind != JsonValue::Kind::kArray) {
      throw std::invalid_argument(
          "DesignPoint: adapt.tiers must be an array");
    }
    for (const JsonValue& tv : tiers.array) {
      ServiceTier tier;
      tier.top_k = tv.Get("top_k").AsSize("adapt.tiers[].top_k");
      tier.escalate = tv.Get("escalate").AsBool("adapt.tiers[].escalate");
      tier.accuracy = tv.Get("accuracy").AsNumber("adapt.tiers[].accuracy");
      rd.adapt.tiers.push_back(tier);
    }
    dp.replicas.push_back(rd);
  }
  const JsonValue& router = v.Get("router");
  dp.router.policy =
      RouterPolicyFromName(router.Get("policy").AsString("router.policy"));
  const JsonValue& edges = router.Get("length_edges");
  if (edges.kind != JsonValue::Kind::kArray) {
    throw std::invalid_argument(
        "DesignPoint: router.length_edges must be an array");
  }
  for (const JsonValue& e : edges.array) {
    dp.router.length_edges.push_back(e.AsSize("router.length_edges[]"));
  }
  dp.router.long_len_threshold =
      router.Get("long_len_threshold").AsSize("router.long_len_threshold");
  const JsonValue& cache = v.Get("cache");
  dp.cache_mode =
      ClusterCacheModeFromName(cache.Get("mode").AsString("cache.mode"));
  dp.cache.enabled = dp.cache_mode != ClusterCacheMode::kNone;
  dp.cache.key_policy =
      CacheKeyPolicyFromName(cache.Get("key_policy").AsString("cache.key_policy"));
  dp.cache.eviction =
      EvictionPolicyFromName(cache.Get("eviction").AsString("cache.eviction"));
  dp.cache.capacity_bytes =
      cache.Get("capacity_bytes").AsSize("cache.capacity_bytes");
  dp.cache.ttl_s = cache.Get("ttl_s").AsNumber("cache.ttl_s");
  dp.cache.hit_latency_s =
      cache.Get("hit_latency_s").AsNumber("cache.hit_latency_s");
  dp.cache.protected_fraction =
      cache.Get("protected_fraction").AsNumber("cache.protected_fraction");
  dp.cache.entry_overhead_bytes =
      cache.Get("entry_overhead_bytes").AsSize("cache.entry_overhead_bytes");
  return dp;
}

DesignPoint DesignPointFromJson(std::string_view text) {
  return DesignPointFromJsonValue(ParseJson(text));
}

}  // namespace latte::search
