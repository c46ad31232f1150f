// The four benchmark workloads.  Why each exists is recorded beside its
// name in BENCHMARK.json; the constants below are its calibration.

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <unordered_set>

#include "bench.hpp"

namespace latte::bench {
namespace {

constexpr std::size_t kTopK = 30;
constexpr int kSelectBits = 1;

// Tiny traces keep every workload's shape (its generator, dataset and
// engine features) at a size the self-test can replay several times.
constexpr std::size_t kTinyDivisor = 16;

std::size_t Scaled(std::size_t n, Size size) {
  return size == Size::kTiny ? std::max<std::size_t>(8, n / kTinyDivisor) : n;
}

}  // namespace

Workload FindWorkload(const std::string& name, Size size) {
  Workload w;
  w.name = name;
  // Rates and batch timeouts keep the accelerator twin below saturation
  // (device busy ~20-50%), so the modelled p99 is set by batch forming
  // and service rather than by a queue whose growth varies with the seed.
  if (name == "squad_long") {
    w.dataset = Squad();
    w.arrivals = Workload::Arrivals::kPoisson;
    w.rate_rps = 1000;
    w.requests = Scaled(192, size);
    w.timeout_s = 4e-3;
  } else if (name == "mrpc_short") {
    w.dataset = Mrpc();
    w.arrivals = Workload::Arrivals::kPoisson;
    w.rate_rps = 6000;
    w.requests = Scaled(512, size);
    w.timeout_s = 1e-3;
  } else if (name == "rte_zipf_cached") {
    // Population and skew give a duplicate rate of about one half.  A
    // milder skew than typical content popularity keeps the few most
    // popular contents' lengths from setting the cache-served token share.
    w.dataset = Rte();
    w.arrivals = Workload::Arrivals::kZipf;
    w.rate_rps = 8000;
    w.requests = Scaled(1024, size);
    w.population = Scaled(600, size);
    w.skew = 0.5;
    w.timeout_s = 1e-3;
    w.cache = true;
  } else if (name == "rte_ramp_adaptive") {
    // warmup -> overload peak -> cooldown.  The peak is long enough for
    // the ladder to reach steady overload (degrade, escalate, then shed)
    // so the shed share does not hinge on a few bursts.
    w.dataset = Rte();
    w.arrivals = Workload::Arrivals::kRamp;
    w.stages = {{4000, Scaled(128, size)},
                {27000, Scaled(1024, size)},
                {4000, Scaled(128, size)}};
    w.timeout_s = 1e-3;
    w.adaptive = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

ModelConfig ReferenceModel() { return ScaledDown(BertBase(), 6); }

std::vector<TimedRequest> GenerateTrace(const Workload& w, std::uint64_t seed,
                                        std::size_t scale) {
  switch (w.arrivals) {
    case Workload::Arrivals::kPoisson: {
      PoissonTraceConfig cfg;
      cfg.arrival_rate_rps = w.rate_rps;
      cfg.requests = w.requests * scale;
      cfg.seed = seed;
      return GeneratePoissonTrace(cfg, w.dataset);
    }
    case Workload::Arrivals::kZipf: {
      ZipfTraceConfig cfg;
      cfg.arrival_rate_rps = w.rate_rps;
      cfg.requests = w.requests * scale;
      cfg.population = w.population * scale;
      cfg.skew = w.skew;
      cfg.seed = seed;
      return GenerateZipfTrace(cfg, w.dataset);
    }
    case Workload::Arrivals::kRamp: {
      RampTraceConfig cfg;
      cfg.stages = w.stages;
      for (RampStage& s : cfg.stages) s.requests *= scale;
      cfg.seed = seed;
      return GenerateRampTrace(cfg, w.dataset);
    }
  }
  throw std::logic_error("unreachable");
}

ServingEngineConfig EngineConfig(const Workload& w, const ModelConfig& model,
                                 std::uint64_t seed, std::size_t threads) {
  ServingEngineConfig cfg;
  cfg.former.max_batch = 8;
  cfg.former.timeout_s = w.timeout_s;
  cfg.workers = 1;
  cfg.threads = threads;
  cfg.execute = true;
  cfg.embed_seed = MixHash64(seed);
  cfg.inference.mode = InferenceMode::kSparseInt8;
  cfg.inference.sparse.top_k = kTopK;
  cfg.inference.sparse.bits = kSelectBits;

  ServiceModelSpec spec;
  spec.base = ServiceModelSpec::Base::kAccelerator;
  spec.model = model;
  spec.accel.top_k = kTopK;
  cfg.service = BuildServiceModel(spec);

  if (w.cache) {
    cfg.cache.enabled = true;
    cfg.cache.key_policy = CacheKeyPolicy::kRequestId;
  }
  if (w.adaptive) {
    // A bounded waiting room makes shedding the ladder's last resort.
    cfg.queue_capacity = 32;
    AdaptiveServingConfig& a = cfg.adapt;
    a.enabled = true;
    a.slo_p99_s = 2e-3;
    a.epoch_s = 2e-4;
    a.queue_ref = 8;
    a.latency_window = 64;
    a.escalate_margin = 0.05;
    // Nominal tier accuracies (the accuracy floor is off); the measured
    // accuracy is the benchmark's output_cosine.
    a.tiers = {{kTopK, false, 1.0}, {16, false, 0.97}, {8, true, 0.93}};
    cfg.tier_services = BuildTierServiceModels(spec, a.tiers);
  }
  return cfg;
}

std::size_t TopKOf(const ServingEngineConfig& cfg, const ServingResult& res,
                   std::size_t admitted) {
  if (!cfg.adapt.enabled) return cfg.inference.sparse.top_k;
  return cfg.adapt.tiers.at(res.request_tiers.at(admitted)).top_k;
}

std::vector<FinalOutput> FinalOutputs(const ServingEngineConfig& cfg,
                                      const ServingResult& res,
                                      std::size_t offered) {
  std::vector<FinalOutput> out(offered);
  for (std::size_t i = 0; i < res.outputs.size(); ++i) {
    if (!res.superseded.empty() && res.superseded[i] != 0) continue;
    out.at(res.offered_ids[i]) = {&res.outputs[i], TopKOf(cfg, res, i)};
  }
  // The cache and the adaptive ladder are exclusive: hits ran at tier 0.
  for (const CacheServedRequest& s : res.cache_served) {
    out.at(s.offered_id) = {&s.output, cfg.inference.sparse.top_k};
  }
  return out;
}

MatrixF RequestInput(const ServingEngineConfig& cfg, const TimedRequest& r,
                     std::size_t ordinal, std::size_t hidden) {
  return r.id != kAnonymousId
             ? SynthesizeIdentityEmbedding(cfg.embed_seed, r.id, r.length,
                                           hidden)
             : SynthesizeRequestEmbedding(cfg.embed_seed, ordinal, r.length,
                                          hidden);
}

std::vector<std::size_t> LengthStratifiedSample(
    const std::vector<TimedRequest>& trace, std::size_t count) {
  std::vector<std::size_t> distinct;
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::uint64_t id = trace[i].id;
    if (id != kAnonymousId && !seen.insert(id).second) continue;
    distinct.push_back(i);
  }
  std::stable_sort(distinct.begin(), distinct.end(),
                   [&](std::size_t a, std::size_t b) {
                     return trace[a].length < trace[b].length;
                   });
  if (distinct.size() <= count) return distinct;
  std::vector<std::size_t> picked(count);
  for (std::size_t j = 0; j < count; ++j) {
    picked[j] = distinct[(2 * j + 1) * distinct.size() / (2 * count)];
  }
  return picked;
}

bool BitwiseEqual(const MatrixF& a, const MatrixF& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const auto fa = a.flat();
  const auto fb = b.flat();
  return std::equal(fa.begin(), fa.end(), fb.begin(), fb.end(),
                    [](float x, float y) {
                      return std::bit_cast<std::uint32_t>(x) ==
                             std::bit_cast<std::uint32_t>(y);
                    });
}

}  // namespace latte::bench
