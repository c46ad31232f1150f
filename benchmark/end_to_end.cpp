// The untraced end-to-end phases.
//
//   setup       model construction + trace generation + engine construction,
//               repeated kSetupRepeats times; the median is setup_s.
//   throughput  offline replay: Push() the whole trace, then Drain() with
//               execute on and `threads` BatchRunner threads.  Arrivals are
//               virtual (priced by the accelerator twin), so the wall clock
//               measures work completed per second.  Each pass gets a fresh
//               engine (a warm cache would change what the pass does), and
//               tokens_per_s is the fastest pass's.
//   latency     closed loop, one caller: each request is a one-request
//               Replay() on a long-lived 1-thread engine, sent after the
//               previous one returned.  The requests are a length-stratified
//               sample of distinct contents from a longer trace of the same
//               workload, so p50/p95 follow the workload's length
//               distribution with little seed-to-seed noise.  A request's
//               latency is its fastest cycle over the sample.  Distinct
//               contents never hit the cache (it is emptied between
//               cycles): cache hits are timed by the throughput phase.
//
// Passes and cycles alternate, each phase repeating while its half of
// --seconds lasts, so both best-of estimators draw on the whole run.  They
// are best-of because the benchmark runs on shared hosts: other tenants'
// cache and memory traffic slow this process by up to half for seconds at
// a time, and interference can only ever add time.
//
// Every executed output is checked bitwise against a sequential
// ModelInstance::Forward of the same public Synthesize*Embedding input at
// the request's tier top-k; every cache-served output against its leader.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>

#include "bench.hpp"

namespace latte::bench {
namespace {

constexpr int kSetupRepeats = 15;
constexpr std::size_t kLatencyRequests = 200;  // p95 keeps 10 beyond it
constexpr std::size_t kLatencyTraceScale = 16;
constexpr std::size_t kCosineSample = 32;

/// Checks one drained stream; returns the offered ordinals whose output
/// failed the check.  Reference forwards are independent sequential
/// Forward() calls, spread over `runner` only to bound the check's time.
std::vector<std::size_t> CheckOutputs(const ModelInstance& model,
                                      const ServingEngineConfig& cfg,
                                      const std::vector<TimedRequest>& trace,
                                      const ServingResult& res,
                                      BatchRunner& runner) {
  const std::size_t hidden = model.config().encoder.hidden;
  auto reference = [&](std::size_t ordinal, std::size_t top_k) {
    InferenceConfig inf = cfg.inference;
    inf.sparse.top_k = top_k;
    return model.Forward(RequestInput(cfg, trace[ordinal], ordinal, hidden),
                         inf);
  };
  std::vector<std::uint8_t> bad(trace.size(), 0);
  runner.Run(res.outputs.size(), [&](std::size_t i, Workspace&) {
    const std::size_t ordinal = res.offered_ids[i];
    if (!BitwiseEqual(res.outputs[i],
                      reference(ordinal, TopKOf(cfg, res, i)))) {
      bad[ordinal] = 1;
    }
  });
  runner.Run(res.cache_served.size(), [&](std::size_t j, Workspace&) {
    const CacheServedRequest& s = res.cache_served[j];
    const bool ok =
        s.leader_admitted != CacheServedRequest::npos()
            ? BitwiseEqual(s.output, res.outputs.at(s.leader_admitted))
            : BitwiseEqual(s.output, reference(s.offered_id,
                                               cfg.inference.sparse.top_k));
    if (!ok) bad[s.offered_id] = 1;
  });
  std::vector<std::size_t> failed;
  for (std::size_t i = 0; i < bad.size(); ++i) {
    if (bad[i] != 0) failed.push_back(i);
  }
  return failed;
}

/// Mean row cosine of served outputs against dense-fp32 Forward on a
/// fixed sample (evenly spaced over the served requests' ordinals).
double OutputCosine(const ModelInstance& model, const ServingEngineConfig& cfg,
                    const std::vector<TimedRequest>& trace,
                    const std::vector<FinalOutput>& final_out,
                    BatchRunner& runner) {
  std::vector<std::size_t> served;
  for (std::size_t i = 0; i < final_out.size(); ++i) {
    if (final_out[i].output != nullptr) served.push_back(i);
  }
  const std::size_t count = std::min(kCosineSample, served.size());
  std::vector<double> cos(count, 0.0);
  InferenceConfig dense;
  dense.mode = InferenceMode::kDenseFloat;
  const std::size_t hidden = model.config().encoder.hidden;
  runner.Run(count, [&](std::size_t j, Workspace&) {
    const std::size_t ordinal =
        served[(2 * j + 1) * served.size() / (2 * count)];
    const MatrixF ref = model.Forward(
        RequestInput(cfg, trace[ordinal], ordinal, hidden), dense);
    cos[j] = MeanRowCosine(*final_out[ordinal].output, ref);
  });
  double sum = 0;
  for (double c : cos) sum += c;
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

/// FNV-1a over an output's shape and float bits.  The closed loop keeps
/// this instead of its outputs, so their memory does not count as the
/// serving stack's; a mismatch against the reference's hash is a failure.
std::uint64_t OutputHash(const MatrixF& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(m.rows());
  mix(m.cols());
  for (float x : m.flat()) mix(std::bit_cast<std::uint32_t>(x));
  return h;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

Outcome RunEndToEnd(const Options& opt) {
  const Workload w = FindWorkload(opt.workload, opt.size);
  Outcome out;

  // ---- setup ------------------------------------------------------------
  std::unique_ptr<ModelInstance> model;
  std::vector<TimedRequest> trace;
  ServingEngineConfig cfg;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto t0 = Clock::now();
    model = std::make_unique<ModelInstance>(ReferenceModel(), kWeightSeed);
    trace = GenerateTrace(w, opt.seed);
    cfg = EngineConfig(w, model->config(), opt.seed, opt.threads);
    auto engine = std::make_unique<ServingEngine>(*model, cfg);
    setup_s.push_back(SecondsSince(t0));
  }

  const auto long_trace = GenerateTrace(w, opt.seed, kLatencyTraceScale);
  std::vector<std::size_t> sample = LengthStratifiedSample(
      long_trace,
      opt.size == Size::kTiny ? kLatencyRequests / 25 : kLatencyRequests);
  std::sort(sample.begin(), sample.end());  // send in arrival order
  ServingEngineConfig lat_cfg = cfg;
  lat_cfg.threads = 1;
  ServingEngine lat_engine(*model, lat_cfg);

  // ---- throughput passes and latency cycles, interleaved ------------------
  const double budget_s = opt.seconds / 2;  // per phase
  std::vector<double> tokens_per_s;
  ServingResult first;
  std::vector<FinalOutput> final_out;
  PhaseCount tp{"throughput"};
  std::size_t shed = 0;
  double tp_spent_s = 0;
  double peak_rss_mb = 0;

  std::vector<std::vector<double>> lat_ms(sample.size());
  std::vector<std::uint64_t> lat_hash(sample.size(), 0);
  std::vector<std::size_t> lat_top_k(sample.size(), 0);
  PhaseCount lat{"latency"};
  std::size_t cycles = 0;
  double lat_spent_s = 0;

  auto fits = [&](double spent, std::size_t reps) {
    return reps == 0 ||
           spent + spent / static_cast<double>(reps) <= budget_s;
  };
  while (fits(tp_spent_s, tokens_per_s.size()) ||
         fits(lat_spent_s, cycles)) {
    if (fits(tp_spent_s, tokens_per_s.size())) {
      ServingEngine engine(*model, cfg);
      const auto t0 = Clock::now();
      for (const TimedRequest& r : trace) engine.Push(r);
      ServingResult res = engine.Drain();
      const double wall = SecondsSince(t0);
      tp_spent_s += wall;

      const auto outs = FinalOutputs(cfg, res, trace.size());
      std::size_t tokens = 0;
      for (std::size_t i = 0; i < trace.size(); ++i) {
        if (outs[i].output != nullptr) tokens += trace[i].length;
      }
      tokens_per_s.push_back(static_cast<double>(tokens) / wall);
      tp.sent += trace.size();
      shed += res.admission.rejected;
      if (tokens_per_s.size() == 1) {
        first = std::move(res);
        final_out = FinalOutputs(cfg, first, trace.size());
        // Set-up plus one replay of the trace: later passes and cycles
        // only add allocator retention across their threads' arenas.
        peak_rss_mb = PeakRssMb();
      } else {
        // Later passes must reproduce the first pass bit for bit.
        for (std::size_t i = 0; i < trace.size(); ++i) {
          const MatrixF* now = outs[i].output;
          const MatrixF* then = final_out[i].output;
          const bool same = (now == nullptr) == (then == nullptr) &&
                            (now == nullptr || BitwiseEqual(*now, *then));
          if (!same) ++tp.mismatched;
        }
      }
    }
    if (fits(lat_spent_s, cycles)) {
      const auto c0 = Clock::now();
      for (std::size_t j = 0; j < sample.size(); ++j) {
        const std::vector<TimedRequest> one{long_trace[sample[j]]};
        const auto t0 = Clock::now();
        const ServingResult res = lat_engine.Replay(one);
        lat_ms[j].push_back(SecondsSince(t0) * 1e3);
        const FinalOutput got = FinalOutputs(lat_cfg, res, 1)[0];
        const std::uint64_t hash =
            got.output == nullptr ? 0 : OutputHash(*got.output);
        if (cycles == 0) {
          lat_hash[j] = hash;
          lat_top_k[j] = got.top_k;
        } else if (hash != lat_hash[j]) {
          ++lat.mismatched;  // later cycles must repeat the first
        }
      }
      lat_spent_s += SecondsSince(c0);
      ++cycles;
      lat_engine.InvalidateOwnedCache();
    }
  }
  lat.sent = sample.size() * cycles;

  // ---- output checks ----------------------------------------------------
  BatchRunner check_runner(opt.threads);
  tp.mismatched +=
      CheckOutputs(*model, cfg, trace, first, check_runner).size();
  tp.failed = shed + tp.mismatched;
  tp.succeeded = tp.sent - tp.failed;
  {
    std::atomic<std::size_t> bad{0};
    const std::size_t hidden = model->config().encoder.hidden;
    check_runner.Run(sample.size(), [&](std::size_t j, Workspace&) {
      InferenceConfig inf = lat_cfg.inference;
      inf.sparse.top_k = lat_top_k[j];
      const MatrixF ref = model->Forward(
          RequestInput(lat_cfg, long_trace[sample[j]], 0, hidden), inf);
      if (lat_top_k[j] == 0 || OutputHash(ref) != lat_hash[j]) ++bad;
    });
    lat.mismatched += bad.load();
    lat.failed = lat.mismatched;
    lat.succeeded = lat.sent - lat.failed;
  }

  std::vector<double> latency_ms;
  for (const auto& v : lat_ms) {
    latency_ms.push_back(*std::min_element(v.begin(), v.end()));
  }
  std::sort(latency_ms.begin(), latency_ms.end());
  const double cosine =
      OutputCosine(*model, cfg, trace, final_out, check_runner);
  // Over the throughput phase, whose pass count does not change the
  // ratio; output mismatches of either phase count as failures.
  const std::size_t served =
      tp.succeeded - std::min(tp.succeeded, lat.mismatched);
  const double served_frac =
      static_cast<double>(served) / static_cast<double>(tp.sent);

  out.phases = {tp, lat};
  out.metrics = {
      {"setup_s", Median(setup_s), "s", false, Source::kMeasured},
      {"tokens_per_s",
       *std::max_element(tokens_per_s.begin(), tokens_per_s.end()),
       "tokens/s", true, Source::kMeasured},
      {"latency_p50_ms", PercentileOfSorted(latency_ms, 0.50), "ms", false,
       Source::kMeasured},
      {"latency_p95_ms", PercentileOfSorted(latency_ms, 0.95), "ms", false,
       Source::kMeasured},
      {"modelled_p99_ms", first.report().p99_latency_s * 1e3, "ms", false,
       Source::kModelled},
      {"output_cosine", cosine, "cosine", true, Source::kExact},
      {"served_frac", served_frac, "fraction", true, Source::kExact},
      {"peak_rss_mb", peak_rss_mb, "MB", false, Source::kMeasured},
  };
  char note[160];
  std::snprintf(note, sizeof note,
                "throughput: %zu pass(es) of %zu requests, %zu threads; "
                "latency: %zu cycle(s) of %zu closed-loop requests, 1 thread",
                tokens_per_s.size(), trace.size(), opt.threads, cycles,
                sample.size());
  out.notes.push_back(note);
  std::snprintf(note, sizeof note,
                "failed_frac %.6f (shed %zu, output mismatches %zu)",
                1.0 - served_frac, shed, tp.mismatched + lat.mismatched);
  out.notes.push_back(note);
  return out;
}

}  // namespace latte::bench
