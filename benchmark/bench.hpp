#pragma once
// Shared declarations of the repository benchmark (see run.py for the
// command line and BENCHMARK.json for the workload list).
//
// The benchmark drives the serving stack through its public API only.
// One run executes either the untraced end-to-end phases (throughput and
// closed-loop latency, --trace 0) or the traced per-layer pass (--trace 1)
// on one named workload, checks every executed output against a
// sequential ModelInstance::Forward and reports named metrics.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "latte/latte.hpp"

namespace latte::bench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return PercentileOfSorted(v, 0.5);
}

/// Where a number comes from.
enum class Source {
  kMeasured,  ///< host wall clock (or process memory)
  kModelled,  ///< virtual time priced by the FPGA model; never a speed
  kExact,     ///< a count or output property that repeats exactly
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  bool higher_is_better = false;
  Source source = Source::kMeasured;
};

/// Workload sizes.  kFull is what the benchmark measures; kTiny is the
/// self-test's size, small enough to run every workload several times.
enum class Size { kFull, kTiny };

/// Everything one run needs.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;       ///< run the traced layer pass instead
  std::size_t threads = 4;  ///< BatchRunner threads of the load generator
  Size size = Size::kFull;
  std::string trace_out;    ///< Chrome trace file of the layer pass
};

/// Requests sent, succeeded and failed in one phase.
struct PhaseCount {
  std::string phase;
  std::size_t sent = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;  ///< refused, shed or output mismatch
  std::size_t mismatched = 0;  ///< output check failures among `failed`
};

/// The outcome of one run.
struct Outcome {
  std::vector<Metric> metrics;
  std::vector<PhaseCount> phases;
  std::vector<std::string> notes;  ///< human-readable extra lines
};

// ------------------------------------------------------------ workloads --

/// A named workload: its trace generator and its engine configuration.
struct Workload {
  std::string name;
  DatasetSpec dataset;
  enum class Arrivals { kPoisson, kZipf, kRamp } arrivals;
  double rate_rps = 0;         ///< Poisson / Zipf mean rate
  std::size_t requests = 0;    ///< Poisson / Zipf trace size
  std::size_t population = 0;  ///< Zipf identities
  double skew = 0;             ///< Zipf exponent
  std::vector<RampStage> stages;  ///< ramp stages
  double timeout_s = 0;        ///< batch former timeout
  bool cache = false;
  bool adaptive = false;
};

/// The workload called `name` at `size`; throws std::invalid_argument on
/// an unknown name.
Workload FindWorkload(const std::string& name, Size size);

/// The reference model: BERT-base scaled down by 6, with weights drawn
/// from kWeightSeed.
ModelConfig ReferenceModel();
inline constexpr std::uint64_t kWeightSeed = 2022;

/// The workload's request trace; `scale` multiplies its length (the
/// closed-loop phase samples from a longer trace of the same workload).
std::vector<TimedRequest> GenerateTrace(const Workload& w, std::uint64_t seed,
                                        std::size_t scale = 1);

/// The serving engine configuration of the workload.
ServingEngineConfig EngineConfig(const Workload& w, const ModelConfig& model,
                                 std::uint64_t seed, std::size_t threads);

/// The top-k an admitted entry ran at (its tier's, or the engine's).
std::size_t TopKOf(const ServingEngineConfig& cfg, const ServingResult& res,
                   std::size_t admitted);

/// What one offered request was finally served.
struct FinalOutput {
  const MatrixF* output = nullptr;  ///< null when shed
  std::size_t top_k = 0;            ///< the top-k the output ran at
};

/// The final output of every offered request of a drained stream (an
/// escalated request's re-run, a cache-served request's copy).
std::vector<FinalOutput> FinalOutputs(const ServingEngineConfig& cfg,
                                      const ServingResult& res,
                                      std::size_t offered);

/// The input embedding the engine serves for offered request `ordinal`.
MatrixF RequestInput(const ServingEngineConfig& cfg, const TimedRequest& r,
                     std::size_t ordinal, std::size_t hidden);

/// `count` indices into `trace` spread evenly over its length order
/// (ties in trace order), one request per distinct content.  Percentiles
/// of such a sample follow the trace's length distribution with the
/// trace's sample size instead of the sample's.
std::vector<std::size_t> LengthStratifiedSample(
    const std::vector<TimedRequest>& trace, std::size_t count);

// -------------------------------------------------------------- phases --

/// Bitwise equality of two matrices (shape and every float's bits).
bool BitwiseEqual(const MatrixF& a, const MatrixF& b);

/// The untraced end-to-end phases (setup, throughput, latency).
Outcome RunEndToEnd(const Options& opt);

// ------------------------------------------------------------- tracing --

/// One span of the layer pass, in wall-clock seconds since the pass began.
struct Span {
  std::string name;
  double begin_s = 0;
  double end_s = 0;
  std::int64_t parent = -1;      ///< index of the enclosing span, or -1
  std::int64_t request = -1;     ///< trace ordinal the span serves, or -1
  std::uint32_t thread = 0;      ///< 0 = the driving thread, else slot + 1
};

/// In-memory span recorder of the layer pass.  Disabled, it records
/// nothing; either way the pass runs the same calls.  Spans are opened
/// and closed on the driving thread; spans of items run by a BatchRunner
/// are added after the batch with AddChild.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled);

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when disabled.
  std::int64_t Begin(std::string name, std::int64_t request = -1);
  void End(std::int64_t span);

  /// Adds a closed span under `parent` with explicit times (seconds since
  /// the recorder's origin).
  void AddChild(std::int64_t parent, std::string name, double begin_s,
                double end_s, std::int64_t request, std::uint32_t thread);

  /// Seconds since the recorder's origin.
  double Now() const { return SecondsSince(origin_); }

  /// Self time per span name: each span's duration minus the part of it
  /// its children cover, summed over spans of that name (seconds).
  std::vector<std::pair<std::string, double>> SelfTimes() const;

  /// Writes the spans as Chrome trace-event JSON (Perfetto loads it).
  std::string ChromeTraceJson() const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// RAII span guard.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, std::int64_t request = -1)
      : rec_(rec), id_(rec.Begin(std::move(name), request)) {}
  ~ScopedSpan() { rec_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  std::int64_t id_;
};

/// The traced per-layer pass.
Outcome RunLayers(const Options& opt);

}  // namespace latte::bench
