// Repository benchmark program.
//
//   latte_benchmark --workload NAME --seed N --seconds S --trace 0|1
//                   [--threads N] [--size full|tiny] [--trace-out PATH]
//
// Prints a human-readable report (host stamp, every metric with its unit,
// direction and source, requests sent/succeeded/failed per phase) and, as
// the last line of standard output, one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when any output fails its check, 2 on a usage or run error.

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "obs/json_writer.hpp"

namespace latte::bench {
namespace {

const char* SourceName(Source s) {
  switch (s) {
    case Source::kMeasured:
      return "measured";
    case Source::kModelled:
      return "modelled";
    case Source::kExact:
      return "exact";
  }
  return "?";
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  opt.threads = std::min<std::size_t>(4, nproc);
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(val);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(val);
    } else if (arg == "--trace") {
      opt.trace = val == "1";
      if (val != "0" && val != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
    } else if (arg == "--threads") {
      opt.threads = std::stoul(val);
      if (opt.threads == 0) throw std::invalid_argument("--threads >= 1");
    } else if (arg == "--size") {
      if (val != "full" && val != "tiny") {
        throw std::invalid_argument("--size takes full or tiny");
      }
      opt.size = val == "tiny" ? Size::kTiny : Size::kFull;
    } else if (arg == "--trace-out") {
      opt.trace_out = val;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  FindWorkload(opt.workload, opt.size);  // rejects unknown names
  return opt;
}

void PrintReport(const Options& opt, const Outcome& out) {
  obs::JsonWriter host;
  host.BeginObject();
  host.Key("workload").Value(opt.workload);
  host.Key("seed").Value(static_cast<std::size_t>(opt.seed));
  host.Key("pass").Value(opt.trace ? "layers (traced)" : "end_to_end");
  host.Key("threads").Value(opt.threads);
  host.Key("nproc").Value(
      static_cast<std::size_t>(std::thread::hardware_concurrency()));
  obs::StampHost(host);
  host.EndObject();
  std::printf("host %s\n", host.str().c_str());
  std::printf("%-34s %16s %-9s %-7s %s\n", "metric", "value", "unit",
              "better", "source");
  for (const Metric& m : out.metrics) {
    std::printf("%-34s %16.6g %-9s %-7s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.higher_is_better ? "higher" : "lower",
                SourceName(m.source));
  }
  for (const PhaseCount& p : out.phases) {
    std::printf("phase %-12s sent %6zu succeeded %6zu failed %6zu "
                "(output mismatches %zu)\n",
                p.phase.c_str(), p.sent, p.succeeded, p.failed, p.mismatched);
  }
  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());
}

}  // namespace
}  // namespace latte::bench

int main(int argc, char** argv) {
  using namespace latte::bench;
  Options opt;
  Outcome out;
  try {
    opt = ParseArgs(argc, argv);
    out = opt.trace ? RunLayers(opt) : RunEndToEnd(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "latte_benchmark: %s\n", e.what());
    return 2;
  }
  PrintReport(opt, out);

  // Shed requests are the overload workload's designed outcome and are
  // reported through served_frac / adapt.shed_frac; `failed` counts
  // outputs that failed their check.
  std::size_t attempted = 0, failed = 0;
  for (const PhaseCount& p : out.phases) {
    attempted += p.sent;
    failed += p.mismatched;
  }
  latte::obs::JsonWriter json;
  json.BeginObject();
  json.Key("correct").Value(failed == 0);
  json.Key("attempted").Value(attempted);
  json.Key("failed").Value(failed);
  json.Key("metrics");
  json.BeginObject();
  for (const Metric& m : out.metrics) {
    json.Key(m.name);
    json.BeginObject();
    json.Key("value").ValueExact(m.value);
    json.Key("unit").Value(m.unit);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}
