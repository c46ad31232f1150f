// Kernel-level GFLOP/s benchmarks: the tiled/packed GEMM library versus
// the seed's scalar triple loop, across the paper's encoder shapes
// (BERT-base: hidden 768, FFN 3072, head_dim 64; MRPC/SQuAD sequence
// lengths).  Single thread, deterministic inputs.  Emits machine-readable
// JSON (BENCH_kernels.json, or argv[1]) for the CI perf-regression gate;
// the dimensionless speedups are what the gate compares against
// bench/baselines/, since absolute GFLOP/s move with the host.
//
// The int8 cells time the packed int8 GEMM on pre-packed weights (the
// path QuantizedLinear runs) against a scalar int8 triple loop at the
// served model's shapes (hidden 128, FFN 512), reported in GOP/s under a
// separate "int8" key so the float min/geomean speedups keep their
// meaning.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/json_writer.hpp"
#include "latte/latte.hpp"

namespace latte {
namespace {

using Clock = std::chrono::steady_clock;

volatile float g_sink = 0;  // keeps results alive past the optimizer

// The seed's scalar i-k-j A*B loop (it skipped zero elements of A; on
// dense random inputs that test never fires).
MatrixF ScalarMatMul(const MatrixF& a, const MatrixF& b) {
  MatrixF c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    auto ci = c.row(i);
    auto ai = a.row(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const float aik = ai[k];
      if (aik == 0.f) continue;
      auto bk = b.row(k);
      for (std::size_t j = 0; j < b.cols(); ++j) ci[j] += aik * bk[j];
    }
  }
  return c;
}

// Scalar i-k-j int8 loop with int32 accumulation: the reference the
// packed int8 GEMM is timed against.
void ScalarInt8Gemm(const MatrixI8& x, const MatrixI8& w, MatrixI32& out) {
  out.Resize(x.rows(), w.cols());
  std::fill(out.flat().begin(), out.flat().end(), 0);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    auto oi = out.row(i);
    for (std::size_t p = 0; p < x.cols(); ++p) {
      const std::int32_t a = x(i, p);
      auto wp = w.row(p);
      for (std::size_t j = 0; j < w.cols(); ++j) oi[j] += a * wp[j];
    }
  }
}

// The seed's scalar A*B^T loop (dot-product orientation, serial
// accumulation), kept here as the baseline MatMulBT shed when it moved
// onto the tiled kernel.
MatrixF ScalarMatMulBT(const MatrixF& a, const MatrixF& b) {
  MatrixF c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    auto ai = a.row(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      auto bj = b.row(j);
      float acc = 0.f;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += ai[k] * bj[k];
      c(i, j) = acc;
    }
  }
  return c;
}

struct ShapeResult {
  std::string op;     // "matmul" or "matmul_bt"
  std::string label;  // which encoder op this shape is
  std::size_t m = 0, k = 0, n = 0;
  double scalar_gflops = 0;
  double tiled_gflops = 0;
  double speedup = 0;
};

// Times `fn` (which must consume its result into g_sink) until at least
// `min_s` seconds and 3 repetitions have elapsed; returns seconds/call.
template <typename Fn>
double TimePerCall(Fn&& fn, double min_s = 0.25) {
  fn();  // warm-up: page in, grow scratch to steady state
  int reps = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    fn();
    ++reps;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < min_s || reps < 3);
  return elapsed / reps;
}

ShapeResult BenchGemm(const std::string& label, std::size_t m, std::size_t k,
                      std::size_t n, Rng& rng) {
  const auto a = rng.NormalMatrix(m, k, 0.0, 1.0);
  const auto b = rng.NormalMatrix(k, n, 0.0, 1.0);
  const double flop = 2.0 * m * k * n;

  const double scalar_s =
      TimePerCall([&] { g_sink = g_sink + ScalarMatMul(a, b)(0, 0); });

  GemmScratch scratch;
  MatrixF c;
  const double tiled_s = TimePerCall([&] {
    MatMulInto(a, b, c, scratch);
    g_sink = g_sink + c(0, 0);
  });

  ShapeResult r;
  r.op = "matmul";
  r.label = label;
  r.m = m;
  r.k = k;
  r.n = n;
  r.scalar_gflops = flop / scalar_s * 1e-9;
  r.tiled_gflops = flop / tiled_s * 1e-9;
  r.speedup = scalar_s / tiled_s;
  return r;
}

ShapeResult BenchGemmBT(const std::string& label, std::size_t m,
                        std::size_t rows_b, std::size_t d, Rng& rng) {
  const auto a = rng.NormalMatrix(m, d, 0.0, 1.0);
  const auto b = rng.NormalMatrix(rows_b, d, 0.0, 1.0);
  const double flop = 2.0 * m * d * rows_b;

  const double scalar_s =
      TimePerCall([&] { g_sink = g_sink + ScalarMatMulBT(a, b)(0, 0); });

  GemmScratch scratch;
  MatrixF c;
  const double tiled_s = TimePerCall([&] {
    MatMulBTInto(a, b, c, scratch);
    g_sink = g_sink + c(0, 0);
  });

  ShapeResult r;
  r.op = "matmul_bt";
  r.label = label;
  r.m = m;
  r.k = d;
  r.n = rows_b;
  r.scalar_gflops = flop / scalar_s * 1e-9;
  r.tiled_gflops = flop / tiled_s * 1e-9;
  r.speedup = scalar_s / tiled_s;
  return r;
}

struct Int8Result {
  std::string label;
  std::size_t m = 0, k = 0, n = 0;
  double scalar_gops = 0;
  double packed_gops = 0;
  double speedup = 0;
};

MatrixI8 RandomCodes(Rng& rng, std::size_t rows, std::size_t cols) {
  MatrixI8 c(rows, cols);
  for (auto& v : c.flat()) {
    v = static_cast<std::int8_t>(static_cast<int>(rng.NextIndex(255)) - 127);
  }
  return c;
}

Int8Result BenchInt8Gemm(const std::string& label, std::size_t m,
                         std::size_t k, std::size_t n, Rng& rng) {
  const MatrixI8 x = RandomCodes(rng, m, k);
  const MatrixI8 w = RandomCodes(rng, k, n);
  const double ops = 2.0 * m * k * n;

  MatrixI32 ref;
  const double scalar_s = TimePerCall([&] {
    ScalarInt8Gemm(x, w, ref);
    g_sink = g_sink + static_cast<float>(ref(0, 0));
  });

  // Weights packed once and activations widened once, as QuantizedLinear
  // holds them; the timed call is the GEMM alone.
  PackedInt8Weights packed;
  PackInt8WeightsInto(w, packed);
  MatrixI16 a(m, Int8ActivationWidth(k));
  for (std::size_t i = 0; i < m; ++i) {
    std::copy(x.row(i).begin(), x.row(i).end(), a.row(i).begin());
  }
  MatrixI32 out;
  const double packed_s = TimePerCall([&] {
    Int8GemmPackedInto(a, packed, out);
    g_sink = g_sink + static_cast<float>(out(0, 0));
  });
  if (out != ref) {
    std::fprintf(stderr, "int8 %s: packed GEMM differs from scalar loop\n",
                 label.c_str());
    std::exit(1);
  }

  Int8Result r;
  r.label = label;
  r.m = m;
  r.k = k;
  r.n = n;
  r.scalar_gops = ops / scalar_s * 1e-9;
  r.packed_gops = ops / packed_s * 1e-9;
  r.speedup = scalar_s / packed_s;
  return r;
}

}  // namespace
}  // namespace latte

int main(int argc, char** argv) {
  using namespace latte;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_kernels.json";
  Rng rng(2022);

  // The encoder's GEMM population for BERT-base shapes: QKV/output
  // projections at MRPC- and SQuAD-like sequence lengths, both FFN
  // matmuls, and the per-head score matmul Q K^T.
  std::vector<ShapeResult> results;
  results.push_back(BenchGemm("qkv_proj_seq64", 64, 768, 768, rng));
  results.push_back(BenchGemm("qkv_proj_seq128", 128, 768, 768, rng));
  results.push_back(BenchGemm("ffn1_seq128", 128, 768, 3072, rng));
  results.push_back(BenchGemm("ffn2_seq128", 128, 3072, 768, rng));
  results.push_back(BenchGemmBT("scores_seq128_d64", 128, 128, 64, rng));
  results.push_back(BenchGemmBT("scores_seq384_d64", 384, 384, 64, rng));

  std::printf("== kernel GFLOP/s, arch=%s, single thread ==\n",
              KernelArchName());
  double min_speedup = 0, log_sum = 0;
  for (const auto& r : results) {
    std::printf("  %-18s %4zux%4zux%4zu  scalar %7.2f  tiled %7.2f  %5.2fx\n",
                r.label.c_str(), r.m, r.k, r.n, r.scalar_gflops,
                r.tiled_gflops, r.speedup);
    min_speedup =
        min_speedup == 0 ? r.speedup : std::min(min_speedup, r.speedup);
    log_sum += std::log(r.speedup);
  }
  const double geomean = std::exp(log_sum / results.size());
  std::printf("  min speedup %.2fx, geomean %.2fx\n", min_speedup, geomean);

  // The served model's int8 projections: QKV/Wo (128x128), FFN1
  // (128x512) and FFN2 (512x128), at one 64-row chunk and a long sequence.
  std::vector<Int8Result> int8;
  for (const std::size_t rows : {std::size_t{64}, std::size_t{256}}) {
    const std::string seq = "_seq" + std::to_string(rows);
    int8.push_back(BenchInt8Gemm("qkv_proj" + seq, rows, 128, 128, rng));
    int8.push_back(BenchInt8Gemm("ffn1" + seq, rows, 128, 512, rng));
    int8.push_back(BenchInt8Gemm("ffn2" + seq, rows, 512, 128, rng));
  }
  std::printf("\n== int8 GEMM GOP/s, int8 arch=%s, single thread ==\n",
              Int8KernelArchName());
  double int8_min = 0, int8_log_sum = 0;
  for (const auto& r : int8) {
    std::printf("  %-18s %4zux%4zux%4zu  scalar %7.2f  packed %7.2f  %5.2fx\n",
                r.label.c_str(), r.m, r.k, r.n, r.scalar_gops, r.packed_gops,
                r.speedup);
    int8_min = int8_min == 0 ? r.speedup : std::min(int8_min, r.speedup);
    int8_log_sum += std::log(r.speedup);
  }
  const double int8_geomean = std::exp(int8_log_sum / int8.size());
  std::printf("  min speedup %.2fx, geomean %.2fx\n", int8_min, int8_geomean);

  obs::JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("kernels");
  json.Key("schema_version").Value(std::size_t{1});
  StampHost(json);
  json.Key("arch").Value(KernelArchName());
  json.Key("single_thread").Value(true);
  json.Key("shapes");
  json.BeginArray();
  for (const auto& r : results) {
    json.BeginObject();
    json.Key("op").Value(r.op);
    json.Key("label").Value(r.label);
    json.Key("m").Value(r.m);
    json.Key("k").Value(r.k);
    json.Key("n").Value(r.n);
    json.Key("scalar_gflops").Value(r.scalar_gflops);
    json.Key("tiled_gflops").Value(r.tiled_gflops);
    json.Key("speedup").Value(r.speedup);
    json.EndObject();
  }
  json.EndArray();
  json.Key("min_speedup").Value(min_speedup);
  json.Key("geomean_speedup").Value(geomean);
  json.Key("int8");
  json.BeginObject();
  json.Key("arch").Value(Int8KernelArchName());
  json.Key("shapes");
  json.BeginArray();
  for (const auto& r : int8) {
    json.BeginObject();
    json.Key("label").Value(r.label);
    json.Key("m").Value(r.m);
    json.Key("k").Value(r.k);
    json.Key("n").Value(r.n);
    json.Key("scalar_gops").Value(r.scalar_gops);
    json.Key("packed_gops").Value(r.packed_gops);
    json.Key("speedup").Value(r.speedup);
    json.EndObject();
  }
  json.EndArray();
  json.Key("min_speedup").Value(int8_min);
  json.Key("geomean_speedup").Value(int8_geomean);
  json.EndObject();
  json.EndObject();
  if (!json.WriteFile(out_path)) return 1;
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
