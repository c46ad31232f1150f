// Property tests for the tiled/packed/workspace GEMM family in
// tensor/kernels.hpp: every float variant must agree with the scalar
// reference within 1e-4 relative tolerance across odd shapes (1xN, Nx1,
// dims that are not multiples of any tile extent), the int8 GEMM must be
// bitwise equal to the naive triple loop, and reused scratch must never
// change results or keep allocating.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "runtime/workspace.hpp"
#include "tensor/kernels.hpp"
#include "tensor/matmul.hpp"
#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

namespace latte {
namespace {

// Scalar j-inner reference, double accumulation: the oracle every tiled
// variant is compared against.
MatrixF RefMatMul(const MatrixF& a, const MatrixF& b) {
  MatrixF c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

MatrixF RefMatMulBT(const MatrixF& a, const MatrixF& b) {
  MatrixF c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(j, k);
      c(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

// Naive int8 triple loop with int32 accumulation: the oracle the packed
// int8 GEMM must equal bit for bit.
MatrixI32 RefInt8Gemm(const MatrixI8& x, const MatrixI8& w) {
  MatrixI32 c(x.rows(), w.cols());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < w.cols(); ++j) {
      std::int32_t acc = 0;
      for (std::size_t p = 0; p < x.cols(); ++p) {
        acc += static_cast<std::int32_t>(x(i, p)) * w(p, j);
      }
      c(i, j) = acc;
    }
  }
  return c;
}

// Codes drawn uniformly from the full int8 range -128..127.
MatrixI8 RandomCodes(Rng& rng, std::size_t rows, std::size_t cols) {
  MatrixI8 m(rows, cols);
  for (auto& v : m.flat()) {
    v = static_cast<std::int8_t>(static_cast<int>(rng.NextIndex(256)) - 128);
  }
  return m;
}

// Writes the int16 activation operand of the packed GEMM for codes x
// into `a` (resized in place; the odd-k pad column is zeroed).
void WidenCodesInto(const MatrixI8& x, MatrixI16& a) {
  a.Resize(x.rows(), Int8ActivationWidth(x.cols()));
  std::fill(a.flat().begin(), a.flat().end(), std::int16_t{0});
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t p = 0; p < x.cols(); ++p) a(i, p) = x(i, p);
  }
}

MatrixI16 WidenCodes(const MatrixI8& x) {
  MatrixI16 a;
  WidenCodesInto(x, a);
  return a;
}

void ExpectNearRel(const MatrixF& got, const MatrixF& want, float rel) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float w = want.flat()[i];
    const float tol = rel * std::max(1.f, std::fabs(w));
    EXPECT_NEAR(got.flat()[i], w, tol) << "flat index " << i;
  }
}

// Shapes chosen to hit every tail path: single row/column, extents below,
// at and straddling the register-tile and K-tile boundaries of both the
// float GEMM (K-tile 256) and the int8 GEMM (K-tile 512 codes), odd k,
// and n and m that are not multiples of any register-tile extent.
using Shape = std::tuple<std::size_t, std::size_t, std::size_t>;  // n, k, m

const Shape kShapes[] = {
    {1, 1, 1},     {1, 7, 1},     {7, 1, 5},      {1, 64, 33},
    {5, 3, 2},     {4, 8, 8},     {6, 16, 16},    {17, 23, 31},
    {33, 65, 9},   {13, 256, 7},  {31, 300, 47},  {64, 511, 19},
    {11, 513, 23}, {7, 1027, 41}, {130, 128, 17},
};

class GemmShapeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(GemmShapeTest, TiledMatchesReference) {
  const auto [n, k, m] = GetParam();
  Rng rng(100 + n * 31 + k * 7 + m);
  const auto a = rng.NormalMatrix(n, k, 0.0, 1.0);
  const auto b = rng.NormalMatrix(k, m, 0.0, 1.0);
  const MatrixF want = RefMatMul(a, b);

  ExpectNearRel(MatMul(a, b), want, 1e-4f);  // allocating shim

  MatrixF c;
  MatMulInto(a, b, c);  // thread-local scratch
  ExpectNearRel(c, want, 1e-4f);

  GemmScratch scratch;
  MatrixF c2;
  MatMulInto(a, b, c2, scratch);  // caller scratch
  ExpectNearRel(c2, want, 1e-4f);
  EXPECT_EQ(c, c2) << "scratch choice must not change bits";
}

TEST_P(GemmShapeTest, TiledBTMatchesReference) {
  const auto [n, k, m] = GetParam();
  Rng rng(500 + n * 31 + k * 7 + m);
  const auto a = rng.NormalMatrix(n, k, 0.0, 1.0);
  const auto b = rng.NormalMatrix(m, k, 0.0, 1.0);  // (m x k): C = A B^T
  const MatrixF want = RefMatMulBT(a, b);

  ExpectNearRel(MatMulBT(a, b), want, 1e-4f);

  GemmScratch scratch;
  MatrixF c;
  MatMulBTInto(a, b, c, scratch);
  ExpectNearRel(c, want, 1e-4f);
  EXPECT_EQ(c, MatMulBT(a, b)) << "scratch choice must not change bits";
}

TEST_P(GemmShapeTest, Int8GemmIsExact) {
  const auto [n, k, m] = GetParam();
  Rng rng(1300 + n * 31 + k * 7 + m);
  const MatrixI8 x = RandomCodes(rng, n, k);
  const MatrixI8 w = RandomCodes(rng, k, m);
  const MatrixI32 want = RefInt8Gemm(x, w);

  MatrixI32 got;
  Int8GemmInto(x, w, got);  // packs w per call
  ASSERT_EQ(got.rows(), n);
  ASSERT_EQ(got.cols(), m);
  EXPECT_EQ(got, want);

  PackedInt8Weights packed;
  PackInt8WeightsInto(w, packed);
  MatrixI32 got_packed;
  Int8GemmPackedInto(WidenCodes(x), packed, got_packed);
  EXPECT_EQ(got_packed, want);

  // All -128: the largest product magnitude, in every pair of every row.
  const MatrixI8 xmin(n, k, std::int8_t{-128});
  const MatrixI8 wmin(k, m, std::int8_t{-128});
  Int8GemmInto(xmin, wmin, got);
  for (const std::int32_t v : got.flat()) {
    ASSERT_EQ(v, static_cast<std::int32_t>(k) * 128 * 128);
  }
  // Mixed extremes: -128 against 127 gives the most negative pair sums.
  const MatrixI8 wmax(k, m, std::int8_t{127});
  Int8GemmInto(xmin, wmax, got);
  EXPECT_EQ(got, RefInt8Gemm(xmin, wmax));
}

INSTANTIATE_TEST_SUITE_P(OddShapes, GemmShapeTest,
                         ::testing::ValuesIn(kShapes));

TEST(KernelsTest, ArchNameIsKnown) {
  const std::string arch = KernelArchName();
  EXPECT_TRUE(arch == "avx2+fma" || arch == "portable") << arch;
}

TEST(KernelsTest, EmptyExtentsYieldZeroSizedOrZeroedOutputs) {
  GemmScratch scratch;
  MatrixF c;
  MatMulInto(MatrixF(0, 5), MatrixF(5, 3), c, scratch);
  EXPECT_EQ(c.rows(), 0u);
  EXPECT_EQ(c.cols(), 3u);
  // k == 0: the product is defined and all-zero.
  MatMulInto(MatrixF(4, 0), MatrixF(0, 3), c, scratch);
  EXPECT_EQ(c.rows(), 4u);
  for (float v : c.flat()) EXPECT_EQ(v, 0.f);
  MatMulBTInto(MatrixF(2, 0), MatrixF(3, 0), c, scratch);
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 3u);
  for (float v : c.flat()) EXPECT_EQ(v, 0.f);
}

TEST(KernelsTest, ShapeMismatchThrows) {
  GemmScratch scratch;
  MatrixF c;
  EXPECT_THROW(MatMulInto(MatrixF(2, 3), MatrixF(4, 2), c, scratch),
               std::invalid_argument);
  EXPECT_THROW(MatMulBTInto(MatrixF(2, 3), MatrixF(4, 2), c, scratch),
               std::invalid_argument);
  MatrixI32 acc;
  EXPECT_THROW(Int8GemmInto(MatrixI8(2, 3), MatrixI8(4, 2), acc),
               std::invalid_argument);
  PackedInt8Weights packed;
  PackInt8WeightsInto(MatrixI8(3, 2), packed);
  // k = 3 needs activation rows of width 4 (two K-pairs).
  EXPECT_THROW(Int8GemmPackedInto(MatrixI16(2, 3), packed, acc),
               std::invalid_argument);
  EXPECT_NO_THROW(Int8GemmPackedInto(MatrixI16(2, 4), packed, acc));
}

TEST(KernelsTest, Int8ArchNameIsKnown) {
  const std::string arch = Int8KernelArchName();
  EXPECT_TRUE(arch == "avx2" || arch == "sse2" || arch == "portable") << arch;
}

TEST(KernelsTest, PackedInt8WeightsReusedAcrossGrowingAndShrinkingN) {
  // One packed weight and one GemmScratch serve every row count; stale
  // activation or accumulator rows from a larger call must never leak
  // into a smaller one, and the buffers stop growing at the largest shape.
  Rng rng(82);
  const MatrixI8 w = RandomCodes(rng, 131, 45);  // odd k, ragged panels
  PackedInt8Weights packed;
  PackInt8WeightsInto(w, packed);
  const std::size_t packed_capacity = packed.panels.capacity();
  GemmScratch scratch;
  std::size_t scratch_bytes = 0;
  for (const std::size_t n : {1u, 5u, 64u, 200u, 3u, 131u, 0u, 200u, 7u}) {
    const MatrixI8 x = RandomCodes(rng, n, 131);
    WidenCodesInto(x, scratch.a16);
    Int8GemmPackedInto(scratch.a16, packed, scratch.acc);
    EXPECT_EQ(scratch.acc, RefInt8Gemm(x, w)) << "n=" << n;
    if (n == 200) scratch_bytes = scratch.CapacityBytes();
  }
  EXPECT_EQ(scratch.CapacityBytes(), scratch_bytes);
  EXPECT_EQ(packed.panels.capacity(), packed_capacity);
}

TEST(KernelsTest, RepackingReusesStorageAndTracksTheNewWeights) {
  Rng rng(83);
  PackedInt8Weights packed;
  const MatrixI8 big = RandomCodes(rng, 64, 40);
  const MatrixI8 small = RandomCodes(rng, 9, 3);
  const MatrixI8 x_small = RandomCodes(rng, 6, 9);
  PackInt8WeightsInto(big, packed);
  const std::size_t capacity = packed.panels.capacity();
  PackInt8WeightsInto(small, packed);
  EXPECT_EQ(packed.panels.capacity(), capacity);
  MatrixI32 got;
  Int8GemmPackedInto(WidenCodes(x_small), packed, got);
  EXPECT_EQ(got, RefInt8Gemm(x_small, small));
}

TEST(KernelsTest, ScratchShrinksAndRegrowsWithoutValueChanges) {
  // One scratch reused across wildly different shapes: results must match
  // fresh-scratch runs bit for bit in both directions.
  GemmScratch scratch;
  Rng rng(77);
  const auto big_a = rng.NormalMatrix(40, 300, 0.0, 1.0);
  const auto big_b = rng.NormalMatrix(300, 50, 0.0, 1.0);
  const auto small_a = rng.NormalMatrix(3, 5, 0.0, 1.0);
  const auto small_b = rng.NormalMatrix(5, 2, 0.0, 1.0);

  MatrixF big1, small1, big2;
  MatMulInto(big_a, big_b, big1, scratch);
  MatMulInto(small_a, small_b, small1, scratch);
  MatMulInto(big_a, big_b, big2, scratch);
  EXPECT_EQ(big1, big2);

  GemmScratch fresh;
  MatrixF small_fresh;
  MatMulInto(small_a, small_b, small_fresh, fresh);
  EXPECT_EQ(small1, small_fresh);
}

TEST(KernelsTest, ScratchStopsAllocatingAtSteadyState) {
  GemmScratch scratch;
  Rng rng(78);
  const auto a = rng.NormalMatrix(30, 200, 0.0, 1.0);
  const auto b = rng.NormalMatrix(200, 60, 0.0, 1.0);
  MatrixF c;
  MatMulInto(a, b, c, scratch);
  const std::size_t bytes = scratch.CapacityBytes();
  EXPECT_GT(bytes, 0u);
  for (int r = 0; r < 5; ++r) MatMulInto(a, b, c, scratch);
  EXPECT_EQ(scratch.CapacityBytes(), bytes);
}

TEST(KernelsTest, WorkspaceLeasesGemmScratch) {
  Workspace ws;
  const std::size_t leases_before = ws.leases();
  GemmScratch& gs = ws.gemm();
  EXPECT_EQ(ws.leases(), leases_before + 1);

  Rng rng(79);
  const auto a = rng.NormalMatrix(20, 100, 0.0, 1.0);
  const auto b = rng.NormalMatrix(100, 30, 0.0, 1.0);
  MatrixF c;
  MatMulInto(a, b, c, gs);
  const std::size_t bytes = ws.CapacityBytes();
  EXPECT_GT(gs.CapacityBytes(), 0u);
  EXPECT_GE(bytes, gs.CapacityBytes());
  MatMulInto(a, b, c, ws.gemm());
  EXPECT_EQ(ws.CapacityBytes(), bytes) << "steady state must not reallocate";

  ws.Reset();
  EXPECT_EQ(ws.CapacityBytes(), 0u);
}

TEST(KernelsTest, DotProductMatchesSerialWithinTolerance) {
  Rng rng(80);
  for (std::size_t len : {0u, 1u, 3u, 4u, 17u, 64u, 257u}) {
    std::vector<float> a(len), b(len);
    for (auto& v : a) v = static_cast<float>(rng.NextNormal());
    for (auto& v : b) v = static_cast<float>(rng.NextNormal());
    double ref = 0.0;
    for (std::size_t i = 0; i < len; ++i) {
      ref += static_cast<double>(a[i]) * b[i];
    }
    EXPECT_NEAR(DotProduct(a, b), ref, 1e-4 * std::max(1.0, std::fabs(ref)));
  }
  std::vector<float> a(3), b(4);
  EXPECT_THROW(DotProduct(a, b), std::invalid_argument);
}

}  // namespace
}  // namespace latte
