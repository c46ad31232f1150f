#include "tensor/kernels.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#if defined(__AVX2__) || defined(__SSE2__)
#include <immintrin.h>
#endif

namespace latte {
namespace {

// Register-tile geometry.  With AVX2+FMA the micro-kernel holds an MR x NR
// tile as MR x 2 ymm accumulators (12 of the 16 ymm registers), leaving
// room for the two B loads and the A broadcast.  The portable kernel keeps
// a 4 x 8 tile in eight named 128-bit vectors (GNU vector extensions, so
// they are register-allocated on any ISA gcc/clang target); other
// compilers fall back to a plain scalar tile.
#if defined(__AVX2__) && defined(__FMA__)
constexpr std::size_t kMr = 6;
constexpr std::size_t kNr = 16;
#else
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 8;
#endif

// K-tile: one packed B panel is kKc x kNr floats (16 KiB at kNr = 16),
// L1-resident across the whole row sweep of an M-block.  M-block: the A
// rows touched per panel sweep (kMc x kKc floats = 128 KiB), L2-resident.
constexpr std::size_t kKc = 256;
constexpr std::size_t kMc = 128;

// Packs the (kc x m) window of B starting at row `pc`, column `col0` into
// kNr-wide column panels: panel jp holds window columns
// [jp*kNr, jp*kNr + kNr), stored p-major so the micro-kernel streams it
// contiguously.  The last panel is zero-padded to kNr columns; padded
// lanes contribute exact zeros to the accumulators, so the micro-kernel
// never branches on a column tail.  Full GEMMs pack col0 = 0, m = cols();
// the sharded column-slice GEMM packs a sub-window, which shifts panel
// boundaries but not the per-element reduction order -- that is what
// keeps column shards bit-exact against the monolithic product.
void PackB(const MatrixF& b, std::size_t col0, std::size_t m, std::size_t pc,
           std::size_t kc, float* dst) {
  const std::size_t panels = (m + kNr - 1) / kNr;
  for (std::size_t jp = 0; jp < panels; ++jp) {
    const std::size_t j0 = jp * kNr;
    const std::size_t nr = std::min(kNr, m - j0);
    float* out = dst + jp * kc * kNr;
    for (std::size_t p = 0; p < kc; ++p) {
      const float* src = b.row(pc + p).data() + col0 + j0;
      float* o = out + p * kNr;
      for (std::size_t j = 0; j < nr; ++j) o[j] = src[j];
      for (std::size_t j = nr; j < kNr; ++j) o[j] = 0.f;
    }
  }
}

// Transpose-pack for the A * B^T orientation: output column j of the
// product is row j of B, so panel jp gathers rows [jp*kNr, jp*kNr + kNr)
// of B at reduction offset pc.  Same layout and padding as PackB, which is
// what lets both GEMM orientations share one micro-kernel.
void PackBT(const MatrixF& b, std::size_t pc, std::size_t kc, float* dst) {
  const std::size_t m = b.rows();
  const std::size_t panels = (m + kNr - 1) / kNr;
  for (std::size_t jp = 0; jp < panels; ++jp) {
    const std::size_t j0 = jp * kNr;
    const std::size_t nr = std::min(kNr, m - j0);
    float* out = dst + jp * kc * kNr;
    for (std::size_t j = 0; j < nr; ++j) {
      const float* src = b.row(j0 + j).data() + pc;
      for (std::size_t p = 0; p < kc; ++p) out[p * kNr + j] = src[p];
    }
    for (std::size_t j = nr; j < kNr; ++j) {
      for (std::size_t p = 0; p < kc; ++p) out[p * kNr + j] = 0.f;
    }
  }
}

#if defined(__AVX2__) && defined(__FMA__)

// Full MR x NR micro-kernel, AVX2+FMA: 12 ymm accumulators, two B loads
// and one A broadcast per reduction step.
void MicroKernelFull(std::size_t kc, const float* a, std::size_t lda,
                     const float* bp, float* c, std::size_t ldc,
                     std::size_t nr) {
  __m256 acc[kMr][2];
  for (std::size_t i = 0; i < kMr; ++i) {
    acc[i][0] = _mm256_setzero_ps();
    acc[i][1] = _mm256_setzero_ps();
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(bp + p * kNr);
    const __m256 b1 = _mm256_loadu_ps(bp + p * kNr + 8);
    for (std::size_t i = 0; i < kMr; ++i) {
      const __m256 ai = _mm256_broadcast_ss(a + i * lda + p);
      acc[i][0] = _mm256_fmadd_ps(ai, b0, acc[i][0]);
      acc[i][1] = _mm256_fmadd_ps(ai, b1, acc[i][1]);
    }
  }
  if (nr == kNr) {
    for (std::size_t i = 0; i < kMr; ++i) {
      float* ci = c + i * ldc;
      _mm256_storeu_ps(ci, _mm256_add_ps(_mm256_loadu_ps(ci), acc[i][0]));
      _mm256_storeu_ps(ci + 8,
                       _mm256_add_ps(_mm256_loadu_ps(ci + 8), acc[i][1]));
    }
  } else {
    alignas(32) float tile[kMr][kNr];
    for (std::size_t i = 0; i < kMr; ++i) {
      _mm256_store_ps(tile[i], acc[i][0]);
      _mm256_store_ps(tile[i] + 8, acc[i][1]);
    }
    for (std::size_t i = 0; i < kMr; ++i) {
      float* ci = c + i * ldc;
      for (std::size_t j = 0; j < nr; ++j) ci[j] += tile[i][j];
    }
  }
}

#elif defined(__GNUC__) || defined(__clang__)

// Full 4 x 8 micro-kernel on GNU vector extensions: eight named 128-bit
// accumulators stay in registers across the whole reduction (a 2D local
// array does not -- the compiler spills it to the stack every iteration,
// which is slower than the naive loop it is meant to replace).
using V4 = float __attribute__((vector_size(16)));

inline V4 LoadV4(const float* p) {
  V4 v;
  __builtin_memcpy(&v, p, sizeof(v));  // unaligned-safe, no strict aliasing
  return v;
}

void MicroKernelFull(std::size_t kc, const float* a, std::size_t lda,
                     const float* bp, float* c, std::size_t ldc,
                     std::size_t nr) {
  V4 a00{}, a01{}, a10{}, a11{}, a20{}, a21{}, a30{}, a31{};
  for (std::size_t p = 0; p < kc; ++p) {
    const V4 b0 = LoadV4(bp + p * kNr);
    const V4 b1 = LoadV4(bp + p * kNr + 4);
    const float x0 = a[p];
    const float x1 = a[lda + p];
    const float x2 = a[2 * lda + p];
    const float x3 = a[3 * lda + p];
    a00 += x0 * b0;
    a01 += x0 * b1;
    a10 += x1 * b0;
    a11 += x1 * b1;
    a20 += x2 * b0;
    a21 += x2 * b1;
    a30 += x3 * b0;
    a31 += x3 * b1;
  }
  float tile[kMr][kNr];
  __builtin_memcpy(tile[0], &a00, sizeof(V4));
  __builtin_memcpy(tile[0] + 4, &a01, sizeof(V4));
  __builtin_memcpy(tile[1], &a10, sizeof(V4));
  __builtin_memcpy(tile[1] + 4, &a11, sizeof(V4));
  __builtin_memcpy(tile[2], &a20, sizeof(V4));
  __builtin_memcpy(tile[2] + 4, &a21, sizeof(V4));
  __builtin_memcpy(tile[3], &a30, sizeof(V4));
  __builtin_memcpy(tile[3] + 4, &a31, sizeof(V4));
  for (std::size_t i = 0; i < kMr; ++i) {
    float* ci = c + i * ldc;
    for (std::size_t j = 0; j < nr; ++j) ci[j] += tile[i][j];
  }
}

#else

// Full MR x NR micro-kernel, last-resort portable version: fixed-extent
// loops over a local accumulator tile, left to the auto-vectorizer.
void MicroKernelFull(std::size_t kc, const float* a, std::size_t lda,
                     const float* bp, float* c, std::size_t ldc,
                     std::size_t nr) {
  float acc[kMr][kNr] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* b = bp + p * kNr;
    for (std::size_t i = 0; i < kMr; ++i) {
      const float ai = a[i * lda + p];
      for (std::size_t j = 0; j < kNr; ++j) acc[i][j] += ai * b[j];
    }
  }
  for (std::size_t i = 0; i < kMr; ++i) {
    float* ci = c + i * ldc;
    for (std::size_t j = 0; j < nr; ++j) ci[j] += acc[i][j];
  }
}

#endif

// Row-tail micro-kernel (mr < kMr): one accumulator row at a time.
void MicroKernelTail(std::size_t mr, std::size_t kc, const float* a,
                     std::size_t lda, const float* bp, float* c,
                     std::size_t ldc, std::size_t nr) {
  for (std::size_t i = 0; i < mr; ++i) {
    float acc[kNr] = {};
    const float* ai = a + i * lda;
    for (std::size_t p = 0; p < kc; ++p) {
      const float aip = ai[p];
      const float* b = bp + p * kNr;
      for (std::size_t j = 0; j < kNr; ++j) acc[j] += aip * b[j];
    }
    float* ci = c + i * ldc;
    for (std::size_t j = 0; j < nr; ++j) ci[j] += acc[j];
  }
}

// Shared blocked driver.  `k` is the reduction extent, `m` the output
// width; `pack` materializes the packed panels of the current K-tile.
template <typename PackFn>
void TiledGemm(const MatrixF& a, std::size_t k, std::size_t m, MatrixF& c,
               GemmScratch& scratch, PackFn&& pack) {
  const std::size_t n = a.rows();
  c.Resize(n, m);
  std::fill(c.flat().begin(), c.flat().end(), 0.f);
  if (n == 0 || m == 0 || k == 0) return;

  const std::size_t panels = (m + kNr - 1) / kNr;
  scratch.bpack.resize(panels * std::min(kKc, k) * kNr);
  for (std::size_t pc = 0; pc < k; pc += kKc) {
    const std::size_t kc = std::min(kKc, k - pc);
    pack(pc, kc, scratch.bpack.data());
    for (std::size_t ic = 0; ic < n; ic += kMc) {
      const std::size_t mc = std::min(kMc, n - ic);
      for (std::size_t jp = 0; jp < panels; ++jp) {
        const std::size_t j0 = jp * kNr;
        const std::size_t nr = std::min(kNr, m - j0);
        const float* bp = scratch.bpack.data() + jp * kc * kNr;
        std::size_t ir = 0;
        for (; ir + kMr <= mc; ir += kMr) {
          MicroKernelFull(kc, a.row(ic + ir).data() + pc, a.cols(), bp,
                          c.row(ic + ir).data() + j0, m, nr);
        }
        if (ir < mc) {
          MicroKernelTail(mc - ir, kc, a.row(ic + ir).data() + pc, a.cols(),
                          bp, c.row(ic + ir).data() + j0, m, nr);
        }
      }
    }
  }
}

// ---------------------------------------------------------------- int8 --
//
// The int8 GEMM reduces over K-pairs: activations are int16 rows, and a
// packed weight panel holds, per pair q, the int16 pairs (w[2q][j],
// w[2q+1][j]) of its kNr8 columns, so one int32 lane of a panel row is one
// column's pair.  Broadcasting an activation pair (a[2q], a[2q+1]) as an
// int32 and multiply-adding pairs against a panel row yields the pair's
// contribution to every column at once.  The largest pair sum,
// 2 * (-128)^2 = 32768, fits an int32 lane, so no input overflows.
//
// Tile geometry: AVX2 keeps a 6 x 16 int32 tile in 12 ymm accumulators,
// SSE2 a 4 x 8 tile in 8 xmm, each with two panel loads and one broadcast
// in flight; the portable loop uses the SSE2 extents.  A K-tile of kKc8
// codes keeps one panel slice (kKc8 x kNr8 int16: 8 KiB at kNr8 = 8) in L1
// across the row sweep of an M-block.
#if defined(__AVX2__)
constexpr std::size_t kMr8 = 6;
constexpr std::size_t kNr8 = 16;
#else
constexpr std::size_t kMr8 = 4;
constexpr std::size_t kNr8 = 8;
#endif
constexpr std::size_t kKc8 = 512;
constexpr std::size_t kPairsPerTile = kKc8 / 2;

// One pair-row of a panel: kNr8 columns x 2 int16.
constexpr std::size_t kPanelRow = 2 * kNr8;

inline std::int32_t LoadPair(const std::int16_t* p) {
  std::int32_t v;
  std::memcpy(&v, p, sizeof(v));  // unaligned-safe, no strict aliasing
  return v;
}

// Writes one MR x nr accumulator tile into C: stores on the first K-tile,
// adds onto the partial sums of earlier K-tiles after it.
template <std::size_t MR>
void StoreTile(const std::int32_t (&tile)[MR][kNr8], std::int32_t* c,
               std::size_t ldc, std::size_t nr, bool accumulate) {
  for (std::size_t i = 0; i < MR; ++i) {
    std::int32_t* ci = c + i * ldc;
    if (accumulate) {
      for (std::size_t j = 0; j < nr; ++j) ci[j] += tile[i][j];
    } else {
      for (std::size_t j = 0; j < nr; ++j) ci[j] = tile[i][j];
    }
  }
}

#if defined(__AVX2__) || defined(__SSE2__)

#if defined(__AVX2__)
using VecI = __m256i;
inline VecI LoadVec(const std::int16_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline VecI LoadVec(const std::int32_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void StoreVec(std::int32_t* p, VecI v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}
inline VecI Broadcast(std::int32_t v) { return _mm256_set1_epi32(v); }
inline VecI MulAddPairs(VecI a, VecI b) { return _mm256_madd_epi16(a, b); }
inline VecI Add(VecI a, VecI b) { return _mm256_add_epi32(a, b); }
#else
using VecI = __m128i;
inline VecI LoadVec(const std::int16_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
inline VecI LoadVec(const std::int32_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
inline void StoreVec(std::int32_t* p, VecI v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}
inline VecI Broadcast(std::int32_t v) { return _mm_set1_epi32(v); }
inline VecI MulAddPairs(VecI a, VecI b) { return _mm_madd_epi16(a, b); }
inline VecI Add(VecI a, VecI b) { return _mm_add_epi32(a, b); }
#endif
// int32 lanes per vector, and vectors per panel row.
constexpr std::size_t kLanes8 = sizeof(VecI) / sizeof(std::int32_t);
constexpr std::size_t kVecs8 = kNr8 / kLanes8;
static_assert(kNr8 % kLanes8 == 0);

// MR x kNr8 micro-kernel over kq K-pairs: MR x kVecs8 vector accumulators
// stay in registers (every loop but the one over q is fully unrolled),
// each step loading one panel row and broadcasting one pair per row.
template <std::size_t MR>
void Int8MicroKernel(std::size_t kq, const std::int16_t* a, std::size_t lda,
                     const std::int16_t* bp, std::int32_t* c, std::size_t ldc,
                     std::size_t nr, bool accumulate) {
  VecI acc[MR][kVecs8];
  for (std::size_t i = 0; i < MR; ++i) {
    for (std::size_t v = 0; v < kVecs8; ++v) acc[i][v] = Broadcast(0);
  }
  for (std::size_t q = 0; q < kq; ++q) {
    VecI b[kVecs8];
    for (std::size_t v = 0; v < kVecs8; ++v) {
      b[v] = LoadVec(bp + q * kPanelRow + v * 2 * kLanes8);
    }
    for (std::size_t i = 0; i < MR; ++i) {
      const VecI ai = Broadcast(LoadPair(a + i * lda + 2 * q));
      for (std::size_t v = 0; v < kVecs8; ++v) {
        acc[i][v] = Add(acc[i][v], MulAddPairs(ai, b[v]));
      }
    }
  }
  if (nr == kNr8) {
    for (std::size_t i = 0; i < MR; ++i) {
      std::int32_t* ci = c + i * ldc;
      for (std::size_t v = 0; v < kVecs8; ++v) {
        if (accumulate) acc[i][v] = Add(acc[i][v], LoadVec(ci + v * kLanes8));
        StoreVec(ci + v * kLanes8, acc[i][v]);
      }
    }
    return;
  }
  std::int32_t tile[MR][kNr8];
  for (std::size_t i = 0; i < MR; ++i) {
    for (std::size_t v = 0; v < kVecs8; ++v) {
      StoreVec(tile[i] + v * kLanes8, acc[i][v]);
    }
  }
  StoreTile(tile, c, ldc, nr, accumulate);
}

#else

// Plain packed loop for targets without the x86 pair-multiply-add: the
// same panel walk on a local int32 tile, left to the auto-vectorizer.
template <std::size_t MR>
void Int8MicroKernel(std::size_t kq, const std::int16_t* a, std::size_t lda,
                     const std::int16_t* bp, std::int32_t* c, std::size_t ldc,
                     std::size_t nr, bool accumulate) {
  std::int32_t tile[MR][kNr8] = {};
  for (std::size_t q = 0; q < kq; ++q) {
    const std::int16_t* b = bp + q * kPanelRow;
    for (std::size_t i = 0; i < MR; ++i) {
      const std::int32_t a0 = a[i * lda + 2 * q];
      const std::int32_t a1 = a[i * lda + 2 * q + 1];
      for (std::size_t j = 0; j < kNr8; ++j) {
        tile[i][j] += a0 * b[2 * j] + a1 * b[2 * j + 1];
      }
    }
  }
  StoreTile(tile, c, ldc, nr, accumulate);
}

#endif

// Runs the micro-kernel instantiated for the mr rows left in this tile.
template <std::size_t MR = kMr8>
void Int8Tile(std::size_t mr, std::size_t kq, const std::int16_t* a,
              std::size_t lda, const std::int16_t* bp, std::int32_t* c,
              std::size_t ldc, std::size_t nr, bool accumulate) {
  if constexpr (MR > 1) {
    if (mr < MR) {
      Int8Tile<MR - 1>(mr, kq, a, lda, bp, c, ldc, nr, accumulate);
      return;
    }
  }
  Int8MicroKernel<MR>(kq, a, lda, bp, c, ldc, nr, accumulate);
}

GemmScratch& ThreadLocalScratch() {
  thread_local GemmScratch scratch;
  return scratch;
}

}  // namespace

const char* KernelArchName() {
#if defined(__AVX2__) && defined(__FMA__)
  return "avx2+fma";
#else
  return "portable";
#endif
}

const char* Int8KernelArchName() {
#if defined(__AVX2__)
  return "avx2";
#elif defined(__SSE2__)
  return "sse2";
#else
  return "portable";
#endif
}

void PackInt8WeightsInto(const MatrixI8& w, PackedInt8Weights& packed) {
  const std::size_t k = w.rows();
  const std::size_t m = w.cols();
  const std::size_t pairs = Int8ActivationWidth(k) / 2;
  const std::size_t panels = (m + kNr8 - 1) / kNr8;
  packed.rows = k;
  packed.cols = m;
  packed.panels.assign(panels * pairs * kPanelRow, 0);
  for (std::size_t jp = 0; jp < panels; ++jp) {
    const std::size_t j0 = jp * kNr8;
    const std::size_t nr = std::min(kNr8, m - j0);
    std::int16_t* panel = packed.panels.data() + jp * pairs * kPanelRow;
    for (std::size_t p = 0; p < k; ++p) {
      const std::int8_t* src = w.row(p).data() + j0;
      std::int16_t* dst = panel + (p / 2) * kPanelRow + (p & 1);
      for (std::size_t j = 0; j < nr; ++j) dst[2 * j] = src[j];
    }
  }
}

// Blocked int8 GEMM: K-tiles of kPairsPerTile pairs, M-blocks of kMc
// rows, kNr8-wide panels, kMr8-row register tiles.
void Int8GemmPackedInto(const MatrixI16& a, const PackedInt8Weights& w,
                        MatrixI32& out) {
  if (a.cols() != Int8ActivationWidth(w.rows)) {
    throw std::invalid_argument(
        "Int8GemmPackedInto: activation width does not match the weights");
  }
  const std::size_t n = a.rows();
  const std::size_t m = w.cols;
  const std::size_t pairs = a.cols() / 2;
  out.Resize(n, m);
  if (pairs == 0) {
    std::fill(out.flat().begin(), out.flat().end(), 0);
    return;
  }
  const std::size_t panels = (m + kNr8 - 1) / kNr8;
  for (std::size_t q0 = 0; q0 < pairs; q0 += kPairsPerTile) {
    const std::size_t kq = std::min(kPairsPerTile, pairs - q0);
    const bool accumulate = q0 > 0;
    for (std::size_t ic = 0; ic < n; ic += kMc) {
      const std::size_t mc = std::min(kMc, n - ic);
      for (std::size_t jp = 0; jp < panels; ++jp) {
        const std::size_t j0 = jp * kNr8;
        const std::size_t nr = std::min(kNr8, m - j0);
        const std::int16_t* bp =
            w.panels.data() + (jp * pairs + q0) * kPanelRow;
        for (std::size_t ir = 0; ir < mc; ir += kMr8) {
          Int8Tile(std::min(kMr8, mc - ir), kq,
                   a.row(ic + ir).data() + 2 * q0, a.cols(), bp,
                   out.row(ic + ir).data() + j0, m, nr, accumulate);
        }
      }
    }
  }
}

void MatMulInto(const MatrixF& a, const MatrixF& b, MatrixF& c,
                GemmScratch& scratch) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("MatMulInto: inner dimensions differ");
  }
  TiledGemm(a, a.cols(), b.cols(), c, scratch,
            [&b](std::size_t pc, std::size_t kc, float* dst) {
              PackB(b, 0, b.cols(), pc, kc, dst);
            });
}

void MatMulInto(const MatrixF& a, const MatrixF& b, MatrixF& c) {
  MatMulInto(a, b, c, ThreadLocalScratch());
}

void MatMulColumnsInto(const MatrixF& a, const MatrixF& b, std::size_t col0,
                       std::size_t col1, MatrixF& c, GemmScratch& scratch) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("MatMulColumnsInto: inner dimensions differ");
  }
  if (col0 > col1 || col1 > b.cols()) {
    throw std::invalid_argument("MatMulColumnsInto: column range out of bounds");
  }
  const std::size_t m = col1 - col0;
  TiledGemm(a, a.cols(), m, c, scratch,
            [&b, col0, m](std::size_t pc, std::size_t kc, float* dst) {
              PackB(b, col0, m, pc, kc, dst);
            });
}

void MatMulRowsInto(const MatrixF& a, const MatrixF& b, std::size_t row0,
                    std::size_t row1, MatrixF& c, GemmScratch& scratch) {
  if (row0 > row1 || row1 > b.rows()) {
    throw std::invalid_argument("MatMulRowsInto: row range out of bounds");
  }
  if (a.cols() != row1 - row0) {
    throw std::invalid_argument(
        "MatMulRowsInto: A width must equal the B row range");
  }
  TiledGemm(a, a.cols(), b.cols(), c, scratch,
            [&b, row0](std::size_t pc, std::size_t kc, float* dst) {
              PackB(b, 0, b.cols(), row0 + pc, kc, dst);
            });
}

void MatMulBTInto(const MatrixF& a, const MatrixF& b, MatrixF& c,
                  GemmScratch& scratch) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("MatMulBTInto: inner dimensions differ");
  }
  TiledGemm(a, a.cols(), b.rows(), c, scratch,
            [&b](std::size_t pc, std::size_t kc, float* dst) {
              PackBT(b, pc, kc, dst);
            });
}

void MatMulBTInto(const MatrixF& a, const MatrixF& b, MatrixF& c) {
  MatMulBTInto(a, b, c, ThreadLocalScratch());
}

void Int8GemmInto(const MatrixI8& x, const MatrixI8& w, MatrixI32& out) {
  if (x.cols() != w.rows()) {
    throw std::invalid_argument("Int8GemmInto: inner dimensions differ");
  }
  thread_local PackedInt8Weights packed;
  thread_local MatrixI16 wide;
  PackInt8WeightsInto(w, packed);
  const std::size_t k = x.cols();
  wide.Resize(x.rows(), Int8ActivationWidth(k));
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const auto src = x.row(i);
    const auto dst = wide.row(i);
    std::copy(src.begin(), src.end(), dst.begin());
    if (dst.size() > k) dst[k] = 0;
  }
  Int8GemmPackedInto(wide, packed, out);
}

float DotProduct(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("DotProduct: length mismatch");
  }
  float s0 = 0.f, s1 = 0.f, s2 = 0.f, s3 = 0.f;
  std::size_t i = 0;
  for (; i + 4 <= a.size(); i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  float s = (s0 + s1) + (s2 + s3);
  for (; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace latte
