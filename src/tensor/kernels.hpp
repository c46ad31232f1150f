#pragma once
// Tiled & vectorized dense kernel library -- the compute floor under every
// hot path (nn/linear, nn/qlinear, nn/attention, nn/encoder and the
// per-slot workspaces of runtime/batch_runner).
//
// The GEMM family is blocked three ways: the reduction dimension in K-tiles
// that keep a packed panel of B resident in L1, output columns in
// register-width panels (packed contiguously, zero-padded to the panel
// width so the micro-kernel never branches on a column tail), and output
// rows in register tiles.  The micro-kernel accumulates an MR x NR tile of
// C entirely in registers.  SIMD dispatch is compile-time: with AVX2+FMA
// available (build with -DLATTE_NATIVE_ARCH=ON) an intrinsics micro-kernel
// is selected; otherwise a portable register-tiled kernel that
// auto-vectorizes on the baseline ISA.  `KernelArchName()` reports which
// one was compiled in.
//
// The int8 GEMM runs the same blocked loop nest on its own operands.  B
// is packed once into int16 K-pair panels (PackedInt8Weights) and the
// activations are widened to int16 rows, so one multiply-add-pairs
// instruction (pmaddwd) computes a[2q]*w[2q][j] + a[2q+1]*w[2q+1][j] for a
// whole vector of columns: AVX2 `_mm256_madd_epi16` under
// -DLATTE_NATIVE_ARCH=ON, SSE2 `_mm_madd_epi16` on the x86-64 baseline,
// and a plain packed loop elsewhere.  `Int8KernelArchName()` names it.
// int8 products summed in int32 are exact, so every variant is bitwise
// equal to the naive triple loop.
//
// Float accumulation order differs from the naive triple loop, so float
// results agree with the scalar reference only to rounding (compare with
// relative tolerance; tests/kernels_test.cpp uses 1e-4).  Every kernel is
// deterministic: the same inputs produce bit-identical outputs on every
// call, with or without a reused scratch, which is what keeps the batched
// runtime's exact batch-vs-sequential tests meaningful.

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/matrix.hpp"

namespace latte {

/// Reusable packing scratch for the tiled GEMM family, plus the row-chunk
/// buffers QuantizedLinear::ForwardInto streams int8 GEMMs through.  Lease
/// one from a runtime Workspace (`ws.gemm()`) on hot paths; at
/// steady-state shapes the buffers stop growing and GEMM calls allocate
/// nothing.
struct GemmScratch {
  std::vector<float> bpack;  ///< packed B panels for the current K-tile
  MatrixI16 a16;             ///< int16 activation rows of one row chunk
  MatrixI32 acc;             ///< int32 accumulators of one row chunk

  std::size_t CapacityBytes() const {
    return bpack.capacity() * sizeof(float) +
           a16.capacity() * sizeof(std::int16_t) +
           acc.capacity() * sizeof(std::int32_t);
  }
};

/// A (k x m) int8 code matrix packed once for the int8 GEMM:
/// column panels of the micro-kernel's register width, each holding, per K-pair
/// q, the int16 pairs (w[2q][j], w[2q+1][j]) of its columns.  An odd k and
/// the last panel's column tail are zero-padded.  Build it with
/// PackInt8WeightsInto; the layout is private to the GEMM.
struct PackedInt8Weights {
  std::size_t rows = 0;             ///< k
  std::size_t cols = 0;             ///< m
  std::vector<std::int16_t> panels;
};

/// Compile-time selected float micro-kernel ISA: "avx2+fma" or "portable".
const char* KernelArchName();

/// Compile-time selected int8 micro-kernel: "avx2" (`_mm256_madd_epi16`),
/// "sse2" (`_mm_madd_epi16`) or "portable".
const char* Int8KernelArchName();

/// Row width of the int16 activation operand for a reduction extent k: k
/// rounded up to even, so every row is a whole number of K-pairs.
constexpr std::size_t Int8ActivationWidth(std::size_t k) {
  return k + (k & 1);
}

/// Packs `w` into `packed` (storage reused when it fits).
void PackInt8WeightsInto(const MatrixI8& w, PackedInt8Weights& packed);

/// Exact int8 GEMM on pre-packed weights: out = a * w, int32 accumulation.
/// `a` holds n rows of int8-range codes widened to int16, each of width
/// Int8ActivationWidth(w.rows) (the pad column of an odd k meets a zero
/// weight row, so its value does not matter).  out is resized to
/// (n x w.cols) and fully overwritten.  Throws on shape mismatch.
void Int8GemmPackedInto(const MatrixI16& a, const PackedInt8Weights& w,
                        MatrixI32& out);

/// C = A * B.  A is (n x k), B is (k x m); c is resized to (n x m) and
/// fully overwritten.  Throws on shape mismatch.  `c` must not alias `a`
/// or `b`.
void MatMulInto(const MatrixF& a, const MatrixF& b, MatrixF& c,
                GemmScratch& scratch);

/// As above with an internal thread-local scratch (thin-shim convenience
/// for call sites that have no Workspace).
void MatMulInto(const MatrixF& a, const MatrixF& b, MatrixF& c);

/// C = A * B[:, col0:col1): the column slice of the product one tensor-
/// parallel shard owns.  A is (n x k), B is (k x m); c is resized to
/// (n x col1-col0) and fully overwritten.  Each output element is reduced
/// in exactly the K-tile order of the full GEMM (packing a column window
/// shifts panel boundaries, never the reduction order), so the result is
/// bit-identical to the corresponding columns of MatMulInto -- the
/// property the sharded encoder's bit-exactness contract rests on.
/// Throws on shape mismatch or an out-of-range column window.
void MatMulColumnsInto(const MatrixF& a, const MatrixF& b, std::size_t col0,
                       std::size_t col1, MatrixF& c, GemmScratch& scratch);

/// C = A * B[row0:row1, :): the partial product of a row-parallel shard
/// that owns reduction rows [row0, row1) of B.  A is (n x row1-row0) --
/// already the matching activation slice -- and c is resized to
/// (n x b.cols()) and fully overwritten.  Summing the per-shard partials
/// re-associates the reduction, so the row-parallel path agrees with the
/// monolithic GEMM only to rounding; callers that need bit-exact results
/// use the column-slice path instead.  Throws on shape mismatch or an
/// out-of-range row window.
void MatMulRowsInto(const MatrixF& a, const MatrixF& b, std::size_t row0,
                    std::size_t row1, MatrixF& c, GemmScratch& scratch);

/// C = A * B^T.  A is (n x d), B is (m x d); c is resized to (n x m) and
/// fully overwritten.  The natural layout for attention scores S = Q K^T.
/// Throws on shape mismatch.  `c` must not alias `a` or `b`.
void MatMulBTInto(const MatrixF& a, const MatrixF& b, MatrixF& c,
                  GemmScratch& scratch);

/// As above with an internal thread-local scratch.
void MatMulBTInto(const MatrixF& a, const MatrixF& b, MatrixF& c);

/// Exact int8 GEMM with int32 accumulation: out = x * w where x is
/// (n x k) codes and w is (k x m) codes.  Packs w and widens x into
/// thread-local scratch on every call, then runs Int8GemmPackedInto; a
/// caller with static weights packs them once and calls that instead.
/// out is resized to (n x m) and fully overwritten.
void Int8GemmInto(const MatrixI8& x, const MatrixI8& w, MatrixI32& out);

/// Dot product with unrolled partial sums (reordered accumulation;
/// deterministic).  a and b must have equal length.
float DotProduct(std::span<const float> a, std::span<const float> b);

}  // namespace latte
