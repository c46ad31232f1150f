#pragma once
// Dense float linear algebra used by the reference (non-sparse) paths.

#include "tensor/matrix.hpp"

namespace latte {

/// C = A * B.  A is (n x k), B is (k x m).  Throws on shape mismatch.
/// Thin allocating shim over the tiled kernel (tensor/kernels.hpp);
/// accumulation order matches MatMulInto bit for bit, not the naive loop.
MatrixF MatMul(const MatrixF& a, const MatrixF& b);

/// C = A * B^T.  A is (n x d), B is (m x d).  Throws on shape mismatch.
/// This is the natural layout for attention scores S = Q * K^T.  Thin
/// allocating shim over the tiled kernel, like MatMul.
MatrixF MatMulBT(const MatrixF& a, const MatrixF& b);

/// Returns A^T.
MatrixF Transpose(const MatrixF& a);

/// C = A + B (elementwise).  Throws on shape mismatch.
MatrixF Add(const MatrixF& a, const MatrixF& b);

/// out = A + B elementwise into a caller-owned matrix (resized, fully
/// overwritten) so reused scratch slots stay allocation-free.  `out` may
/// alias `a` or `b`.
void AddInto(const MatrixF& a, const MatrixF& b, MatrixF& out);

/// Adds a row vector `bias` (length == a.cols()) to every row of `a` in place.
void AddBiasInPlace(MatrixF& a, std::span<const float> bias);

/// Scales every element in place.
void ScaleInPlace(MatrixF& a, float s);

/// Frobenius norm of (a - b).  Throws on shape mismatch.
double FrobeniusDistance(const MatrixF& a, const MatrixF& b);

/// Mean cosine similarity between corresponding rows of a and b.
/// Rows with zero norm contribute similarity 1 if both are zero, else 0.
double MeanRowCosine(const MatrixF& a, const MatrixF& b);

}  // namespace latte
