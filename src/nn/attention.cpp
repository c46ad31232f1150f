#include "nn/attention.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "nn/ops.hpp"
#include "runtime/workspace.hpp"
#include "tensor/kernels.hpp"
#include "tensor/matmul.hpp"

namespace latte {

MatrixF DenseAttention(const MatrixF& q, const MatrixF& k, const MatrixF& v) {
  Workspace ws;
  return DenseAttentionMaskedWorkspace(q, k, v, 0, ws);
}

MatrixF DenseAttentionWorkspace(const MatrixF& q, const MatrixF& k,
                                const MatrixF& v, Workspace& ws) {
  return DenseAttentionMaskedWorkspace(q, k, v, 0, ws);
}

MatrixF DenseAttentionMaskedWorkspace(const MatrixF& q, const MatrixF& k,
                                      const MatrixF& v, std::size_t valid_len,
                                      Workspace& ws) {
  if (q.cols() != k.cols() || k.rows() != v.rows()) {
    throw std::invalid_argument("DenseAttention: shape mismatch");
  }
  MatrixF& s = ws.Float(wslots::kAttentionScores, q.rows(), k.rows());
  MatMulBTInto(q, k, s, ws.gemm());
  ScaleInPlace(s, 1.f / std::sqrt(static_cast<float>(q.cols())));
  if (valid_len > 0 && valid_len < k.rows()) {
    constexpr float kNegInf = -std::numeric_limits<float>::infinity();
    for (std::size_t i = 0; i < s.rows(); ++i) {
      auto row = s.row(i);
      for (std::size_t j = valid_len; j < row.size(); ++j) row[j] = kNegInf;
    }
  }
  SoftmaxRowsInPlace(s);
  MatrixF out;
  MatMulInto(s, v, out, ws.gemm());
  return out;
}

std::vector<MatrixF> SplitHeads(const MatrixF& x, std::size_t heads) {
  if (heads == 0 || x.cols() % heads != 0) {
    throw std::invalid_argument("SplitHeads: cols not divisible by heads");
  }
  const std::size_t d = x.cols() / heads;
  std::vector<MatrixF> out;
  out.reserve(heads);
  for (std::size_t h = 0; h < heads; ++h) {
    MatrixF m(x.rows(), d);
    for (std::size_t i = 0; i < x.rows(); ++i) {
      for (std::size_t j = 0; j < d; ++j) m(i, j) = x(i, h * d + j);
    }
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace latte
