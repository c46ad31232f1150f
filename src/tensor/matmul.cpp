#include "tensor/matmul.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/kernels.hpp"

namespace latte {

MatrixF MatMul(const MatrixF& a, const MatrixF& b) {
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("MatMul: inner dimensions differ");
  }
  MatrixF c;
  MatMulInto(a, b, c);
  return c;
}

MatrixF MatMulBT(const MatrixF& a, const MatrixF& b) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("MatMulBT: inner dimensions differ");
  }
  MatrixF c;
  MatMulBTInto(a, b, c);
  return c;
}

MatrixF Transpose(const MatrixF& a) {
  MatrixF t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
  return t;
}

MatrixF Add(const MatrixF& a, const MatrixF& b) {
  MatrixF c;
  AddInto(a, b, c);
  return c;
}

void AddInto(const MatrixF& a, const MatrixF& b, MatrixF& out) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("Add: shape mismatch");
  }
  out.Resize(a.rows(), a.cols());
  auto af = a.flat();
  auto bf = b.flat();
  auto cf = out.flat();
  for (std::size_t i = 0; i < af.size(); ++i) cf[i] = af[i] + bf[i];
}

void AddBiasInPlace(MatrixF& a, std::span<const float> bias) {
  if (bias.size() != a.cols()) {
    throw std::invalid_argument("AddBiasInPlace: bias length mismatch");
  }
  for (std::size_t i = 0; i < a.rows(); ++i) {
    auto r = a.row(i);
    for (std::size_t j = 0; j < r.size(); ++j) r[j] += bias[j];
  }
}

void ScaleInPlace(MatrixF& a, float s) {
  for (auto& x : a.flat()) x *= s;
}

double FrobeniusDistance(const MatrixF& a, const MatrixF& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("FrobeniusDistance: shape mismatch");
  }
  double acc = 0.0;
  auto af = a.flat();
  auto bf = b.flat();
  for (std::size_t i = 0; i < af.size(); ++i) {
    const double d = static_cast<double>(af[i]) - static_cast<double>(bf[i]);
    acc += d * d;
  }
  return std::sqrt(acc);
}

double MeanRowCosine(const MatrixF& a, const MatrixF& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("MeanRowCosine: shape mismatch");
  }
  if (a.rows() == 0) return 1.0;
  double total = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    auto ra = a.row(i);
    auto rb = b.row(i);
    double dot = 0.0, na = 0.0, nb = 0.0;
    for (std::size_t j = 0; j < ra.size(); ++j) {
      dot += static_cast<double>(ra[j]) * rb[j];
      na += static_cast<double>(ra[j]) * ra[j];
      nb += static_cast<double>(rb[j]) * rb[j];
    }
    if (na == 0.0 && nb == 0.0) {
      total += 1.0;
    } else if (na == 0.0 || nb == 0.0) {
      // one row is zero, the other is not: orthogonal by convention
    } else {
      total += dot / (std::sqrt(na) * std::sqrt(nb));
    }
  }
  return total / static_cast<double>(a.rows());
}

}  // namespace latte
