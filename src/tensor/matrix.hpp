#pragma once
// Row-major dense matrix used throughout LATTE.
//
// This is deliberately a small, value-semantic container (C.10, C.20): the
// simulator and the algorithm reference implementations need predictable
// storage, spans over rows, and nothing else.  All heavy lifting (matmul,
// quantization) lives in free functions so that alternative backends (the LUT
// integer path, the fused attention kernel) can share the storage type.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace latte {

/// Dense row-major matrix of `T`.
///
/// Invariants: `data_.size() == rows_ * cols_` always holds; `rows_`/`cols_`
/// may be zero (empty matrix).  Indexing is checked with `assert` in debug
/// builds and unchecked in release builds.
template <typename T>
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix, value-initialized (zeros for arithmetic T).
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols) {}

  /// Creates a rows x cols matrix filled with `init`.
  Matrix(std::size_t rows, std::size_t cols, T init)
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  /// Builds a matrix from a flat row-major buffer.
  /// Throws std::invalid_argument if the buffer size does not match.
  static Matrix FromFlat(std::size_t rows, std::size_t cols,
                         std::vector<T> flat) {
    if (flat.size() != rows * cols) {
      throw std::invalid_argument("Matrix::FromFlat: size mismatch");
    }
    Matrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_ = std::move(flat);
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  /// Elements the underlying storage can hold without reallocating (grows
  /// monotonically under Resize; the scratch-reuse accounting reads this).
  std::size_t capacity() const { return data_.capacity(); }
  bool empty() const { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  const T& operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Mutable view of row `r`.
  std::span<T> row(std::size_t r) {
    assert(r < rows_);
    return std::span<T>(data_.data() + r * cols_, cols_);
  }
  /// Read-only view of row `r`.
  std::span<const T> row(std::size_t r) const {
    assert(r < rows_);
    return std::span<const T>(data_.data() + r * cols_, cols_);
  }

  std::span<T> flat() { return std::span<T>(data_); }
  std::span<const T> flat() const { return std::span<const T>(data_); }

  /// Reshapes to rows x cols, reusing the existing allocation whenever the
  /// new extent fits the current capacity.  Element values in the reused
  /// region are unspecified after the call (scratch-buffer semantics): the
  /// caller is expected to overwrite every cell.  New cells appended beyond
  /// the previous size are value-initialized by std::vector.
  void Resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  bool operator==(const Matrix& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using MatrixF = Matrix<float>;
using MatrixI8 = Matrix<std::int8_t>;
using MatrixI16 = Matrix<std::int16_t>;
using MatrixI32 = Matrix<std::int32_t>;

}  // namespace latte
