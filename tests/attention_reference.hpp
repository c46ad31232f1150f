#pragma once
// Independent reference for Stage 2 of the sparse operator, shared by the
// attention test suites: a double-precision softmax of q.k/sqrt(d) over
// each query row's selected keys, weighting the matching V rows.  It
// shares no code with the fused kernels, so it checks them rather than
// restating them.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/candidate_selector.hpp"
#include "tensor/matrix.hpp"

namespace latte::oracle {

/// Context row of query row `i` attending only to keys `cand`.
inline std::vector<double> ReferenceContextRow(
    const MatrixF& q, const MatrixF& k, const MatrixF& v, std::size_t i,
    std::span<const std::uint32_t> cand) {
  std::vector<double> z(v.cols(), 0.0);
  if (cand.empty()) return z;
  const double scale = 1.0 / std::sqrt(static_cast<double>(q.cols()));
  std::vector<double> s(cand.size());
  for (std::size_t j = 0; j < cand.size(); ++j) {
    double dot = 0.0;
    for (std::size_t c = 0; c < q.cols(); ++c) {
      dot += static_cast<double>(q(i, c)) * k(cand[j], c);
    }
    s[j] = dot * scale;
  }
  const double hi = *std::max_element(s.begin(), s.end());
  double sum = 0.0;
  for (double& x : s) {
    x = std::exp(x - hi);
    sum += x;
  }
  for (std::size_t j = 0; j < cand.size(); ++j) {
    for (std::size_t c = 0; c < v.cols(); ++c) {
      z[c] += s[j] / sum * v(cand[j], c);
    }
  }
  return z;
}

/// The largest |out(i, c) - reference| over every row, where row i
/// attends to the candidates `sel` holds for it.
inline double MaxReferenceError(const MatrixF& out, const MatrixF& q,
                                const MatrixF& k, const MatrixF& v,
                                const SelectionScratch& sel) {
  double worst = 0.0;
  for (std::size_t i = 0; i < q.rows(); ++i) {
    const auto z = ReferenceContextRow(q, k, v, i, sel.Candidates(i));
    for (std::size_t c = 0; c < z.size(); ++c) {
      worst = std::max(worst, std::abs(static_cast<double>(out(i, c)) - z[c]));
    }
  }
  return worst;
}

}  // namespace latte::oracle
