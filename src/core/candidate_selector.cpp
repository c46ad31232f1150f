#include "core/candidate_selector.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <stdexcept>

#include "tensor/matmul.hpp"

namespace latte {
namespace {

std::uint32_t PopCount(std::uint64_t x) {
#if defined(__x86_64__) && !defined(__POPCNT__)
  // Baseline x86-64 has no popcnt instruction, and std::popcount becomes
  // a libgcc call per word; this SWAR form inlines and vectorizes.
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  x += x >> 8;
  x += x >> 16;
  x += x >> 32;
  return static_cast<std::uint32_t>(x & 0x7f);
#else
  return static_cast<std::uint32_t>(std::popcount(x));
#endif
}

// Top `take` of one row of scores in [lo, hi], best first, ties toward the
// smaller index, in O(n).  Keys are binned by (hi - v) >> shift, which
// follows score order; a histogram finds the cut bin holding the take-th
// best key, and a branch-free pass keeps, in index order, the keys at or
// before it.  When every bin holds a single score (`exact`), the kept keys
// are placed by a counting sort; otherwise they are ordered by sorting
// keys that pack (score, inverted index), which never tie.
void SelectRow(std::span<const std::int32_t> row, std::size_t take,
               std::int32_t lo, std::int32_t hi, unsigned shift, bool exact,
               SelectionScratch& s, std::uint32_t* index, std::int32_t* score) {
  const auto bin_of = [hi, shift](std::int32_t v) {
    return static_cast<std::uint32_t>((std::int64_t{hi} - v) >> shift);
  };
  s.bins.assign(bin_of(lo) + std::size_t{1}, 0);
  for (const std::int32_t v : row) ++s.bins[bin_of(v)];
  std::uint32_t cut = 0;
  for (std::size_t before = 0; before + s.bins[cut] < take;) {
    before += s.bins[cut++];
  }
  s.kept.resize(row.size());
  std::size_t n_kept = 0;
  for (std::size_t j = 0; j < row.size(); ++j) {
    s.kept[n_kept] = static_cast<std::uint32_t>(j);
    n_kept += bin_of(row[j]) <= cut;  // branch-free: most keys fall out
  }

  if (exact) {
    // bins[b] becomes the output slot of the next kept key in bin b.  Only
    // keys of the cut bin can land past `take`; they are the ones cut.
    std::uint32_t slot = 0;
    for (std::uint32_t b = 0; b <= cut; ++b) {
      const std::uint32_t count = s.bins[b];
      s.bins[b] = slot;
      slot += count;
    }
    for (std::size_t t = 0; t < n_kept; ++t) {
      const std::uint32_t j = s.kept[t];
      const std::uint32_t at = s.bins[bin_of(row[j])]++;
      if (at < take) {
        index[at] = j;
        score[at] = row[j];
      }
    }
    return;
  }
  s.keys.resize(n_kept);
  for (std::size_t t = 0; t < n_kept; ++t) {
    const std::uint32_t j = s.kept[t];
    const auto biased = static_cast<std::uint32_t>(row[j]) ^ 0x80000000u;
    s.keys[t] = (std::uint64_t{biased} << 32) | ~j;
  }
  const auto first = s.keys.begin();
  const auto mid = first + static_cast<std::ptrdiff_t>(take);
  std::nth_element(first, mid, s.keys.end(), std::greater<>());
  std::sort(first, mid, std::greater<>());
  for (std::size_t t = 0; t < take; ++t) {
    index[t] = ~static_cast<std::uint32_t>(s.keys[t]);
    score[t] = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(s.keys[t] >> 32) ^ 0x80000000u);
  }
}

}  // namespace

void PackSignRows(const MatrixF& m, std::size_t rows,
                  std::vector<std::uint64_t>& out) {
  const std::size_t d = m.cols();
  const std::size_t words = SignWords(d);
  out.resize(rows * words);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto src = m.row(r);
    std::uint64_t* dst = out.data() + r * words;
    for (std::size_t w = 0; w < words; ++w) {
      const std::size_t end = std::min(d, 64 * w + 64);
      std::uint64_t bits = 0;
      for (std::size_t c = 64 * w; c < end; ++c) {
        bits |= std::uint64_t{src[c] < 0.f} << (c - 64 * w);
      }
      dst[w] = bits;
    }
  }
}

void ScoreSignRow(std::span<const std::uint64_t> q,
                  std::span<const std::uint64_t> keys, std::size_t d,
                  std::span<std::int32_t> out) {
  const auto dim = static_cast<std::int32_t>(d);
  const std::size_t words = q.size();
  if (words == 1) {
    const std::uint64_t q0 = q[0];
    for (std::size_t j = 0; j < out.size(); ++j) {
      out[j] = dim - 2 * static_cast<std::int32_t>(PopCount(q0 ^ keys[j]));
    }
    return;
  }
  for (std::size_t j = 0; j < out.size(); ++j) {
    const std::uint64_t* kj = keys.data() + j * words;
    std::uint32_t pop = 0;
    for (std::size_t w = 0; w < words; ++w) pop += PopCount(q[w] ^ kj[w]);
    out[j] = dim - 2 * static_cast<std::int32_t>(pop);
  }
}

void ScoreCodeRow(std::span<const std::int16_t> q,
                  std::span<const std::int16_t> keys,
                  std::span<std::int32_t> out) {
  const std::size_t d = q.size();
  const std::int16_t* qp = q.data();
  for (std::size_t j = 0; j < out.size(); ++j) {
    const std::int16_t* kj = keys.data() + j * d;
    std::int32_t acc = 0;
    for (std::size_t t = 0; t < d; ++t) acc += qp[t] * kj[t];
    out[j] = acc;
  }
}

void SelectCandidates(const MatrixF& q, const MatrixF& k,
                      const SelectorConfig& cfg, SelectionScratch& s) {
  if (q.cols() != k.cols()) {
    throw std::invalid_argument("SelectCandidates: head dim mismatch");
  }
  if (cfg.top_k == 0) {
    throw std::invalid_argument("SelectCandidates: top_k must be >= 1");
  }
  if (cfg.bits != 1 && cfg.bits != 4) {
    throw std::invalid_argument("SelectCandidates: bits must be 1 or 4");
  }
  const std::size_t d = q.cols();
  // Padding keys (index >= valid_len) are never scored or selected -- the
  // hardware gates them at the sorter FIFO (Fig 1(b) masking, applied
  // before selection).  The cost model still charges the LUT datapath
  // for every key and the II=1 sorter for every valid one.
  const std::size_t valid = cfg.ValidKeys(k.rows());
  s.rows = q.rows();
  s.per_row = std::min(cfg.top_k, valid);
  s.index.resize(s.rows * s.per_row);
  s.score.resize(s.rows * s.per_row);
  s.lut_multiplies = q.rows() * k.rows() * d;
  s.sorter_cycles = q.rows() * valid;
  if (s.per_row == 0) return;
  s.row.resize(valid);

  // Step 2 of Fig 3: ultra-low-bit codes with per-tensor scaling.  Step 3:
  // approximate scores, one query row at a time.  Step 4: that row's Top-k.
  if (cfg.bits == 1) {
    PackSignRows(q, s.rows, s.q_signs);
    PackSignRows(k, valid, s.k_signs);
    const std::size_t words = SignWords(d);
    const auto dim = static_cast<std::int32_t>(d);
    for (std::size_t i = 0; i < s.rows; ++i) {
      ScoreSignRow(std::span(s.q_signs).subspan(i * words, words), s.k_signs,
                   d, s.row);
      // Scores are d - 2 * popcount: halving d - v gives one bin per score.
      SelectRow(s.row, s.per_row, -dim, dim, 1, true, s,
                &s.index[i * s.per_row], &s.score[i * s.per_row]);
    }
  } else {
    // int16 codes let the dot product vectorize on the baseline ISA.
    QuantizeRowsInto(q, 0, s.rows, cfg.bits, ScalingFactor(q), s.codes);
    s.q_codes.assign(s.codes.flat().begin(), s.codes.flat().end());
    QuantizeRowsInto(k, 0, valid, cfg.bits, ScalingFactor(k), s.codes);
    s.k_codes.assign(s.codes.flat().begin(), s.codes.flat().end());
    for (std::size_t i = 0; i < s.rows; ++i) {
      ScoreCodeRow(std::span(s.q_codes).subspan(i * d, d), s.k_codes, s.row);
      std::int32_t lo = s.row[0];
      std::int32_t hi = s.row[0];
      for (const std::int32_t v : s.row) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      // Up to four bins per key keep the histogram O(n); past that, bins
      // widen and the kept keys are sorted instead of counted into place.
      unsigned shift = 0;
      while ((static_cast<std::size_t>(std::int64_t{hi} - lo) >> shift) >=
             4 * valid) {
        ++shift;
      }
      SelectRow(s.row, s.per_row, lo, hi, shift, shift == 0, s,
                &s.index[i * s.per_row], &s.score[i * s.per_row]);
    }
  }
}

SelectionResult SelectCandidates(const MatrixF& q, const MatrixF& k,
                                 const SelectorConfig& cfg) {
  SelectionScratch s;
  SelectCandidates(q, k, cfg, s);
  SelectionResult res;
  res.candidates = s.CandidateLists();
  res.approx_scores.reserve(s.rows);
  for (std::size_t i = 0; i < s.rows; ++i) {
    const auto v = s.Scores(i);
    res.approx_scores.emplace_back(v.begin(), v.end());
  }
  res.lut_multiplies = s.lut_multiplies;
  res.sorter_cycles = s.sorter_cycles;
  return res;
}

std::vector<std::vector<std::uint32_t>> ExactTopKCandidates(
    const MatrixF& q, const MatrixF& k, std::size_t top_k) {
  if (q.cols() != k.cols()) {
    throw std::invalid_argument("ExactTopKCandidates: head dim mismatch");
  }
  const MatrixF s = MatMulBT(q, k);
  std::vector<std::vector<std::uint32_t>> out;
  out.reserve(s.rows());
  for (std::size_t i = 0; i < s.rows(); ++i) {
    auto row = s.row(i);
    std::vector<std::uint32_t> order(row.size());
    for (std::size_t j = 0; j < row.size(); ++j) {
      order[j] = static_cast<std::uint32_t>(j);
    }
    const std::size_t kk = std::min<std::size_t>(top_k, row.size());
    std::partial_sort(order.begin(), order.begin() + kk, order.end(),
                      [&](std::uint32_t a, std::uint32_t b) {
                        if (row[a] != row[b]) return row[a] > row[b];
                        return a < b;
                      });
    order.resize(kk);
    out.push_back(std::move(order));
  }
  return out;
}

}  // namespace latte
