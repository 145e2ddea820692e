// Brute-force reference for the paper's k-NN overlap (§2.4), written from
// the definition and sharing no code with core/measures: the cosine of
// every row against the query by explicit dot products and norms, a full
// sort by (cosine desc, index asc), the first k, and |A∩B| / k. The tests
// of every caller of core::panel_topk / core::topk_overlap pin against it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace anchor::knn_reference {

using Rows = std::vector<std::vector<double>>;

inline double cosine(const std::vector<double>& a,
                     const std::vector<double>& b) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t j = 0; j < a.size(); ++j) {
    dot += a[j] * b[j];
    na += a[j] * a[j];
    nb += b[j] * b[j];
  }
  return na > 0.0 && nb > 0.0 ? dot / (std::sqrt(na) * std::sqrt(nb)) : 0.0;
}

/// The k rows most cosine-similar to `query`, row `self` left out (pass
/// rows.size() to keep every row).
inline std::vector<std::size_t> topk(const Rows& rows,
                                     const std::vector<double>& query,
                                     std::size_t k, std::size_t self) {
  std::vector<double> cos(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) cos[i] = cosine(rows[i], query);
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i != self) idx.push_back(i);
  }
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return cos[a] != cos[b] ? cos[a] > cos[b] : a < b;
  });
  idx.resize(std::min(k, idx.size()));
  return idx;
}

/// |A∩B| / k for two k-neighbor lists.
inline double overlap(const std::vector<std::size_t>& a,
                      const std::vector<std::size_t>& b) {
  std::size_t hits = 0;
  for (const std::size_t x : a) {
    hits += static_cast<std::size_t>(std::count(b.begin(), b.end(), x));
  }
  return static_cast<double>(hits) / static_cast<double>(a.size());
}

}  // namespace anchor::knn_reference
