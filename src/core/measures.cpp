#include "core/measures.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "la/kernels.hpp"
#include "la/procrustes.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace anchor::core {

void panel_topk(const la::Matrix& panel, const double* unit_query,
                std::size_t k, std::size_t exclude,
                std::vector<std::size_t>* out) {
  const std::size_t n = panel.rows();
  thread_local std::vector<double> scores;
  thread_local std::vector<std::size_t> idx;
  scores.resize(n);
  la::kernels::matvec_rowmajor(panel.data(), n, panel.cols(), unit_query,
                               scores.data());
  idx.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (i != exclude) idx.push_back(i);
  }
  const auto kk = static_cast<std::ptrdiff_t>(std::min(k, idx.size()));
  std::partial_sort(idx.begin(), idx.begin() + kk, idx.end(),
                    [&](std::size_t a, std::size_t b) {
                      return scores[a] != scores[b] ? scores[a] > scores[b]
                                                    : a < b;
                    });
  out->assign(idx.begin(), idx.begin() + kk);
}

double topk_overlap(const std::vector<std::size_t>& a,
                    const std::vector<std::size_t>& b) {
  std::size_t hits = 0;
  for (const std::size_t id : b) {
    hits += std::find(a.begin(), a.end(), id) != a.end() ? 1 : 0;
  }
  const std::size_t k = std::max<std::size_t>(1, std::min(a.size(), b.size()));
  return static_cast<double>(hits) / static_cast<double>(k);
}

std::vector<std::size_t> sample_ids(std::size_t n, std::size_t m,
                                    std::uint64_t seed) {
  std::vector<std::size_t> ids;
  if (m >= n) {
    ids.resize(n);
    std::iota(ids.begin(), ids.end(), 0u);
    return ids;
  }
  ids.reserve(m);
  Rng rng(seed);
  std::unordered_set<std::size_t> seen;
  while (ids.size() < m) {
    const std::size_t id = rng.index(n);
    if (seen.insert(id).second) ids.push_back(id);
  }
  return ids;
}

la::Matrix normalize_rows_l2(const la::Matrix& m) {
  la::Matrix out = m;
  const std::size_t cols = out.cols();
  util::global_pool().parallel_for(0, out.rows(), [&](std::size_t i) {
    la::kernels::l2_normalize(out.row(i), cols);
  });
  return out;
}

double knn_measure_normalized(const la::Matrix& nx, const la::Matrix& nxt,
                              std::size_t k, std::size_t num_queries,
                              std::uint64_t seed) {
  ANCHOR_CHECK_EQ(nx.rows(), nxt.rows());
  ANCHOR_CHECK_GT(k, 0u);
  ANCHOR_CHECK_GT(num_queries, 0u);
  const std::size_t n = nx.rows();
  ANCHOR_CHECK_GE(n, 2u);

  // Sample query words without replacement.
  std::vector<std::size_t> queries(n);
  std::iota(queries.begin(), queries.end(), 0u);
  Rng rng(seed);
  rng.shuffle(queries);
  queries.resize(std::min(num_queries, n));

  // Queries are scored in parallel; each writes only its own overlap slot
  // and the reduction below runs in fixed query order, so the value is
  // independent of the pool size.
  std::vector<double> overlaps(queries.size(), 0.0);
  util::global_pool().parallel_for(0, queries.size(), [&](std::size_t qi) {
    thread_local std::vector<std::size_t> a, b;
    const std::size_t q = queries[qi];
    panel_topk(nx, nx.row(q), k, q, &a);
    panel_topk(nxt, nxt.row(q), k, q, &b);
    overlaps[qi] = topk_overlap(a, b);
  });
  double overlap_sum = 0.0;
  for (const double o : overlaps) overlap_sum += o;
  return overlap_sum / static_cast<double>(queries.size());
}

double knn_measure(const la::Matrix& x, const la::Matrix& x_tilde,
                   std::size_t k, std::size_t num_queries,
                   std::uint64_t seed) {
  return knn_measure_normalized(normalize_rows_l2(x), normalize_rows_l2(x_tilde),
                                k, num_queries, seed);
}

double semantic_displacement(const la::Matrix& x, const la::Matrix& x_tilde) {
  ANCHOR_CHECK_EQ(x.rows(), x_tilde.rows());
  ANCHOR_CHECK_EQ(x.cols(), x_tilde.cols());
  const la::Matrix aligned = la::procrustes_align(x, x_tilde);
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  // Per-row cosine distances land in their own slots; the sum below runs in
  // row order, so the measure is thread-count-independent.
  std::vector<double> dists(n, 0.0);
  util::global_pool().parallel_for(0, n, [&](std::size_t i) {
    const double* a = x.row(i);
    const double* b = aligned.row(i);
    const double dot = la::kernels::dot(a, b, d);
    const double na = la::kernels::dot(a, a, d);
    const double nb = la::kernels::dot(b, b, d);
    const double denom = std::sqrt(na * nb);
    dists[i] = (denom > 0.0) ? 1.0 - dot / denom : 0.0;
  });
  double acc = 0.0;
  for (const double v : dists) acc += v;
  return acc / static_cast<double>(n);
}

double pip_loss(const la::Matrix& x, const la::Matrix& x_tilde) {
  ANCHOR_CHECK_EQ(x.rows(), x_tilde.rows());
  const double a = la::frobenius_norm_sq(la::gram(x));
  const double b = la::frobenius_norm_sq(la::gram(x_tilde));
  const double c = la::frobenius_norm_sq(la::matmul_at_b(x_tilde, x));
  return std::sqrt(std::max(0.0, a + b - 2.0 * c));
}

double eigenspace_overlap(const la::Matrix& x, const la::Matrix& x_tilde) {
  ANCHOR_CHECK_EQ(x.rows(), x_tilde.rows());
  const la::Matrix u = la::left_singular_vectors(x);
  const la::Matrix ut = la::left_singular_vectors(x_tilde);
  const double overlap = la::frobenius_norm_sq(la::matmul_at_b(u, ut));
  return overlap / static_cast<double>(std::max(u.cols(), ut.cols()));
}

EisContext EisContext::build(const la::Matrix& e, const la::Matrix& e_tilde,
                             double alpha) {
  ANCHOR_CHECK_EQ(e.rows(), e_tilde.rows());
  EisContext ctx;
  la::SvdResult se = la::svd(e);
  la::SvdResult st = la::svd(e_tilde);
  // EEᵀ = U·S²·Uᵀ: the factors Σ needs are E's *left* singular vectors and
  // singular values (named V, R in the paper's Appendix B.1 because it
  // writes E = VRWᵀ).
  ctx.v = std::move(se.u);
  ctx.r = std::move(se.singular_values);
  ctx.v_tilde = std::move(st.u);
  ctx.r_tilde = std::move(st.singular_values);
  ctx.alpha = alpha;
  return ctx;
}

namespace {

/// Scales column j of m by s[j]^alpha, in place.
void scale_columns_pow(la::Matrix& m, const std::vector<double>& s,
                       double alpha) {
  ANCHOR_CHECK_EQ(m.cols(), s.size());
  for (std::size_t j = 0; j < m.cols(); ++j) {
    const double f = std::pow(std::max(s[j], 0.0), alpha);
    for (std::size_t i = 0; i < m.rows(); ++i) m(i, j) *= f;
  }
}

/// One Σ-component's three trace terms (Appendix B.1, Eq. 3):
/// ‖UᵀVR^α‖F² + ‖ŨᵀVR^α‖F² − 2·tr(R^α(VᵀŨ)(ŨᵀU)(UᵀV)R^α).
double sigma_component(const la::Matrix& u, const la::Matrix& u_tilde,
                       const la::Matrix& v, const std::vector<double>& r,
                       double alpha) {
  la::Matrix utv = la::matmul_at_b(u, v);          // d × d_e
  la::Matrix uttv = la::matmul_at_b(u_tilde, v);   // k × d_e
  scale_columns_pow(utv, r, alpha);                // UᵀV R^α
  scale_columns_pow(uttv, r, alpha);               // ŨᵀV R^α
  const double term1 = la::frobenius_norm_sq(utv);
  const double term2 = la::frobenius_norm_sq(uttv);
  // tr(R^α VᵀŨ · ŨᵀU · UᵀV R^α) = ⟨ŨᵀV R^α, (ŨᵀU)(UᵀV R^α)⟩.
  const la::Matrix utu = la::matmul_at_b(u_tilde, u);  // k × d
  const la::Matrix prod = la::matmul(utu, utv);        // k × d_e
  double cross = 0.0;
  for (std::size_t i = 0; i < prod.size(); ++i) {
    cross += prod.storage()[i] * uttv.storage()[i];
  }
  return term1 + term2 - 2.0 * cross;
}

}  // namespace

double eigenspace_instability(const la::Matrix& u, const la::Matrix& u_tilde,
                              const EisContext& ctx) {
  ANCHOR_CHECK_EQ(u.rows(), u_tilde.rows());
  ANCHOR_CHECK_EQ(u.rows(), ctx.v.rows());
  ANCHOR_CHECK_EQ(u.rows(), ctx.v_tilde.rows());

  const double numerator =
      sigma_component(u, u_tilde, ctx.v, ctx.r, ctx.alpha) +
      sigma_component(u, u_tilde, ctx.v_tilde, ctx.r_tilde, ctx.alpha);

  double denominator = 0.0;
  for (const double s : ctx.r) denominator += std::pow(s, 2.0 * ctx.alpha);
  for (const double s : ctx.r_tilde) {
    denominator += std::pow(s, 2.0 * ctx.alpha);
  }
  ANCHOR_CHECK_GT(denominator, 0.0);
  return numerator / denominator;
}

double eigenspace_instability_of(const la::Matrix& x,
                                 const la::Matrix& x_tilde,
                                 const EisContext& ctx) {
  return eigenspace_instability(la::left_singular_vectors(x),
                                la::left_singular_vectors(x_tilde), ctx);
}

double eigenspace_instability_naive(const la::Matrix& x,
                                    const la::Matrix& x_tilde,
                                    const la::Matrix& sigma) {
  ANCHOR_CHECK_EQ(sigma.rows(), sigma.cols());
  ANCHOR_CHECK_EQ(sigma.rows(), x.rows());
  const la::Matrix u = la::left_singular_vectors(x);
  const la::Matrix ut = la::left_singular_vectors(x_tilde);
  const la::Matrix uuT = la::matmul_a_bt(u, u);
  const la::Matrix utuT = la::matmul_a_bt(ut, ut);
  // M = UUᵀ + ŨŨᵀ − 2·ŨŨᵀ·UUᵀ.
  la::Matrix m = la::add(uuT, utuT);
  m = la::subtract(m, la::scale(la::matmul(utuT, uuT), 2.0));
  return la::trace(la::matmul(m, sigma)) / la::trace(sigma);
}

la::Matrix build_sigma_naive(const la::Matrix& e, const la::Matrix& e_tilde,
                             double alpha) {
  auto component = [&](const la::Matrix& mat) {
    la::SvdResult s = la::svd(mat);
    la::Matrix u = s.u;
    scale_columns_pow(u, s.singular_values, alpha);  // U·R^α
    return la::matmul_a_bt(u, u);                    // U·R^{2α}·Uᵀ
  };
  return la::add(component(e), component(e_tilde));
}

std::string measure_name(Measure m) {
  switch (m) {
    case Measure::kEigenspaceInstability: return "Eigenspace Instability";
    case Measure::kOneMinusKnn: return "1 - k-NN";
    case Measure::kSemanticDisplacement: return "Semantic Displacement";
    case Measure::kPipLoss: return "PIP Loss";
    case Measure::kOneMinusEigenspaceOverlap: return "1 - Eigenspace Overlap";
  }
  ANCHOR_CHECK_MSG(false, "unknown measure");
  return {};
}

}  // namespace anchor::core
