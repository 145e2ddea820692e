// Embedding distance measures (paper §2.4 and §4.1).
//
// Five measures quantify how different two embeddings X ∈ R^{n×d} and
// X̃ ∈ R^{n×k} of the same vocabulary are:
//   • k-NN measure              (Hellrich & Hahn 2016 and others)
//   • semantic displacement     (Hamilton et al., 2016)
//   • PIP loss                  (Yin & Shen, 2018)
//   • eigenspace overlap score  (May et al., 2019)
//   • eigenspace instability    (THIS paper's contribution, Definition 2)
//
// Every implementation avoids n×n intermediates: PIP loss uses the Gram
// trick and the eigenspace instability measure uses the O(n·d²) expansion of
// Appendix B.1.
//
// The k-NN measure's two halves are public so that every k-NN overlap in
// the system is this one definition: panel_topk is the own-space top-k
// selection and topk_overlap the |A∩B|/k score. The offline gate
// (knn_measure_normalized), the canary's online agreement, the drift
// probe and the ANN top-k churn gate all call them; sample_ids is the
// seeded probe-row draw the canary and the drift probe share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "la/matrix.hpp"
#include "la/svd.hpp"

namespace anchor::core {

/// k-NN measure: average overlap between the k nearest neighbors (cosine) of
/// Q sampled query words in X vs X̃. Returns a similarity in [0, 1]; the
/// paper uses 1 − kNN as the distance. Queries are sampled without
/// replacement with `seed`; the query word itself is excluded from its own
/// neighbor list.
double knn_measure(const la::Matrix& x, const la::Matrix& x_tilde,
                   std::size_t k = 5, std::size_t num_queries = 1000,
                   std::uint64_t seed = 42);

/// Row-L2-normalized copy of m (zero rows stay zero) — the cosine-scoring
/// form knn_measure consumes. Exposed so callers evaluating several
/// candidates against one incumbent (e.g. the DeploymentGate) can normalize
/// once and reuse the copy.
la::Matrix normalize_rows_l2(const la::Matrix& m);

/// knn_measure on matrices already row-normalized via normalize_rows_l2:
/// the mean topk_overlap of panel_topk(nx, q) and panel_topk(nxt, q), self
/// excluded, over min(num_queries, n) sampled queries (num_queries > 0).
/// Queries are scored in parallel over the shared util::global_pool();
/// each query's overlap is computed independently and reduced in query
/// order, so the result is bit-for-bit identical at any thread count.
double knn_measure_normalized(const la::Matrix& nx, const la::Matrix& nxt,
                              std::size_t k = 5,
                              std::size_t num_queries = 1000,
                              std::uint64_t seed = 42);

/// panel_topk's `exclude` value that excludes no row.
inline constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

/// Own-space top-k selection of the k-NN measure: scores every row of the
/// row-normalized `panel` against `unit_query` (dot = cosine), skips row
/// `exclude` (kNoRow skips none), and writes the best min(k, candidates)
/// row indices to `out`, ordered by (score desc, index asc) — the index
/// tie-break keeps the selection reproducible across platforms. Scratch is
/// thread_local, so concurrent callers on pool workers allocate nothing
/// per list once warm.
void panel_topk(const la::Matrix& panel, const double* unit_query,
                std::size_t k, std::size_t exclude,
                std::vector<std::size_t>* out);

/// The paper's k-NN overlap of two neighbor lists of distinct ids:
/// |A∩B| / max(1, min(|A|, |B|)), which is |A∩B| / k when both lists hold
/// k neighbors. Empty lists score 0.
double topk_overlap(const std::vector<std::size_t>& a,
                    const std::vector<std::size_t>& b);

/// min(m, n) distinct ids from [0, n): all of [0, n) in order when m ≥ n,
/// otherwise a seeded draw (in draw order) that depends only on
/// (n, m, seed) — the fixed probe-row panel of the canary and drift probe.
std::vector<std::size_t> sample_ids(std::size_t n, std::size_t m,
                                    std::uint64_t seed);

/// Semantic displacement: mean cosine distance between rows of X and the
/// Procrustes-rotated rows of X̃ (requires equal dimensions).
double semantic_displacement(const la::Matrix& x, const la::Matrix& x_tilde);

/// PIP loss ‖XXᵀ − X̃X̃ᵀ‖F, computed as
/// √(‖XᵀX‖F² + ‖X̃ᵀX̃‖F² − 2‖X̃ᵀX‖F²) — O(n·d²) instead of O(n²·d).
double pip_loss(const la::Matrix& x, const la::Matrix& x_tilde);

/// Eigenspace overlap score ‖UᵀŨ‖F² / max(d, k) ∈ [0, 1]; the paper uses
/// 1 − overlap as the distance.
double eigenspace_overlap(const la::Matrix& x, const la::Matrix& x_tilde);

/// Precomputed SVD context for the eigenspace instability measure: the
/// reference embeddings E, Ẽ defining Σ = (EEᵀ)^α + (ẼẼᵀ)^α. In the paper
/// these are the highest-dimensional full-precision Wiki'17/Wiki'18
/// embeddings. Reusable across many (X, X̃) evaluations.
struct EisContext {
  la::Matrix v;                    // right singular vectors of E
  std::vector<double> r;           // singular values of E
  la::Matrix v_tilde;              // right singular vectors of Ẽ... stored as
                                   // *left*-side factors V, Ṽ of EEᵀ = VR²Vᵀ
  std::vector<double> r_tilde;
  double alpha = 3.0;              // eigenvalue-importance exponent (Tab. 8)

  /// Builds the context from the reference embedding matrices.
  static EisContext build(const la::Matrix& e, const la::Matrix& e_tilde,
                          double alpha = 3.0);
};

/// Eigenspace instability measure EI_Σ(X, X̃) (Definition 2), evaluated with
/// the efficient expansion of Appendix B.1. `u` and `u_tilde` are the left
/// singular vectors of X and X̃ (see la::left_singular_vectors).
double eigenspace_instability(const la::Matrix& u, const la::Matrix& u_tilde,
                              const EisContext& ctx);

/// Convenience overload computing the SVDs of X and X̃ internally.
double eigenspace_instability_of(const la::Matrix& x,
                                 const la::Matrix& x_tilde,
                                 const EisContext& ctx);

/// Reference implementation via the explicit n×n Σ (Definition 2 verbatim).
/// O(n²·d) time, O(n²) memory — used by tests to validate the fast path.
double eigenspace_instability_naive(const la::Matrix& x,
                                    const la::Matrix& x_tilde,
                                    const la::Matrix& sigma);

/// Explicit Σ = (EEᵀ)^α + (ẼẼᵀ)^α for tests (n×n — small inputs only).
la::Matrix build_sigma_naive(const la::Matrix& e, const la::Matrix& e_tilde,
                             double alpha);

/// The measures as selection criteria, oriented so that *larger = more
/// unstable* (i.e. k-NN and eigenspace overlap enter as 1 − similarity).
enum class Measure {
  kEigenspaceInstability,
  kOneMinusKnn,
  kSemanticDisplacement,
  kPipLoss,
  kOneMinusEigenspaceOverlap,
};

inline constexpr Measure kAllMeasures[] = {
    Measure::kEigenspaceInstability,   Measure::kOneMinusKnn,
    Measure::kSemanticDisplacement,    Measure::kPipLoss,
    Measure::kOneMinusEigenspaceOverlap,
};

std::string measure_name(Measure m);

}  // namespace anchor::core
