// Versioned in-memory embedding store — the state behind the serving layer.
//
// The paper's motivating scenario (§1) is an embedding server whose periodic
// model refreshes churn downstream predictions. This module holds the
// *versions*: each snapshot is an immutable, sharded embedding matrix that
// is full-precision fp32, uniform-quantized to b bits (same grid as
// compress/quantize, bit-packed, dequantized on the fly), or
// product-quantized (compress/pq codebooks, one byte per sub-vector code,
// fused-decoded on the fly) — so a server can keep several generations
// resident — the live one, the candidate under evaluation by the
// DeploymentGate, and a rollback target — within a memory budget set by the
// paper's compression axis.
//
// Snapshots are immutable after construction; readers hold shared_ptrs, so
// hot-swapping the live version never blocks or invalidates in-flight
// lookups.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "embed/embedding.hpp"
#include "embed/subword.hpp"
#include "la/matrix.hpp"

namespace anchor::serve {

struct SnapshotConfig {
  /// 32 stores fp32 rows verbatim; 1/2/4/8 stores bit-packed uniform-
  /// quantization codes on the compress/quantize grid (≈ 32/bits× smaller).
  int bits = 32;
  /// Rows are distributed round-robin over shards (row → shard row % S),
  /// keeping per-shard storage independently allocated — the unit a future
  /// NUMA/affinity placement works with. (The LookupService's cache has its
  /// own fixed shard pool, independent of this count.)
  std::size_t num_shards = 8;
  /// When > 0, reuse this clip threshold instead of computing one — the
  /// Appendix C.2 convention of sharing the first snapshot's threshold with
  /// its successor so quantization adds no gratuitous disagreement. Only
  /// meaningful for uniform quantization (bits < 32); add_version rejects
  /// it for fp32 and PQ snapshots.
  float clip_override = 0.0f;
  /// Product-quantization mode (compress/pq): when pq_m > 0 each row is
  /// split into pq_m sub-vectors of dim/pq_m floats and each sub-vector is
  /// replaced by the index of the nearest of 2^pq_bits learned centroids —
  /// a row costs pq_m bytes (one byte per code) plus a codebook shared
  /// across the vocabulary, e.g. pq:4x8 stores a dim-48 row in 4 bytes vs
  /// 48 for int8. Requires bits == 32 (PQ replaces uniform quantization
  /// rather than stacking on it) and pq_m must divide dim.
  std::size_t pq_m = 0;
  /// Per-sub-vector code width, 1..8 so every code fits one byte.
  int pq_bits = 8;
  /// When non-empty: pq_m codebooks, each 2^pq_bits × (dim/pq_m) row-major
  /// floats, reused instead of trained — the PQ analogue of clip_override
  /// and ann::IvfPqArtifacts. Shards of a vocabulary encoding their slices
  /// with SHARED codebooks produce codes that are pure functions of the row
  /// bytes, so a router's scatter-gather merge is bit-identical to a
  /// single-process PQ store.
  std::vector<std::vector<float>> pq_codebooks_override{};
  /// Build the hashed character-n-gram table used for OOV fallback
  /// (scatter-averaged from the word vectors, fastText-style).
  bool build_oov_table = true;
  /// Orthogonal-Procrustes-align the incoming rows to the store's live
  /// snapshot before encoding (the paper's Appendix C.2 protocol, applied
  /// at ingestion): the rotation is fit on the shared-vocabulary prefix
  /// and applied to every row, so a refresh that differs from the
  /// incumbent mostly by a rotation of the latent space stops tripping
  /// the displacement-based canary rollback (and downstream consumers
  /// mixing vectors across versions see comparable coordinates). No-op
  /// when the store has no live snapshot or the dimensions differ.
  bool align_to_live = false;
  /// Shared-prefix rows the rotation is fit on (0 = the full shared
  /// vocabulary). The d×d Procrustes solve is cheap; this bounds only the
  /// BᵀA Gram accumulation.
  std::size_t align_rows = 2048;
};

/// One immutable embedding version. Construct via EmbeddingStore.
class EmbeddingSnapshot {
 public:
  EmbeddingSnapshot(std::string version, const embed::Embedding& source,
                    const SnapshotConfig& config, std::uint64_t epoch,
                    bool aligned = false);

  const std::string& version() const { return version_; }
  std::size_t vocab_size() const { return vocab_size_; }
  std::size_t dim() const { return dim_; }
  int bits() const { return config_.bits; }
  float clip() const { return clip_; }
  std::size_t num_shards() const { return shards_.size(); }
  /// True when rows are stored as product-quantization codes.
  bool is_pq() const { return config_.pq_m > 0; }
  std::size_t pq_m() const { return config_.pq_m; }
  int pq_bits() const { return config_.pq_bits; }
  /// Human/wire name of the row encoding: "fp32", "int8"/"int4"/"int2"/
  /// "int1", or "pq:<m>x<b>". This is what STATS/METRICS report and what
  /// `anchor_served --bits` parses.
  std::string encoding() const;
  /// PQ codebooks flattened for the decode kernel: pq_m × 2^pq_bits ×
  /// (dim/pq_m) floats, sub-quantizer-major. Empty unless is_pq().
  const std::vector<float>& pq_codebooks_flat() const { return pq_flat_; }
  /// PQ codebooks in compress::PqConfig::codebooks_override form (one
  /// vector per sub-quantizer) — hand these to a peer store so its shard
  /// encodes with SHARED codebooks, or compare with ann::IvfPqArtifacts.
  std::vector<std::vector<float>> pq_codebook_vectors() const;
  /// Row w's pq_m one-byte codes (contiguous). Only valid when is_pq() —
  /// the zero-copy handle AnnService uses to reuse a snapshot's encoding
  /// instead of re-encoding.
  const std::uint8_t* pq_row_codes(std::size_t w) const;
  /// Monotonically increasing id unique across all snapshots of a store;
  /// hot-row caches key on it so a swap can never serve stale vectors.
  std::uint64_t epoch() const { return epoch_; }
  /// True when the rows were Procrustes-aligned to the then-live snapshot
  /// at ingestion (SnapshotConfig::align_to_live actually applied).
  bool aligned_to_incumbent() const { return aligned_; }
  /// Resident bytes of ALL owned buffers: row storage (fp32, packed codes,
  /// or PQ codes), PQ codebooks, and the OOV table + its bucket counts.
  /// EmbeddingStore::total_memory_bytes() sums this across versions, so the
  /// memory-budget story accounts for everything a snapshot keeps alive.
  std::size_t memory_bytes() const;
  bool has_oov_table() const { return !oov_table_.empty(); }

  std::size_t shard_of(std::size_t row) const { return row % shards_.size(); }

  /// Writes row `w` (dequantized if stored quantized) into out[0..dim).
  /// Quantized rows unpack through the fused la::kernels::dequantize_rows
  /// path (whole row per call, SIMD when available).
  void copy_row(std::size_t w, float* out) const;

  /// Batched copy_row: writes rows ids[0..n) consecutively into
  /// out[0 .. n·dim). Every id must be < vocab_size(). This is the unit the
  /// LookupService's miss path and the gate's matrix export build on.
  void copy_rows(const std::size_t* ids, std::size_t n, float* out) const;

  /// Synthesizes a vector for an out-of-vocabulary word as the average of
  /// its hashed character-n-gram bucket vectors. Returns false (and zeroes
  /// `out`) when no table was built or no n-gram bucket is populated.
  bool synthesize_oov(const std::string& word, float* out) const;

  /// First min(vocab, max_rows) rows as a double matrix — the form the
  /// core/measures gate computations consume. max_rows = 0 means all.
  la::Matrix to_matrix(std::size_t max_rows = 0) const;

 private:
  struct Shard {
    std::vector<float> fp32;          // bits == 32
    std::vector<std::uint8_t> codes;  // bits < 32, bit-packed
    std::size_t rows = 0;
  };

  void encode_shard_row(Shard& shard, std::size_t local_row,
                        const float* src);
  void build_oov_table(const embed::Embedding& source);

  std::string version_;
  SnapshotConfig config_;
  std::size_t vocab_size_ = 0;
  std::size_t dim_ = 0;
  float clip_ = 0.0f;
  std::uint64_t epoch_ = 0;
  bool aligned_ = false;
  std::vector<Shard> shards_;
  std::vector<float> pq_flat_;  // pq_m × ksub × sub_dim, empty unless PQ
  embed::FastTextConfig oov_config_;    // hashing parameters for n-grams
  std::vector<float> oov_table_;        // bucket_count × dim, scatter-averaged
  std::vector<std::uint32_t> oov_counts_;  // words contributing per bucket
};

using SnapshotPtr = std::shared_ptr<const EmbeddingSnapshot>;

/// Rows `ids` of one snapshot as an L2-normalized double panel: the form
/// core::panel_topk scores against, in that snapshot's own space (the
/// canary's and the drift probe's probe panels). Ids outside the
/// vocabulary stay zero rows; valid[i] is 1 only for an in-vocabulary row
/// of nonzero norm.
struct ProbePanel {
  la::Matrix rows;
  std::vector<std::uint8_t> valid;
};
ProbePanel probe_panel(const EmbeddingSnapshot& snap,
                       const std::vector<std::size_t>& ids);

/// Thread-safe registry of embedding versions with one designated "live"
/// snapshot. Promotion is expected to go through the DeploymentGate.
class EmbeddingStore {
 public:
  EmbeddingStore() = default;

  /// Registers an in-memory embedding under `version`. Replacing an
  /// existing version is allowed (the old snapshot lives on in any reader
  /// still holding it). The first version added becomes live.
  SnapshotPtr add_version(const std::string& version,
                          const embed::Embedding& source,
                          const SnapshotConfig& config = {});

  /// Registers a version from a word2vec-text file via embed::load_text.
  SnapshotPtr load_version(const std::string& version,
                           const std::filesystem::path& path,
                           const SnapshotConfig& config = {});

  /// Snapshot by version id; nullptr when absent.
  SnapshotPtr snapshot(const std::string& version) const;
  bool has_version(const std::string& version) const;
  std::vector<std::string> versions() const;

  /// The snapshot currently serving traffic; nullptr before any add.
  SnapshotPtr live() const;
  std::string live_version() const;

  /// Points live at `version`. Throws when the version is unknown. Called
  /// by DeploymentGate::try_promote after the instability check passes.
  void set_live(const std::string& version);

  /// Points live at the exact snapshot `snap` — but only if it is still the
  /// one registered under its version id. Returns false when a concurrent
  /// add_version replaced it, so a gate never promotes a snapshot it did
  /// not evaluate (the TOCTOU hole a name-based promote would open).
  bool set_live_snapshot(const SnapshotPtr& snap);

  /// Drops a version from the registry. Throws when it is the live one, or
  /// when any holder outside the store still pins its snapshot — a canary's
  /// LookupConfig::pin_snapshot, AnnService's epoch-keyed index cache, an
  /// in-flight reader — so a rollback target can never vanish under a
  /// router. (All snapshot acquisition goes through this store's mutex, so
  /// the use-count probe cannot race a new pin; a concurrent *release* can
  /// at worst make removal refuse conservatively — retry after the holder
  /// is gone.)
  void remove_version(const std::string& version);

  /// Total resident row-storage bytes across all registered versions.
  std::size_t total_memory_bytes() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, SnapshotPtr> versions_;
  SnapshotPtr live_;
  std::uint64_t next_epoch_ = 1;
};

}  // namespace anchor::serve
