// Thread-safe batched embedding lookup over an EmbeddingStore.
//
// The hot path — resolve the live snapshot, gather rows into the caller's
// output buffer — takes no global lock: the snapshot is an immutable
// shared_ptr, and by default rows come straight from it, one copy_rows
// call per batch (a fused dequantize/decode for encoded snapshots).
//
// An LRU row cache is available but off by default (opt in with
// LookupConfig::cache_rows_per_shard). Its mutexes, LRU bookkeeping and
// hash probes cost more than the dequantize they skip: on int8 at dim 64
// bench_serve_throughput measures 33–52 Mqps uncached vs 4.0–4.8 Mqps
// cached, and servebench's skewed `lookup` traffic hits it for only ~12%
// of keys. When enabled it is a fixed pool of 16 cache shards, each a
// mutex-guarded LRU keyed by (snapshot epoch, row), so a hot swap can
// never serve a stale generation. Batches take each shard mutex at most
// twice (one probe pass, one insert pass) and dequantize all misses in a
// single block between them.
//
// Requests may also carry word *strings*; ids outside the live vocabulary
// fall back to subword synthesis (embed/subword hashed n-grams) when the
// snapshot carries an OOV table.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/embedding_store.hpp"
#include "serve/serve_stats.hpp"

namespace anchor::obs {
struct KeyLoadRecorder;
}  // namespace anchor::obs

namespace anchor::serve {

struct LookupConfig {
  /// Hot rows cached per *cache* shard (a fixed pool of 16, so total
  /// capacity is 16× this, shared across live epochs). 0 (the default)
  /// disables caching: a batched dequantize is cheaper than the cache's
  /// bookkeeping (see the header comment). Only encoded snapshots use the
  /// cache; fp32 rows are a bare memcpy and always bypass it.
  std::size_t cache_rows_per_shard = 0;
  /// When set, every lookup resolves this exact snapshot instead of the
  /// store's live one. Identity, not name: the canary router pins the
  /// candidate snapshot it evaluated, so a concurrent re-register under
  /// the same version id can never ride into a running canary.
  SnapshotPtr pin_snapshot = nullptr;
  /// When set, every resolved (in-vocabulary) row is attributed to the
  /// heavy-hitter sketch and range heat map — one hook covers the direct,
  /// batched, and canary-shadow paths, which all funnel through
  /// lookup_batch_into. OOV requests resolve to no row and are skipped:
  /// they carry no id to attribute a range to. Not owned; must outlive
  /// the service.
  obs::KeyLoadRecorder* load = nullptr;
};

/// LookupResult::oov flag values. The serve layer itself only ever writes
/// 0 or kLookupFlagOov; the cluster router additionally flags rows it
/// could not serve because the owning shard was down with
/// kLookupFlagDegraded (zero vector, same consumer contract as OOV: "this
/// is not a real embedding"). Callers that only test `oov[i] != 0` treat
/// both identically, which is exactly the degraded-mode contract.
inline constexpr std::uint8_t kLookupFlagOov = 1;
inline constexpr std::uint8_t kLookupFlagDegraded = 2;

/// Parses a synthetic id "wNNNN" → row id; returns false for anything else
/// (real-word strings, malformed or overflowing tokens), which then takes
/// the OOV path. Shared with the cluster shard router, which resolves
/// word traffic to global rows with the same rule the backends use.
bool parse_synthetic_word_id(const std::string& word, std::size_t* id);

/// Result of a batched lookup: vectors are concatenated row-major in
/// request order (batch_size × dim). The struct is reusable: the *_into
/// entry points overwrite it in place, so a long-lived caller (the async
/// batcher, a connection handler) keeps one result per coalesced batch and
/// never reallocates in the steady state. It also doubles as the RPC
/// payload layout (net/wire serializes these fields verbatim).
struct LookupResult {
  std::size_t dim = 0;
  std::vector<float> vectors;
  /// Per-request flags: true when the word was out-of-vocabulary and the
  /// vector was synthesized (or zeroed) rather than looked up.
  std::vector<std::uint8_t> oov;
  std::string version;  // snapshot that answered

  std::size_t size() const { return oov.size(); }
  const float* row(std::size_t i) const { return vectors.data() + i * dim; }
};

class LookupService {
 public:
  /// The store must outlive the service. `stats` may be shared with other
  /// services; when null an internal ServeStats is used.
  explicit LookupService(const EmbeddingStore& store, LookupConfig config = {},
                         std::shared_ptr<ServeStats> stats = nullptr);

  /// Batched lookup by word id against the live snapshot. Ids ≥ vocab_size
  /// yield zero vectors flagged oov (no subword string to synthesize from).
  LookupResult lookup_ids(const std::vector<std::size_t>& ids) const;

  /// Batched lookup by word string. In-vocabulary synthetic ids ("w0042")
  /// resolve to their row; anything else takes the subword OOV fallback.
  LookupResult lookup_words(const std::vector<std::string>& words) const;

  /// In-place variants: overwrite `out`, reusing its buffers (`assign`
  /// keeps capacity), so a caller serving many batches pays no allocation
  /// after warm-up. The batcher and the RPC connection handlers use these.
  void lookup_ids_into(const std::vector<std::size_t>& ids,
                       LookupResult* out) const;
  void lookup_words_into(const std::vector<std::string>& words,
                         LookupResult* out) const;

  const ServeStats& stats() const { return *stats_; }
  ServeStats& stats() { return *stats_; }

 private:
  struct CacheShard {
    mutable std::mutex mu;
    // LRU: most-recent at front; map values point into the list.
    struct Entry {
      std::uint64_t key = 0;
      std::vector<float> vec;
    };
    std::list<Entry> lru;
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index;
  };

  /// Batched row gather. Uncached (the default) or fp32: one copy_rows
  /// call per run of in-vocabulary rows — one call when the batch has no
  /// OOV. Cached: one probe pass taking each cache shard's mutex at most
  /// once (hits copied under that lock), one lock-free block dequantize of
  /// every miss straight into the result buffer, one insert pass (again
  /// one lock per shard, recycling evicted LRU nodes so the steady state
  /// allocates nothing). Entries of `rows` equal to the OOV sentinel are
  /// skipped.
  void fetch_rows(const EmbeddingSnapshot& snap,
                  const std::vector<std::size_t>& rows, float* out) const;

  /// Shared batch skeleton: resolve the live snapshot, map every request to
  /// a row id via `resolve(i, snap, &row)` (false = OOV), gather all rows
  /// in one fetch_rows pass, fill OOV slots via `oov_fill`, record stats.
  /// Writes into `*out` (reusing its buffers). Defined in the .cpp; the
  /// public entry points instantiate it there.
  template <typename Resolve, typename OovFill>
  void lookup_batch_into(std::size_t n, const Resolve& resolve,
                         const OovFill& oov_fill, LookupResult* out) const;

  const EmbeddingStore& store_;
  LookupConfig config_;
  std::shared_ptr<ServeStats> stats_;
  mutable std::vector<CacheShard> cache_shards_;
};

}  // namespace anchor::serve
