#include "serve/lookup_service.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>

#include "obs/heavy_hitters.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace anchor::serve {

namespace {

constexpr std::size_t kCacheShards = 16;
constexpr std::size_t kNotARow = static_cast<std::size_t>(-1);

// Cache key mixing the snapshot epoch and the row id. Epochs are small
// monotonically increasing integers, rows are bounded by vocab size, so
// (epoch << 40) | row is collision-free for any realistic store lifetime.
std::uint64_t cache_key(std::uint64_t epoch, std::size_t row) {
  return (epoch << 40) | static_cast<std::uint64_t>(row);
}

}  // namespace

// Documented in the header; lives outside the anonymous namespace so the
// cluster shard router resolves words with the identical rule.
bool parse_synthetic_word_id(const std::string& word, std::size_t* id) {
  // > 15 digits cannot be a real row id and would overflow the accumulator
  // into a wrong-but-valid id.
  if (word.size() < 2 || word.size() > 16 || word[0] != 'w') return false;
  std::size_t value = 0;
  for (std::size_t i = 1; i < word.size(); ++i) {
    const char c = word[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  *id = value;
  return true;
}

LookupService::LookupService(const EmbeddingStore& store, LookupConfig config,
                             std::shared_ptr<ServeStats> stats)
    : store_(store),
      config_(config),
      stats_(stats ? std::move(stats) : std::make_shared<ServeStats>()),
      cache_shards_(kCacheShards) {}

void LookupService::fetch_rows(const EmbeddingSnapshot& snap,
                               const std::vector<std::size_t>& rows,
                               float* out) const {
  const std::size_t dim = snap.dim();
  // fp32 rows are a bare memcpy — the cache's mutex + LRU bookkeeping can
  // only slow them down, so only encoded (uniform-quantized or PQ)
  // snapshots go through it; both pay a real decode on a miss.
  if (config_.cache_rows_per_shard == 0 ||
      (snap.bits() == 32 && !snap.is_pq())) {
    // One copy_rows call per run of in-vocabulary rows, straight into the
    // result slots — a single call for a batch without OOV requests.
    for (std::size_t i = 0; i < rows.size();) {
      std::size_t end = i;
      while (end < rows.size() && rows[end] != kNotARow) ++end;
      if (end > i) snap.copy_rows(rows.data() + i, end - i, out + i * dim);
      i = end + 1;  // past the OOV sentinel that ended the run
    }
    return;
  }

  // Pass 1 — probe: requests are bucketed by cache shard so each shard's
  // mutex is taken once per batch (not once per row); hits are copied out
  // under that one lock, misses collected for the block-dequantize pass.
  struct Miss {
    std::uint32_t req = 0;    // request index (result slot)
    std::uint32_t shard = 0;  // cache shard the row hashes to
  };
  const std::uint64_t epoch = snap.epoch();
  // Reused scratch (like block/miss_rows below): the steady-state hot path
  // should not pay a heap allocation per batch.
  thread_local std::array<std::vector<std::uint32_t>, kCacheShards> by_shard;
  for (auto& bucket : by_shard) bucket.clear();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] == kNotARow) continue;
    by_shard[cache_key(epoch, rows[i]) % kCacheShards].push_back(
        static_cast<std::uint32_t>(i));
  }
  std::vector<Miss> misses;
  // A row requested twice in one batch misses at most once: later
  // occurrences copy from the first one's result slot after the block
  // dequantize and count as hits — the same accounting the per-row path
  // gave them (they would have hit the entry the first occurrence
  // inserted).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> dups;  // (req, source)
  thread_local std::unordered_map<std::size_t, std::uint32_t> first_miss;
  std::uint64_t hits = 0;
  for (std::size_t s = 0; s < kCacheShards; ++s) {
    if (by_shard[s].empty()) continue;
    CacheShard& shard = cache_shards_[s];
    first_miss.clear();
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const std::uint32_t i : by_shard[s]) {
      const auto it = shard.index.find(cache_key(epoch, rows[i]));
      if (it != shard.index.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        std::memcpy(out + i * dim, it->second->vec.data(),
                    dim * sizeof(float));
        ++hits;
        continue;
      }
      const auto [fit, fresh] = first_miss.try_emplace(rows[i], i);
      if (fresh) {
        misses.push_back({i, static_cast<std::uint32_t>(s)});
      } else {
        dups.emplace_back(i, fit->second);
        ++hits;
      }
    }
  }
  if (hits > 0) stats_->record_cache_hit(hits);
  if (misses.empty() && dups.empty()) return;
  if (!misses.empty()) stats_->record_cache_miss(misses.size());

  // Pass 2 — block dequantize outside any lock: one copy_rows call unpacks
  // every missed row straight into its result slot (a burst of misses after
  // a cold start or hot swap never serializes the unpack work).
  thread_local std::vector<std::size_t> miss_rows;
  miss_rows.clear();
  miss_rows.reserve(misses.size());
  for (const Miss& m : misses) miss_rows.push_back(rows[m.req]);
  thread_local std::vector<float> block;
  if (block.size() < misses.size() * dim) block.resize(misses.size() * dim);
  snap.copy_rows(miss_rows.data(), miss_rows.size(), block.data());
  for (std::size_t k = 0; k < misses.size(); ++k) {
    std::memcpy(out + misses[k].req * dim, block.data() + k * dim,
                dim * sizeof(float));
  }
  for (const auto& [req, source] : dups) {
    std::memcpy(out + req * dim, out + source * dim, dim * sizeof(float));
  }

  // Pass 3 — insert: misses are already grouped by shard (pass 1 emitted
  // them shard-by-shard), so again one lock per shard. try_emplace probes
  // and claims the slot in a single hash walk; at capacity the evicted LRU
  // node is recycled in place, so the steady state allocates nothing.
  std::size_t k = 0;
  while (k < misses.size()) {
    const std::uint32_t s = misses[k].shard;
    CacheShard& shard = cache_shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (; k < misses.size() && misses[k].shard == s; ++k) {
      const std::uint64_t key = cache_key(epoch, rows[misses[k].req]);
      const auto [it, inserted] = shard.index.try_emplace(key);
      if (!inserted) continue;  // another thread raced us in
      const float* vec = block.data() + k * dim;
      if (shard.lru.size() >= config_.cache_rows_per_shard) {
        const auto last = std::prev(shard.lru.end());
        shard.index.erase(last->key);
        shard.lru.splice(shard.lru.begin(), shard.lru, last);
        last->key = key;
        last->vec.assign(vec, vec + dim);
      } else {
        shard.lru.push_front({key, std::vector<float>(vec, vec + dim)});
      }
      it->second = shard.lru.begin();
    }
  }
}

template <typename Resolve, typename OovFill>
void LookupService::lookup_batch_into(std::size_t n, const Resolve& resolve,
                                      const OovFill& oov_fill,
                                      LookupResult* out) const {
  const auto start = std::chrono::steady_clock::now();
  const SnapshotPtr snap =
      config_.pin_snapshot ? config_.pin_snapshot : store_.live();
  ANCHOR_CHECK_MSG(snap != nullptr, "lookup against a store with no versions");

  out->dim = snap->dim();
  out->version = snap->version();
  out->vectors.assign(n * snap->dim(), 0.0f);
  out->oov.assign(n, 0);

  // Resolve every request to a row id (or the OOV sentinel) first, then
  // gather all in-vocabulary rows in one batched cache/dequantize pass.
  // The row scratch is thread_local for the same reason fetch_rows'
  // buffers are: a server thread answering batches forever should not pay
  // a heap allocation per batch.
  thread_local std::vector<std::size_t> rows;
  rows.assign(n, kNotARow);
  std::size_t oov_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!resolve(i, *snap, &rows[i])) {
      rows[i] = kNotARow;
      out->oov[i] = 1;
      ++oov_count;
    }
  }
  if (config_.load != nullptr) {
    // Key-load attribution happens at resolve time, before the gather, so
    // a cache hit and a dequantize miss weigh the same: the sketch and
    // heat map measure demand, not cost. One batched record per request.
    thread_local std::vector<std::size_t> resolved;
    resolved.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (rows[i] != kNotARow) resolved.push_back(rows[i]);
    }
    config_.load->record_ids(resolved.data(), resolved.size());
  }
  {
    // The cache/dequantize gather is the batch's compute kernel; when a
    // traced batch is executing (Tracer::Scope installed by the batcher),
    // bracket it as the dequantize span.
    const obs::TraceContext& trace = obs::Tracer::current();
    const std::uint64_t t0 = trace.sampled() ? obs::Tracer::now_ns() : 0;
    fetch_rows(*snap, rows, out->vectors.data());
    if (trace.sampled()) {
      obs::Tracer::instance().record(trace, obs::TraceStage::kDequantize, t0,
                                     obs::Tracer::now_ns());
    }
  }
  if (oov_count > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (out->oov[i]) {
        oov_fill(i, *snap, out->vectors.data() + i * snap->dim());
      }
    }
  }

  const double latency_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start)
          .count();
  stats_->record_batch(n, latency_us);
  if (oov_count > 0) stats_->record_oov(oov_count);
}

void LookupService::lookup_ids_into(const std::vector<std::size_t>& ids,
                                    LookupResult* out) const {
  lookup_batch_into(
      ids.size(),
      [&](std::size_t i, const EmbeddingSnapshot& snap, std::size_t* row) {
        if (ids[i] >= snap.vocab_size()) return false;
        *row = ids[i];
        return true;
      },
      // Ids outside the vocabulary have no subword string to synthesize
      // from; their slots stay zeroed.
      [](std::size_t, const EmbeddingSnapshot&, float*) {}, out);
}

void LookupService::lookup_words_into(const std::vector<std::string>& words,
                                      LookupResult* out) const {
  lookup_batch_into(
      words.size(),
      [&](std::size_t i, const EmbeddingSnapshot& snap, std::size_t* row) {
        std::size_t id = 0;
        if (!parse_synthetic_word_id(words[i], &id) || id >= snap.vocab_size()) {
          return false;
        }
        *row = id;
        return true;
      },
      [&](std::size_t i, const EmbeddingSnapshot& snap, float* out_row) {
        snap.synthesize_oov(words[i], out_row);  // zeroes on failure
      },
      out);
}

LookupResult LookupService::lookup_ids(
    const std::vector<std::size_t>& ids) const {
  LookupResult result;
  lookup_ids_into(ids, &result);
  return result;
}

LookupResult LookupService::lookup_words(
    const std::vector<std::string>& words) const {
  LookupResult result;
  lookup_words_into(words, &result);
  return result;
}

}  // namespace anchor::serve
