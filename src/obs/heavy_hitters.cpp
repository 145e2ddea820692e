#include "obs/heavy_hitters.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace anchor::obs {

namespace {

/// splitmix64 finalizer — full-avalanche stripe hash so sequential ids
/// (the common key space) spread across stripes instead of striding.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Canonical entry order: count desc, key asc — deterministic, so merged
/// snapshots are bit-identical regardless of merge order.
bool canonical_less(const HeavyHitter& a, const HeavyHitter& b) {
  if (a.count != b.count) return a.count > b.count;
  return a.key < b.key;
}

std::uint64_t wall_micros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// ---- SketchSnapshot ------------------------------------------------------

void SketchSnapshot::merge(const SketchSnapshot& other) {
  total += other.total;
  if (capacity == 0 || (other.capacity != 0 && other.capacity < capacity)) {
    capacity = other.capacity;
  }
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(entries.size() + other.entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    index.emplace(entries[i].key, i);
  }
  for (const HeavyHitter& e : other.entries) {
    const auto it = index.find(e.key);
    if (it == index.end()) {
      index.emplace(e.key, entries.size());
      entries.push_back(e);
    } else {
      entries[it->second].count += e.count;
      entries[it->second].error += e.error;
    }
  }
  std::sort(entries.begin(), entries.end(), canonical_less);
}

std::vector<HeavyHitter> SketchSnapshot::top(std::size_t k) const {
  const std::size_t n = std::min(k, entries.size());
  return std::vector<HeavyHitter>(entries.begin(),
                                  entries.begin() + static_cast<long>(n));
}

// ---- SpaceSavingSketch ---------------------------------------------------

/// One stripe: `entries` are slots that never move once filled; `heap`
/// orders slot ids as a binary min-heap on (count, key), and `heap_pos`
/// is its inverse. `table` maps key → slot by linear probing over a
/// power-of-two array of at least 2× the capacity (load ≤ 1/2), with
/// backward-shift deletion so no tombstones accumulate. Everything is
/// sized in the constructor; offers only move values.
struct SpaceSavingSketch::Stripe {
  static constexpr std::uint32_t kEmpty =
      std::numeric_limits<std::uint32_t>::max();

  mutable std::mutex mu;
  std::vector<HeavyHitter> entries;
  std::vector<std::uint32_t> heap;
  std::vector<std::uint32_t> heap_pos;
  std::vector<std::uint32_t> table;
  std::size_t capacity = 0;
  std::size_t mask = 0;
  int shift = 0;
  std::uint64_t total = 0;

  explicit Stripe(std::size_t cap) : capacity(cap) {
    std::size_t size = 2;
    int bits = 1;
    while (size < 2 * cap) {
      size <<= 1;
      ++bits;
    }
    mask = size - 1;
    shift = 64 - bits;
    entries.reserve(cap);
    heap.reserve(cap);
    heap_pos.assign(cap, 0);
    table.assign(size, kEmpty);
  }

  /// Home cell: the top bits of a multiplicative rehash of mix64, so keys
  /// that share a stripe (equal mix64 % stripes) still spread evenly.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((mix64(key) * 0x9e3779b97f4a7c15ull) >>
                                    shift);
  }

  /// The table cell holding `key`, or the empty cell where it would go.
  std::size_t find(std::uint64_t key) const {
    std::size_t i = home(key);
    while (table[i] != kEmpty && entries[table[i]].key != key) {
      i = (i + 1) & mask;
    }
    return i;
  }

  /// Removes the occupied cell `i`, shifting later members of its probe
  /// run back so every key stays reachable from its home cell.
  void erase_cell(std::size_t i) {
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask;
      if (table[j] == kEmpty) break;
      const std::size_t h = home(entries[table[j]].key);
      if (((j - h) & mask) >= ((j - i) & mask)) {
        table[i] = table[j];
        i = j;
      }
    }
    table[i] = kEmpty;
  }

  bool less(std::uint32_t a, std::uint32_t b) const {
    const HeavyHitter& x = entries[a];
    const HeavyHitter& y = entries[b];
    return x.count < y.count || (x.count == y.count && x.key < y.key);
  }

  void place(std::size_t pos, std::uint32_t slot) {
    heap[pos] = slot;
    heap_pos[slot] = static_cast<std::uint32_t>(pos);
  }

  void sift_up(std::size_t pos) {
    const std::uint32_t slot = heap[pos];
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 2;
      if (!less(slot, heap[parent])) break;
      place(pos, heap[parent]);
      pos = parent;
    }
    place(pos, slot);
  }

  void sift_down(std::size_t pos) {
    const std::uint32_t slot = heap[pos];
    const std::size_t n = heap.size();
    for (;;) {
      std::size_t child = 2 * pos + 1;
      if (child >= n) break;
      if (child + 1 < n && less(heap[child + 1], heap[child])) ++child;
      if (!less(heap[child], slot)) break;
      place(pos, heap[child]);
      pos = child;
    }
    place(pos, slot);
  }

  /// Space-Saving update for `n` ≥ 1 occurrences of `key`; caller holds mu.
  void offer(std::uint64_t key, std::uint64_t n) {
    total += n;
    const std::size_t cell = find(key);
    if (table[cell] != kEmpty) {
      const std::uint32_t slot = table[cell];
      entries[slot].count += n;
      sift_down(heap_pos[slot]);
      return;
    }
    if (entries.size() < capacity) {
      const auto slot = static_cast<std::uint32_t>(entries.size());
      entries.push_back(HeavyHitter{key, n, 0});
      table[cell] = slot;
      heap.push_back(slot);
      sift_up(heap.size() - 1);
      return;
    }
    // Full: the heap top is the minimum-count entry (smallest key breaks
    // ties, so eviction is deterministic). The newcomer takes its slot and
    // inherits its count as the error bound — the Space-Saving replacement
    // rule. Its count only grows, so it sifts down from the root.
    const std::uint32_t victim = heap[0];
    HeavyHitter& e = entries[victim];
    erase_cell(find(e.key));
    table[find(key)] = victim;
    e.error = e.count;
    e.count += n;
    e.key = key;
    sift_down(0);
  }

  void clear() {
    entries.clear();
    heap.clear();
    std::fill(table.begin(), table.end(), kEmpty);
    total = 0;
  }
};

SpaceSavingSketch::SpaceSavingSketch(Config config) {
  if (config.stripes == 0) config.stripes = 1;
  if (config.capacity < config.stripes) config.capacity = config.stripes;
  stripe_capacity_ = config.capacity / config.stripes;
  stripes_.reserve(config.stripes);
  for (std::size_t i = 0; i < config.stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>(stripe_capacity_));
  }
}

SpaceSavingSketch::~SpaceSavingSketch() = default;

void SpaceSavingSketch::offer(std::uint64_t key, std::uint64_t n) {
  if (n == 0) return;
  Stripe& stripe = *stripes_[mix64(key) % stripes_.size()];
  std::lock_guard<std::mutex> lock(stripe.mu);
  stripe.offer(key, n);
}

void SpaceSavingSketch::offer_many(const std::uint64_t* keys, std::size_t n) {
  if (n == 0) return;
  const std::size_t s = stripes_.size();
  // Stable counting sort by stripe: each stripe's keys stay in their
  // original order, which is all that sequential offers' state depends on
  // (stripes are independent). Scratch is thread_local, so a recorder
  // called once per request allocates only while its batches grow.
  thread_local std::vector<std::uint32_t> stripe_of;
  thread_local std::vector<std::uint64_t> grouped;
  thread_local std::vector<std::size_t> start;
  stripe_of.resize(n);
  grouped.resize(n);
  start.assign(s + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    stripe_of[i] = static_cast<std::uint32_t>(mix64(keys[i]) % s);
    ++start[stripe_of[i] + 1];
  }
  for (std::size_t k = 0; k < s; ++k) start[k + 1] += start[k];
  for (std::size_t i = 0; i < n; ++i) grouped[start[stripe_of[i]]++] = keys[i];
  // The scatter advanced start[k] to stripe k's end (= stripe k+1's begin).
  std::size_t begin = 0;
  for (std::size_t k = 0; k < s; ++k) {
    const std::size_t end = start[k];
    if (begin == end) continue;
    Stripe& stripe = *stripes_[k];
    std::lock_guard<std::mutex> lock(stripe.mu);
    for (std::size_t i = begin; i < end; ++i) stripe.offer(grouped[i], 1);
    begin = end;
  }
}

SketchSnapshot SpaceSavingSketch::snapshot() const {
  SketchSnapshot out;
  out.capacity = stripe_capacity_ * stripes_.size();
  for (const auto& sp : stripes_) {
    std::lock_guard<std::mutex> lock(sp->mu);
    out.total += sp->total;
    out.entries.insert(out.entries.end(), sp->entries.begin(),
                       sp->entries.end());
  }
  std::sort(out.entries.begin(), out.entries.end(), canonical_less);
  return out;
}

void SpaceSavingSketch::reset() {
  for (const auto& sp : stripes_) {
    std::lock_guard<std::mutex> lock(sp->mu);
    sp->clear();
  }
}

// ---- HeatMapSnapshot -----------------------------------------------------

void HeatMapSnapshot::merge(const HeatMapSnapshot& other) {
  total += other.total;
  elapsed_us = std::max(elapsed_us, other.elapsed_us);
  for (const HeatRange& r : other.ranges) {
    const auto it = std::lower_bound(
        ranges.begin(), ranges.end(), r,
        [](const HeatRange& a, const HeatRange& b) {
          if (a.row_begin != b.row_begin) return a.row_begin < b.row_begin;
          return a.row_end < b.row_end;
        });
    if (it != ranges.end() && it->row_begin == r.row_begin &&
        it->row_end == r.row_end) {
      if (it->buckets.size() != r.buckets.size()) {
        throw std::runtime_error(
            "HeatMapSnapshot::merge: bucket fanout mismatch for range");
      }
      for (std::size_t i = 0; i < r.buckets.size(); ++i) {
        it->buckets[i] += r.buckets[i];
      }
    } else {
      ranges.insert(it, r);
    }
  }
}

void HeatMapSnapshot::shift_rows(std::uint64_t shift) {
  for (HeatRange& r : ranges) {
    r.row_begin += shift;
    r.row_end += shift;
  }
}

std::uint64_t HeatMapSnapshot::range_total(std::uint64_t row) const {
  for (const HeatRange& r : ranges) {
    if (row >= r.row_begin && row < r.row_end) {
      std::uint64_t n = 0;
      for (const std::uint64_t b : r.buckets) n += b;
      return n;
    }
  }
  return 0;
}

// ---- RangeHeatMap --------------------------------------------------------

RangeHeatMap::RangeHeatMap(Config config) : config_(config) {
  if (config_.buckets == 0) config_.buckets = 1;
  if (config_.row_end < config_.row_begin) {
    config_.row_end = config_.row_begin;
  }
  // More bins than rows just aliases empty bins; clamp for tidy output.
  const std::uint64_t span = config_.row_end - config_.row_begin;
  if (span != 0 && config_.buckets > span) {
    config_.buckets = static_cast<std::size_t>(span);
  }
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(config_.buckets);
  for (std::size_t i = 0; i < config_.buckets; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  start_us_ = wall_micros();
}

std::size_t RangeHeatMap::bucket_of(std::uint64_t id) const {
  const std::uint64_t span = config_.row_end - config_.row_begin;
  if (span == 0) return 0;
  const std::uint64_t off = id <= config_.row_begin ? 0
                            : id >= config_.row_end ? span - 1
                                                    : id - config_.row_begin;
  // off/span in [0,1) scaled to the fanout; 128-bit-free since off and
  // buckets are both far below 2^32 in practice — guard anyway by
  // dividing first when the product could overflow.
  const auto bucket = static_cast<std::size_t>(
      off > (~0ull / config_.buckets) ? (off / span) * config_.buckets
                                      : off * config_.buckets / span);
  return bucket < config_.buckets ? bucket : config_.buckets - 1;
}

void RangeHeatMap::record(std::uint64_t id, std::uint64_t n) {
  if (n == 0) return;
  buckets_[bucket_of(id)].fetch_add(n, std::memory_order_relaxed);
  total_.fetch_add(n, std::memory_order_relaxed);
}

void RangeHeatMap::record_many(const std::uint64_t* ids, std::size_t n) {
  if (n == 0) return;
  for (std::size_t i = 0; i < n; ++i) {
    buckets_[bucket_of(ids[i])].fetch_add(1, std::memory_order_relaxed);
  }
  total_.fetch_add(n, std::memory_order_relaxed);
}

HeatMapSnapshot RangeHeatMap::snapshot() const {
  return snapshot_at(wall_micros());
}

HeatMapSnapshot RangeHeatMap::snapshot_at(std::uint64_t now_us) const {
  HeatMapSnapshot out;
  out.total = total_.load(std::memory_order_relaxed);
  out.elapsed_us = now_us >= start_us_ ? now_us - start_us_ : 0;
  HeatRange r;
  r.row_begin = config_.row_begin;
  r.row_end = config_.row_end;
  r.buckets.resize(config_.buckets);
  for (std::size_t i = 0; i < config_.buckets; ++i) {
    r.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  out.ranges.push_back(std::move(r));
  return out;
}

}  // namespace anchor::obs
