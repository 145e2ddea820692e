// Linear-scan reference for the Space-Saving heavy-hitter sketch (Metwally,
// Agrawal and El Abbadi), written from the definition and sharing no code
// with obs/heavy_hitters: per stripe a plain vector of (key, count, error)
// entries, a linear search for the offered key, and on a full stripe a
// linear scan for the victim — minimum count, smallest key on ties — whose
// slot the newcomer takes with the victim's count as its error. Keys
// partition across stripes by the splitmix64 finalizer modulo the stripe
// count, the partition SpaceSavingSketch documents. Tests pin the
// heap-ordered sketch against it entry for entry.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/heavy_hitters.hpp"

namespace anchor::sketch_reference {

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class LinearScanSketch {
 public:
  /// Same sizing rule as SpaceSavingSketch::Config: at least one stripe,
  /// at least one entry per stripe, capacity split evenly.
  LinearScanSketch(std::size_t capacity, std::size_t stripes) {
    if (stripes == 0) stripes = 1;
    if (capacity < stripes) capacity = stripes;
    per_stripe_ = capacity / stripes;
    stripes_.resize(stripes);
  }

  void offer(std::uint64_t key, std::uint64_t n = 1) {
    if (n == 0) return;
    Stripe& s = stripes_[splitmix64(key) % stripes_.size()];
    s.total += n;
    for (obs::HeavyHitter& e : s.entries) {
      if (e.key == key) {
        e.count += n;
        return;
      }
    }
    if (s.entries.size() < per_stripe_) {
      s.entries.push_back({key, n, 0});
      return;
    }
    std::size_t victim = 0;
    for (std::size_t i = 1; i < s.entries.size(); ++i) {
      const obs::HeavyHitter& e = s.entries[i];
      const obs::HeavyHitter& v = s.entries[victim];
      if (e.count < v.count || (e.count == v.count && e.key < v.key)) {
        victim = i;
      }
    }
    obs::HeavyHitter& v = s.entries[victim];
    v.error = v.count;
    v.count += n;
    v.key = key;
  }

  /// Every stripe's entries, sorted (count desc, key asc).
  obs::SketchSnapshot snapshot() const {
    obs::SketchSnapshot out;
    out.capacity = per_stripe_ * stripes_.size();
    for (const Stripe& s : stripes_) {
      out.total += s.total;
      out.entries.insert(out.entries.end(), s.entries.begin(),
                         s.entries.end());
    }
    std::sort(out.entries.begin(), out.entries.end(),
              [](const obs::HeavyHitter& a, const obs::HeavyHitter& b) {
                return a.count != b.count ? a.count > b.count : a.key < b.key;
              });
    return out;
  }

 private:
  struct Stripe {
    std::vector<obs::HeavyHitter> entries;
    std::uint64_t total = 0;
  };
  std::size_t per_stripe_ = 0;
  std::vector<Stripe> stripes_;
};

}  // namespace anchor::sketch_reference
