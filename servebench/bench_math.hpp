// The benchmark's own arithmetic, kept apart from the serving code it
// drives so selftest.cpp can pin it on fixed inputs:
//   • nearest-rank percentiles and the sample-count rule (a percentile is
//     reported only when at least ten samples lie beyond it);
//   • per-request span trees built from obs::Tracer records, self times,
//     and the `unattributed` residual along the blocking path;
//   • the goodput ladder walk and its growing-backlog test.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "obs/trace.hpp"

namespace servebench {

// ---- percentiles -------------------------------------------------------

/// Smallest sample count for which quantile q leaves at least ten samples
/// beyond it: n·(1 − q) ≥ 10.
inline std::size_t min_samples_for(double q) {
  return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

inline bool percentile_supported(double q, std::size_t n) {
  return n >= min_samples_for(q);
}

/// Nearest-rank quantile: the ⌈q·n⌉-th smallest sample (q = 0.5 on an even
/// count gives the lower middle). 0 for an empty input.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size()) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

/// Quantile q of each `window_s`-long window of samples (by due time;
/// windows with fewer samples than q needs are skipped), then the lowest
/// across windows: the run's least-disturbed stretch. Interference from
/// the host (CPU steal) only adds time, and comes in episodes that can
/// cover most of a run.
inline double fastest_window_percentile(const std::vector<double>& due_s,
                                        const std::vector<double>& values,
                                        double q, double window_s);

/// Median as the mean of the two middle samples (what Python's
/// statistics.median gives), for per-run summaries of few values.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double fastest_window_percentile(const std::vector<double>& due_s,
                                        const std::vector<double>& values,
                                        double q, double window_s) {
  std::map<long, std::vector<double>> windows;
  for (std::size_t i = 0; i < due_s.size() && i < values.size(); ++i) {
    windows[static_cast<long>(std::floor(due_s[i] / window_s))].push_back(
        values[i]);
  }
  double fastest = 0.0;
  bool any = false;
  for (const auto& [w, v] : windows) {
    if (!percentile_supported(q, v.size())) continue;
    const double p = percentile(v, q);
    fastest = any ? std::min(fastest, p) : p;
    any = true;
  }
  return fastest;
}

// ---- span trees --------------------------------------------------------

using anchor::obs::SpanRecord;
using anchor::obs::TraceStage;

inline double span_us(std::uint64_t start_ns, std::uint64_t end_ns) {
  return end_ns > start_ns ? static_cast<double>(end_ns - start_ns) / 1e3
                           : 0.0;
}

/// One node of a request's span tree; children are indices into the
/// owning SpanTree::nodes.
struct SpanNode {
  SpanRecord span;
  std::vector<std::size_t> children;
  double dur_us() const { return span_us(span.start_ns, span.end_ns); }
};

/// Length (µs) of the union of the children's intervals, clipped to the
/// parent's interval.
inline double covered_us(const SpanNode& parent,
                         const std::vector<const SpanNode*>& children) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  for (const SpanNode* c : children) {
    const std::uint64_t s = std::max(c->span.start_ns, parent.span.start_ns);
    const std::uint64_t e = std::min(c->span.end_ns, parent.span.end_ns);
    if (e > s) iv.emplace_back(s, e);
  }
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  std::uint64_t cur_s = 0, cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) total += span_us(cur_s, cur_e);
    cur_s = s;
    cur_e = e;
    open = true;
  }
  if (open) total += span_us(cur_s, cur_e);
  return total;
}

/// The spans of one traced request arranged by stage and time:
///   client_send ⊃ router_recv ⊃ {scatter ⊃ shard_rtt ⊃ backend_recv, merge}
///   backend_recv ⊃ {batch_queue, batch_exec ⊃ dequantize, topk_search}
/// A span's parent is the stage above it whose interval holds the span's
/// start (a server closes its span after writing the reply, so it may end
/// a few µs after the caller read it); children are then clipped to their
/// parent. Backend-side spans share the span id of the frame that carried
/// them, so a backend's children are matched by span id; shard RTTs and
/// backend receipts are paired in send order within their scatter.
struct SpanTree {
  std::vector<SpanNode> nodes;
  std::size_t root = 0;
  bool complete = false;  // every span found a parent
  std::size_t orphans = 0;

  explicit SpanTree(std::vector<SpanRecord> spans) {
    std::sort(spans.begin(), spans.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                return a.start_ns < b.start_ns;
              });
    for (const SpanRecord& s : spans) nodes.push_back({s, {}});
    std::vector<std::size_t> by_stage[16];
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto st = static_cast<std::size_t>(nodes[i].span.stage);
      if (st < 16) by_stage[st].push_back(i);
    }
    const auto stage = [&](TraceStage s) -> const std::vector<std::size_t>& {
      return by_stage[static_cast<std::size_t>(s)];
    };
    const auto contains = [&](std::size_t p, std::size_t c) {
      return nodes[p].span.start_ns <= nodes[c].span.start_ns &&
             nodes[c].span.start_ns <= nodes[p].span.end_ns;
    };
    std::vector<bool> placed(nodes.size(), false);
    const auto attach = [&](std::size_t p, std::size_t c) {
      nodes[p].children.push_back(c);
      placed[c] = true;
    };
    // Latest-starting parent-stage span holding the child's start.
    const auto attach_by_containment = [&](TraceStage parent_stage,
                                           TraceStage child_stage) {
      for (std::size_t c : stage(child_stage)) {
        std::size_t best = nodes.size();
        for (std::size_t p : stage(parent_stage)) {
          if (contains(p, c) &&
              (best == nodes.size() ||
               nodes[p].span.start_ns > nodes[best].span.start_ns)) {
            best = p;
          }
        }
        if (best != nodes.size()) attach(best, c);
      }
    };

    if (stage(TraceStage::kClientSend).size() != 1) return;
    root = stage(TraceStage::kClientSend)[0];
    placed[root] = true;
    attach_by_containment(TraceStage::kClientSend, TraceStage::kRouterRecv);
    attach_by_containment(TraceStage::kRouterRecv, TraceStage::kRouterScatter);
    attach_by_containment(TraceStage::kRouterRecv, TraceStage::kRouterMerge);
    attach_by_containment(TraceStage::kRouterScatter, TraceStage::kShardRtt);
    // Backend receipts pair with the RTTs of the scatter containing them,
    // both in start order (the router sends sub-requests in shard order).
    std::map<std::size_t, std::vector<std::size_t>> backends_of_scatter;
    for (std::size_t b : stage(TraceStage::kBackendRecv)) {
      for (std::size_t s : stage(TraceStage::kRouterScatter)) {
        if (contains(s, b)) {
          backends_of_scatter[s].push_back(b);
          break;
        }
      }
    }
    for (auto& [scatter, backends] : backends_of_scatter) {
      const std::vector<std::size_t>& rtts = nodes[scatter].children;
      for (std::size_t i = 0; i < backends.size() && i < rtts.size(); ++i) {
        attach(rtts[i], backends[i]);
      }
    }
    const auto attach_by_span_id = [&](TraceStage parent_stage,
                                       TraceStage child_stage) {
      for (std::size_t c : stage(child_stage)) {
        for (std::size_t p : stage(parent_stage)) {
          if (nodes[p].span.span_id == nodes[c].span.span_id) {
            attach(p, c);
            break;
          }
        }
      }
    };
    attach_by_span_id(TraceStage::kBackendRecv, TraceStage::kBatchQueue);
    attach_by_span_id(TraceStage::kBackendRecv, TraceStage::kBatchExec);
    attach_by_span_id(TraceStage::kBackendRecv, TraceStage::kTopkSearch);
    attach_by_span_id(TraceStage::kBatchExec, TraceStage::kDequantize);
    for (bool p : placed) orphans += p ? 0 : 1;
    complete = orphans == 0;
    clip(root);
  }

  void clip(std::size_t p) {
    for (std::size_t c : nodes[p].children) {
      SpanRecord& s = nodes[c].span;
      s.start_ns = std::max(s.start_ns, nodes[p].span.start_ns);
      s.end_ns = std::max(s.start_ns,
                          std::min(s.end_ns, nodes[p].span.end_ns));
      clip(c);
    }
  }

  std::vector<const SpanNode*> children_of(const SpanNode& n) const {
    std::vector<const SpanNode*> out;
    for (std::size_t c : n.children) out.push_back(&nodes[c]);
    return out;
  }

  /// Span duration minus the part of it its child spans cover.
  double self_us(const SpanNode& n) const {
    return n.dur_us() - covered_us(n, children_of(n));
  }

  /// Blocking chain among n's children: the child that ends last, then
  /// the child ending last before that one starts, and so on. Children
  /// overlapping the chain without being on it (a shard that answered
  /// first) do not block the parent.
  std::vector<const SpanNode*> blocking_children(const SpanNode& n) const {
    std::vector<const SpanNode*> kids = children_of(n);
    std::vector<const SpanNode*> chain;
    std::uint64_t limit = std::numeric_limits<std::uint64_t>::max();
    while (true) {
      const SpanNode* best = nullptr;
      for (const SpanNode* k : kids) {
        if (k->span.end_ns <= limit &&
            (best == nullptr || k->span.end_ns > best->span.end_ns)) {
          best = k;
        }
      }
      if (best == nullptr) break;
      chain.push_back(best);
      limit = best->span.start_ns;
      kids.erase(std::find(kids.begin(), kids.end(), best));
    }
    return chain;
  }

  /// Sum of self times along the blocking path below (and including) n.
  double attributed_us(const SpanNode& n) const {
    double total = self_us(n);
    for (const SpanNode* c : blocking_children(n)) total += attributed_us(*c);
    return total;
  }

  /// client_send minus the self times along the blocking path: the time
  /// covered only by spans that do not block the reply.
  double unattributed_us() const {
    if (nodes.empty()) return 0.0;
    const SpanNode& r = nodes[root];
    return std::max(0.0, r.dur_us() - attributed_us(r));
  }
};

// ---- goodput ladder ----------------------------------------------------

/// True when the generator fell further and further behind its schedule:
/// the median lateness of the last quarter of a rung's requests (in due
/// order) exceeds both twice that of the first quarter and `floor_us`.
inline bool backlog_growing(const std::vector<double>& lateness_in_due_order,
                            double floor_us) {
  const std::size_t n = lateness_in_due_order.size();
  if (n < 8) return false;
  const std::size_t q = n / 4;
  const std::vector<double> first(lateness_in_due_order.begin(),
                                  lateness_in_due_order.begin() + q);
  const std::vector<double> last(lateness_in_due_order.end() - q,
                                 lateness_in_due_order.end());
  const double a = percentile(first, 0.5);
  const double b = percentile(last, 0.5);
  return b > floor_us && b > 2.0 * a;
}

struct RungResult {
  double rate = 0.0;
  double p99_us = 0.0;
  std::size_t samples = 0;
  std::size_t failed = 0;
  bool backlog = false;

  bool passes(double limit_us) const {
    return failed == 0 && !backlog && samples > 0 &&
           percentile_supported(0.99, samples) && p99_us <= limit_us;
  }
};

/// Walks the sorted ladder from the nominal rung: upward while rungs pass,
/// downward while they fail. Returns the highest passing rate (0 when none
/// passes). `probe(rate)` runs one rung. Assumes a rung passing implies
/// every lower rung would, so rungs below a passing nominal are skipped.
template <typename Probe>
double ladder_walk(const std::vector<double>& rates, std::size_t nominal,
                   double limit_us, Probe&& probe) {
  if (rates.empty()) return 0.0;
  nominal = std::min(nominal, rates.size() - 1);
  if (probe(rates[nominal]).passes(limit_us)) {
    double best = rates[nominal];
    for (std::size_t i = nominal + 1; i < rates.size(); ++i) {
      if (!probe(rates[i]).passes(limit_us)) break;
      best = rates[i];
    }
    return best;
  }
  for (std::size_t i = nominal; i-- > 0;) {
    if (probe(rates[i]).passes(limit_us)) return rates[i];
  }
  return 0.0;
}

}  // namespace servebench
