// Self-test of servebench's own arithmetic on fixed inputs: percentiles and
// the sample-count rule, self times and the unattributed residual on a
// synthetic span set, and the goodput ladder walk. Exits non-zero on the
// first failed check. (The comparison rule is tested by
// `python3 servebench/compare.py --selftest`.)
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "servebench/bench_math.hpp"

namespace {

using anchor::obs::SpanRecord;
using anchor::obs::TraceStage;
using namespace servebench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "selftest FAILED: " << what << "\n";
    ++g_failures;
  }
}

void expect_near(double got, double want, const std::string& what) {
  expect(std::fabs(got - want) < 1e-9,
         what + " (got " + std::to_string(got) + ", want " +
             std::to_string(want) + ")");
}

SpanRecord span(TraceStage stage, std::uint64_t start_us, std::uint64_t end_us,
                std::uint64_t span_id = 1, std::uint32_t detail = 0) {
  SpanRecord s;
  s.trace_id = 7;
  s.span_id = span_id;
  s.stage = stage;
  s.detail = detail;
  s.start_ns = start_us * 1000;
  s.end_ns = end_us * 1000;
  return s;
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect_near(percentile(v, 0.50), 50, "p50 of 1..100 is the 50th value");
  expect_near(percentile(v, 0.99), 99, "p99 of 1..100 is the 99th value");
  expect_near(percentile(v, 1.0), 100, "p100 is the maximum");
  expect_near(percentile({5.0}, 0.99), 5, "one sample is every percentile");
  expect_near(percentile({}, 0.5), 0, "empty input reads 0");
  expect_near(percentile({3, 1, 2}, 0.5), 2, "unsorted input");
  expect_near(median({4, 1, 3, 2}), 2.5, "even-count median averages");
  expect_near(median({9, 1, 5}), 5, "odd-count median");

  // Ten samples must lie beyond a reported percentile.
  expect(min_samples_for(0.99) == 1000, "p99 needs 1000 samples");
  expect(min_samples_for(0.90) == 100, "p90 needs 100 samples");
  expect(min_samples_for(0.50) == 20, "p50 needs 20 samples");
  expect(!percentile_supported(0.99, 999), "999 samples do not support p99");
  expect(percentile_supported(0.99, 1000), "1000 samples support p99");

  // Three 1-s windows of 100 samples; the first one is hit by a burst.
  std::vector<double> due, lat;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 100; ++i) {
      due.push_back(w + i / 100.0);
      lat.push_back(w == 0 ? 5000.0 + i : 100.0 + i + w);
    }
  }
  expect_near(fastest_window_percentile(due, lat, 0.9, 1.0), 190,
              "lowest of the window p90s (5089, 190, 191)");
  // A window too small for its percentile does not count.
  due.push_back(3.5);
  lat.push_back(1.0);
  expect_near(fastest_window_percentile(due, lat, 0.9, 1.0), 190,
              "an undersized window is skipped");
  expect_near(fastest_window_percentile({}, {}, 0.9, 1.0), 0,
              "no eligible window reads 0");
}

void test_span_tree() {
  // One 2-shard lookup (µs):
  //   client_send   0..100
  //   router_recv  10..90   → scatter 15..75, merge 75..80
  //   shard_rtt 0  16..60   ⊃ backend A 20..55 (queue 22..30, exec 30..50
  //                                              ⊃ dequantize 32..44)
  //   shard_rtt 1  18..75   ⊃ backend B 25..70 (queue 26..40, exec 40..65)
  const std::vector<SpanRecord> spans = {
      span(TraceStage::kClientSend, 0, 100, 1),
      span(TraceStage::kRouterRecv, 10, 90, 1),
      span(TraceStage::kRouterScatter, 15, 75, 1),
      span(TraceStage::kShardRtt, 16, 60, 1, 0),
      span(TraceStage::kShardRtt, 18, 75, 1, 1),
      span(TraceStage::kRouterMerge, 75, 80, 1),
      span(TraceStage::kBackendRecv, 20, 55, 2),
      span(TraceStage::kBatchQueue, 22, 30, 2),
      span(TraceStage::kBatchExec, 30, 50, 2),
      span(TraceStage::kDequantize, 32, 44, 2),
      span(TraceStage::kBackendRecv, 25, 70, 3),
      span(TraceStage::kBatchQueue, 26, 40, 3),
      span(TraceStage::kBatchExec, 40, 65, 3),
  };
  const SpanTree tree(spans);
  expect(tree.complete, "every span placed");
  const auto node = [&](TraceStage st, std::uint64_t start_us) {
    for (const SpanNode& n : tree.nodes) {
      if (n.span.stage == st && n.span.start_ns == start_us * 1000) return &n;
    }
    return static_cast<const SpanNode*>(nullptr);
  };
  expect_near(tree.self_us(*node(TraceStage::kClientSend, 0)), 20,
              "client_send self = 100 − router_recv 80");
  expect_near(tree.self_us(*node(TraceStage::kRouterRecv, 10)), 15,
              "router_recv self = 80 − scatter 60 − merge 5");
  expect_near(tree.self_us(*node(TraceStage::kRouterScatter, 15)), 1,
              "scatter self = 60 − union of RTTs [16, 75)");
  expect_near(tree.self_us(*node(TraceStage::kShardRtt, 18)), 12,
              "shard 1 RTT self = 57 − backend B 45");
  expect_near(tree.self_us(*node(TraceStage::kBackendRecv, 20)), 7,
              "backend A self = 35 − queue 8 − exec 20");
  expect_near(tree.self_us(*node(TraceStage::kBatchExec, 30)), 8,
              "exec self = 20 − dequantize 12");

  // Blocking path: client_send → router_recv → {merge, scatter} →
  // shard 1 RTT (ends last) → backend B → {exec, queue}. Self times along
  // it: 20 + 15 + 5 + 1 + 12 + 6 + 25 + 14 = 98, so 2 µs are covered only
  // by shard 0's RTT (16..18, before shard 1's send): unattributed.
  expect_near(tree.attributed_us(*node(TraceStage::kClientSend, 0)), 98,
              "attributed along the blocking path");
  expect_near(tree.unattributed_us(), 2, "unattributed residual");

  // A backend closing its span 3 µs after the router read its reply is
  // still placed, and clipped to its RTT.
  std::vector<SpanRecord> late = spans;
  late[10] = span(TraceStage::kBackendRecv, 25, 78, 3);
  const SpanTree late_tree(late);
  expect(late_tree.complete, "a span overhanging its parent is placed");
  expect_near(late_tree.unattributed_us(), 2,
              "clipping keeps the residual unchanged");

  // A backend span whose frame never reached any RTT is an orphan.
  std::vector<SpanRecord> broken = spans;
  broken.push_back(span(TraceStage::kBatchQueue, 30, 31, 99));
  expect(!SpanTree(broken).complete, "an unplaceable span is reported");
  // No client span, no tree.
  expect(!SpanTree({span(TraceStage::kRouterRecv, 0, 1)}).complete,
         "a trace without its client span is incomplete");
}

void test_ladder() {
  const std::vector<double> rates = {250, 500, 1000, 2000};
  const auto probe_with = [](double capacity, std::vector<double>* probed) {
    return [capacity, probed](double rate) {
      probed->push_back(rate);
      RungResult r;
      r.rate = rate;
      r.samples = 1000;
      r.p99_us = rate <= capacity ? 1000 : 9000;
      return r;
    };
  };
  std::vector<double> probed;
  expect_near(ladder_walk(rates, 1, 5000, probe_with(1000, &probed)), 1000,
              "walks up from a passing nominal rung");
  expect(probed == std::vector<double>({500, 1000, 2000}),
         "stops at the first failing rung above nominal");
  probed.clear();
  expect_near(ladder_walk(rates, 1, 5000, probe_with(300, &probed)), 250,
              "walks down from a failing nominal rung");
  expect(probed == std::vector<double>({500, 250}), "down-walk probes");
  probed.clear();
  expect_near(ladder_walk(rates, 1, 5000, probe_with(100, &probed)), 0,
              "no passing rung reads 0");
  probed.clear();
  expect_near(ladder_walk(rates, 1, 5000, probe_with(1e9, &probed)), 2000,
              "every rung passing reads the top rung");

  RungResult r;
  r.samples = 1000;
  r.p99_us = 100;
  expect(r.passes(5000), "a clean rung passes");
  r.failed = 1;
  expect(!r.passes(5000), "a failed request fails the rung");
  r.failed = 0;
  r.samples = 500;
  expect(!r.passes(5000), "too few samples for p99 fails the rung");
  r.samples = 1000;
  r.backlog = true;
  expect(!r.passes(5000), "a growing backlog fails the rung");

  std::vector<double> steady(400, 80.0), rising;
  for (int i = 0; i < 400; ++i) rising.push_back(50.0 + 40.0 * i);
  expect(!backlog_growing(steady, 5000), "steady lateness is no backlog");
  expect(backlog_growing(rising, 5000), "rising lateness is a backlog");
  std::vector<double> jitter(400, 80.0);
  for (int i = 300; i < 400; ++i) jitter[i] = 400.0;
  expect(!backlog_growing(jitter, 5000),
         "late but bounded lateness stays under the floor");
}

}  // namespace

int main() {
  test_percentiles();
  test_span_tree();
  test_ladder();
  if (g_failures > 0) {
    std::cerr << g_failures << " selftest check(s) failed\n";
    return 1;
  }
  std::cout << "servebench selftest: ok\n";
  return 0;
}
