// Load-telemetry hot-path microbench: what one recorded request costs in
// the windowed ring, the Space-Saving sketch, and the range heat map —
// the per-request / per-resolved-key overhead the serving layers pay for
// the HEAT telemetry plane (PR 10).
//
// Cells (per-op ns, single-threaded and contended):
//   windowed      WindowedStats::record — lock-free except on rotation
//   sketch s=1    SpaceSavingSketch::offer with one stripe (worst case)
//   sketch s=8    same offered load, lock-striped (the shipped default)
//   heat          RangeHeatMap::record — one relaxed atomic add
//   key_load      KeyLoadRecorder::record — sketch + heat, one key per
//                 call
//   key_load record_ids
//                 KeyLoadRecorder::record_ids over 32-key batches (a
//                 shard's share of a 64-id request) — the hook
//                 LookupService/ClusterClient run once per request
//
// Keys are Zipf-ish skewed like real traffic: a uniform stream would
// understate sketch cost (every offer a miss-path eviction) and overstate
// stripe contention. Numbers land in BENCH_obs_load.json (--json <path>);
// --smoke shrinks repetitions for CI.
//
// Run: ./build/bench/bench_obs_load [--smoke] [--json path]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.hpp"
#include "la/kernels.hpp"
#include "obs/heavy_hitters.hpp"
#include "obs/windowed.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace anchor;

constexpr std::uint64_t kVocab = 50000;

/// Zipf-ish skewed key, same shape as bench_serve_throughput's traffic.
std::uint64_t skewed_key(Rng& rng) {
  const double u = rng.uniform();
  return static_cast<std::uint64_t>(u * u * u * static_cast<double>(kVocab)) %
         kVocab;
}

std::vector<std::uint64_t> skewed_keys(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = skewed_key(rng);
  return keys;
}

/// Per-key ns for `op(keys, n)` over pre-drawn key streams cut into
/// `batch`-key calls, `threads` ways concurrent (each thread its own
/// stream so contention is on the recorder, not the generator).
template <typename Op>
double time_per_key(std::size_t reps, std::size_t threads, std::size_t batch,
                    const Op& op) {
  std::vector<std::vector<std::uint64_t>> streams;
  streams.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    streams.push_back(skewed_keys(reps, 0x9e3779b9ull + t));
  }
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const std::vector<std::uint64_t>& keys = streams[t];
      for (std::size_t i = 0; i < keys.size(); i += batch) {
        op(keys.data() + i, std::min(batch, keys.size() - i));
      }
    });
  }
  for (auto& w : workers) w.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return 1e9 * secs / static_cast<double>(reps * threads);
}

/// time_per_key with one `op(key)` call per key.
template <typename Op>
double time_per_op(std::size_t reps, std::size_t threads, const Op& op) {
  return time_per_key(reps, threads, 1,
                      [&](const std::uint64_t* k, std::size_t) { op(*k); });
}

struct Cell {
  std::string name;
  std::string config;
  double ns_1t = 0;
  double ns_mt = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_obs_load.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
  }

  const std::size_t reps = smoke ? 200000 : 2000000;
  const std::size_t threads =
      std::max<std::size_t>(2, std::min<std::size_t>(
                                   4, std::thread::hardware_concurrency()));
  std::cout << "\n=== obs load-telemetry microbench (vocab=" << kVocab
            << ", threads=" << threads << ", "
            << (smoke ? "smoke" : "full") << ") ===\n\n";

  std::vector<Cell> cells;

  {
    Cell c{"windowed", "16x5s ring", 0, 0};
    obs::WindowedStats w1;
    c.ns_1t = time_per_op(reps, 1, [&](std::uint64_t k) {
      w1.record(static_cast<double>(k & 1023), false);
    });
    obs::WindowedStats wm;
    c.ns_mt = time_per_op(reps, threads, [&](std::uint64_t k) {
      wm.record(static_cast<double>(k & 1023), false);
    });
    cells.push_back(c);
  }
  double sketch1_mt = 0;
  double sketch8_mt = 0;
  {
    Cell c{"sketch", "cap=512 stripes=1", 0, 0};
    obs::SpaceSavingSketch s1({512, 1});
    c.ns_1t =
        time_per_op(reps, 1, [&](std::uint64_t k) { s1.offer(k); });
    obs::SpaceSavingSketch sm({512, 1});
    c.ns_mt = sketch1_mt =
        time_per_op(reps, threads, [&](std::uint64_t k) { sm.offer(k); });
    cells.push_back(c);
  }
  {
    Cell c{"sketch", "cap=512 stripes=8", 0, 0};
    obs::SpaceSavingSketch s1({512, 8});
    c.ns_1t =
        time_per_op(reps, 1, [&](std::uint64_t k) { s1.offer(k); });
    obs::SpaceSavingSketch sm({512, 8});
    c.ns_mt = sketch8_mt =
        time_per_op(reps, threads, [&](std::uint64_t k) { sm.offer(k); });
    cells.push_back(c);
  }
  {
    Cell c{"heat", "256 buckets", 0, 0};
    obs::RangeHeatMap h1({0, kVocab, 256});
    c.ns_1t =
        time_per_op(reps, 1, [&](std::uint64_t k) { h1.record(k); });
    obs::RangeHeatMap hm({0, kVocab, 256});
    c.ns_mt =
        time_per_op(reps, threads, [&](std::uint64_t k) { hm.record(k); });
    cells.push_back(c);
  }
  double key_load_1t = 0;
  {
    Cell c{"key_load", "sketch+heat hook", 0, 0};
    obs::KeyLoadRecorder r1({512, 8}, {0, kVocab, 256});
    c.ns_1t = key_load_1t =
        time_per_op(reps, 1, [&](std::uint64_t k) { r1.record(k); });
    obs::KeyLoadRecorder rm({512, 8}, {0, kVocab, 256});
    c.ns_mt =
        time_per_op(reps, threads, [&](std::uint64_t k) { rm.record(k); });
    cells.push_back(c);
  }
  {
    constexpr std::size_t kBatch = 32;
    Cell c{"key_load record_ids", "sketch+heat, 32-key batches", 0, 0};
    obs::KeyLoadRecorder r1({512, 8}, {0, kVocab, 256});
    c.ns_1t = time_per_key(
        reps, 1, kBatch,
        [&](const std::uint64_t* k, std::size_t n) { r1.record_ids(k, n); });
    obs::KeyLoadRecorder rm({512, 8}, {0, kVocab, 256});
    c.ns_mt = time_per_key(
        reps, threads, kBatch,
        [&](const std::uint64_t* k, std::size_t n) { rm.record_ids(k, n); });
    cells.push_back(c);
  }

  TextTable table({"recorder", "config", "1-thread ns/op",
                   std::to_string(threads) + "-thread ns/op"});
  auto fmt = [](double ns) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", ns);
    return std::string(buf);
  };
  for (const Cell& c : cells) {
    table.add_row({c.name, c.config, fmt(c.ns_1t), fmt(c.ns_mt)});
  }
  table.print(std::cout);

  // Directional shape checks, not absolute thresholds (host-dependent):
  // striping must not make the contended sketch meaningfully slower than
  // one big lock (it exists to make it faster on multicore), and the
  // full per-key hook must stay in sub-microsecond territory — the hook
  // rides every resolved key of every lookup.
  const bool striping_ok = sketch8_mt <= sketch1_mt * 1.25;
  const bool hook_ok = key_load_1t < 1000.0;
  std::cout << "\n[shape] " << (striping_ok ? "PASS" : "FAIL")
            << "  lock-striped sketch >= single-stripe under contention\n"
            << "[shape] " << (hook_ok ? "PASS" : "FAIL")
            << "  per-key load hook < 1us single-threaded\n";

  bench::JsonWriter json;
  json.begin_object();
  json.kv("bench", "obs_load");
  json.kv("mode", smoke ? "smoke" : "full");
  json.key("host").begin_object();
  json.kv("hardware_threads",
          static_cast<std::size_t>(std::thread::hardware_concurrency()));
  json.kv("isa", la::kernels::active_isa());
  json.end_object();
  json.kv("threads", threads);
  json.kv("reps_per_thread", reps);
  json.key("recorders").begin_array();
  for (const Cell& c : cells) {
    json.begin_object();
    json.kv("name", c.name);
    json.kv("config", c.config);
    json.kv("ns_1t", c.ns_1t);
    json.kv("ns_mt", c.ns_mt);
    json.end_object();
  }
  json.end_array();
  json.kv("striping_helps_under_contention", striping_ok);
  json.kv("key_load_hook_sub_us", hook_ok);
  json.end_object();
  json.write_file(json_path);
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
