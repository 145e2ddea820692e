// servebench — end-to-end serving benchmark: one process stands up a
// cluster::Router over two net::Server shards on loopback, drives one
// workload open loop from a seeded Poisson schedule, checks every answer
// against a single-process reference, and prints each metric by name and
// unit. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics taken
// from obs::Tracer spans and the stack's public counters (--trace 1).
//
// Usage:
//   servebench --workload lookup|topk|refresh --seed N --seconds S
//              --trace 0|1
//
// Workloads (see README.md in this directory for why each exists):
//   lookup   64-id lookups over a 400k×64 int8 vocabulary, ids skewed u³·V.
//   topk     topk_id (k = 10, server-default nprobe/rerank) over a
//            clustered 200k×64 int8 store with shared IVF-PQ artifacts.
//   refresh  refresh cycles (add_version on both shards, gated rollout
//            through the router) on a 100k×300 int8 store, with 64-id
//            lookups in the background at a fixed low rate.
//
// Nothing forks: router and shards are in-process objects, so every stage
// records into the one process-wide Tracer ring.
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iterator>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ann/ivf_pq.hpp"
#include "cluster/router.hpp"
#include "compress/quantize.hpp"
#include "core/measures.hpp"
#include "la/kernels.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/heavy_hitters.hpp"
#include "obs/trace.hpp"
#include "serve/deployment_gate.hpp"
#include "serve/embedding_store.hpp"
#include "serve/lookup_service.hpp"
#include "servebench/bench_math.hpp"
#include "util/rng.hpp"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace anchor;
using Clock = std::chrono::steady_clock;
using servebench::median;
using servebench::percentile;

const Clock::time_point g_process_start = Clock::now();
const double g_started_at =
    std::chrono::duration<double>(
        std::chrono::system_clock::now().time_since_epoch())
        .count();

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU time of every thread of this process (router, shards, load
/// generator): the hypervisor's steal is not charged to it.
double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

/// CPU time of the calling thread: what the benchmark's own single-threaded
/// work (filing replies, making refresh candidates) costs, so it can be
/// taken out of the process's figure.
double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

// ---- workload parameters (calibrated once on a 4-core AVX2 host) -------

struct WorkloadSpec {
  std::string name;
  std::size_t vocab = 0;
  std::size_t dim = 0;
  // Many more clusters than IVF cells (64), so every seed fills the cells
  // about evenly and the search cost does not depend on the seed.
  std::size_t clusters = 1024;
  double rate = 0.0;               // nominal (or background) req/s
  std::vector<double> ladder;      // goodput rungs, req/s, ascending
  std::size_t nominal_rung = 0;    // index of `rate` in `ladder`
  double p99_limit_us = 0.0;       // goodput latency limit on p99
};

WorkloadSpec spec_for(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  if (name == "lookup") {
    s.vocab = 400000;
    s.dim = 64;
    s.rate = 500;
    s.ladder = {250, 500, 1000, 2000};
    s.nominal_rung = 1;
    s.p99_limit_us = 5000;
  } else if (name == "topk") {
    // Half the lookup vocabulary: set-up (run three times) encodes every
    // row into IVF-PQ on both shards and again for the reference index.
    s.vocab = 200000;
    s.dim = 64;
    s.rate = 200;
    s.ladder = {100, 200, 400, 800};
    s.nominal_rung = 1;
    s.p99_limit_us = 10000;
  } else if (name == "refresh") {
    s.vocab = 100000;
    s.dim = 300;
    s.rate = 100;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (lookup, topk, refresh)");
  }
  return s;
}

constexpr std::size_t kIdsPerLookup = 64;
constexpr std::size_t kTopK = 10;
constexpr std::size_t kRecallQueries = 64;
// Shared IVF-PQ artifacts are trained on a strided sample with fewer
// Lloyd iterations than a one-off index would use: set-up is measured and
// repeated, and shard/reference agreement needs only shared artifacts.
constexpr std::size_t kArtifactSample = 4096;
constexpr std::size_t kArtifactIters = 8;
constexpr double kRoutineSigma = 0.02;  // refresh noise the gate admits
constexpr int kRpcTimeoutMs = 10000;
constexpr int kSetupReps = 3;  // untraced runs report the median set-up
// p50/p90 are the lowest, over windows of this length (s), of each
// window's percentile; p99 is taken over the whole phase.
constexpr double kWindowS = 1.0;

// ---- data --------------------------------------------------------------

/// Two-level mixture of Gaussians: C cluster centres ~ N(0, 1); each
/// family of kFamily consecutive ids gets a centre = its cluster's centre +
/// N(0, 0.25²); each row = its family centre + N(0, 0.05²). Clusters give
/// the IVF cells something to partition (as in bench_topk); tight families
/// make a row's top-10 well defined (its own family), so recall measures
/// the index and not ties among equidistant noise.
constexpr std::size_t kFamily = 10;

/// Standard normal draws from splitmix64 + Box–Muller: several times faster
/// than std::normal_distribution, which matters because data generation is
/// part of the measured set-up and of every refresh candidate.
class FastNormal {
 public:
  explicit FastNormal(std::uint64_t seed) : state_(seed) {}
  float operator()() {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    const double u1 = (static_cast<double>(next() >> 11) + 1.0) * 0x1.0p-53;
    const double u2 = static_cast<double>(next() >> 11) * 0x1.0p-53;
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double t = 6.283185307179586 * u2;
    spare_ = static_cast<float>(r * std::sin(t));
    have_spare_ = true;
    return static_cast<float>(r * std::cos(t));
  }

 private:
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t state_;
  float spare_ = 0.0f;
  bool have_spare_ = false;
};

embed::Embedding clustered(std::uint64_t seed, std::size_t vocab,
                           std::size_t dim, std::size_t clusters) {
  embed::Embedding e(vocab, dim);
  FastNormal unit(seed);
  std::vector<float> centers(clusters * dim), family(dim);
  for (auto& c : centers) c = unit();
  for (std::size_t w = 0; w < vocab; ++w) {
    if (w % kFamily == 0) {
      const float* c = centers.data() + ((w / kFamily) % clusters) * dim;
      for (std::size_t j = 0; j < dim; ++j) {
        family[j] = c[j] + 0.25f * unit();
      }
    }
    float* row = e.row(w);
    for (std::size_t j = 0; j < dim; ++j) {
      row[j] = family[j] + 0.05f * unit();
    }
  }
  return e;
}

/// A botched refresh: an independently seeded embedding with its rows in
/// an unrelated order, so no row keeps its neighbours (the gate rejects).
embed::Embedding botched(std::uint64_t seed, std::size_t vocab,
                         std::size_t dim, std::size_t clusters) {
  const embed::Embedding fresh = clustered(seed, vocab, dim, clusters);
  std::vector<std::size_t> order(vocab);
  for (std::size_t i = 0; i < vocab; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), std::mt19937_64(seed ^ 0x5bd1e995));
  embed::Embedding e(vocab, dim);
  for (std::size_t w = 0; w < vocab; ++w) {
    std::memcpy(e.row(w), fresh.row(order[w]), dim * sizeof(float));
  }
  return e;
}

/// A routine refresh: the incumbent plus small independent noise.
embed::Embedding jittered(const embed::Embedding& base, std::uint64_t seed,
                          float sigma) {
  embed::Embedding e = base;
  FastNormal noise(seed);
  for (float& x : e.data) x += sigma * noise();
  return e;
}

embed::Embedding slice(const embed::Embedding& full, std::size_t begin,
                       std::size_t end) {
  embed::Embedding e(end - begin, full.dim);
  std::memcpy(e.data.data(), full.data.data() + begin * full.dim,
              (end - begin) * full.dim * sizeof(float));
  return e;
}

/// Skewed ids like the existing benches: floor(u³·V).
std::vector<std::size_t> skewed_ids(Rng& rng, std::size_t n,
                                    std::size_t vocab) {
  std::vector<std::size_t> ids(n);
  for (auto& id : ids) {
    const double u = rng.uniform();
    id = std::min(vocab - 1,
                  static_cast<std::size_t>(u * u * u *
                                           static_cast<double>(vocab)));
  }
  return ids;
}

/// 64-bit digest of a row's bytes. Replies are filed as row digests, so
/// they can be checked after the timed traffic without holding every
/// vector; rows with equal digests are taken to be bit-identical.
std::uint64_t row_digest(const float* row, std::size_t dim) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ dim;
  for (std::size_t j = 0; j < dim; ++j) {
    std::uint32_t w = 0;
    std::memcpy(&w, row + j, sizeof(w));
    h = (h ^ w) * 0xff51afd7ed558ccdull;
    h ^= h >> 29;
  }
  return h;
}

/// What a lookup reply is checked on: version, flags and one digest per
/// row (no rows when the reply's vectors do not match its shape).
struct LookupDigest {
  std::string version;
  std::size_t dim = 0;
  std::vector<std::uint8_t> oov;
  std::vector<std::uint64_t> rows;
  bool operator==(const LookupDigest&) const = default;
};

LookupDigest digest_of(const serve::LookupResult& r) {
  LookupDigest d;
  d.version = r.version;
  d.dim = r.dim;
  d.oov = r.oov;
  if (r.vectors.size() == r.size() * r.dim) {
    d.rows.reserve(r.size());
    for (std::size_t i = 0; i < r.size(); ++i) {
      d.rows.push_back(row_digest(r.row(i), r.dim));
    }
  }
  return d;
}

bool identical(const ann::TopKResult& a, const ann::TopKResult& b) {
  if (a.hits.size() != b.hits.size() || a.flags != b.flags) return false;
  for (std::size_t i = 0; i < a.hits.size(); ++i) {
    if (a.hits[i].id != b.hits[i].id ||
        std::memcmp(&a.hits[i].exact, &b.hits[i].exact, sizeof(float)) != 0 ||
        std::memcmp(&a.hits[i].adc, &b.hits[i].adc, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// ---- the deployment under test -----------------------------------------

struct Shard {
  serve::EmbeddingStore store;
  std::unique_ptr<net::Server> server;
};

/// Router → 2 shards. Declaration order is teardown order in reverse: the
/// router stops before the servers, the servers before their stores.
struct Deployment {
  WorkloadSpec spec;
  std::size_t split = 0;
  serve::SnapshotConfig snap;  // int8, shared clip
  ann::AnnConfig ann;          // shared IVF-PQ artifacts (topk)
  std::array<Shard, 2> shards;
  std::unique_ptr<cluster::Router> router;

  embed::Embedding live_rows;  // fp32 rows of the live version
  std::string live = "v0";
  std::vector<std::string> history;  // registration order
  std::size_t next_version = 1;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    if (router) router->stop();
    for (Shard& s : shards) {
      if (s.server) s.server->stop();
    }
  }

  std::uint16_t port() const { return router->port(); }

  std::uint64_t ann_builds() const {
    std::uint64_t b = 0;
    for (const Shard& s : shards) {
      b += s.server->ann() ? s.server->ann()->builds() : 0;
    }
    return b;
  }
};

std::unique_ptr<Deployment> build_deployment(const WorkloadSpec& spec,
                                             std::uint64_t seed) {
  auto d = std::make_unique<Deployment>();
  d->spec = spec;
  d->split = spec.vocab / 2;
  d->live_rows = clustered(seed, spec.vocab, spec.dim, spec.clusters);

  d->snap.bits = 8;
  d->snap.build_oov_table = false;  // OOV synthesis is per-process by design
  // One clip for the whole vocabulary, shared by both shards.
  d->snap.clip_override =
      compress::optimal_clip_threshold(d->live_rows.data, d->snap.bits);
  d->history.push_back("v0");

  net::ServerConfig server_cfg;
  if (spec.name == "topk") {
    // Shared IVF-PQ artifacts trained once on a strided sample: every
    // shard (and the reference index) encodes with the same codebooks.
    const std::size_t stride = std::max<std::size_t>(1, spec.vocab /
                                                            kArtifactSample);
    embed::Embedding sample(spec.vocab / stride, spec.dim);
    for (std::size_t i = 0; i < sample.vocab_size; ++i) {
      std::memcpy(sample.row(i), d->live_rows.row(i * stride),
                  spec.dim * sizeof(float));
    }
    ann::AnnConfig train_cfg;
    train_cfg.train_iters = kArtifactIters;
    server_cfg.ann.artifacts = ann::train_ivfpq(sample, train_cfg);
  }
  d->ann.artifacts = server_cfg.ann.artifacts;

  const std::size_t bounds[3] = {0, d->split, spec.vocab};
  std::vector<cluster::ShardSpec> specs;
  for (std::size_t s = 0; s < 2; ++s) {
    d->shards[s].store.add_version(
        "v0", slice(d->live_rows, bounds[s], bounds[s + 1]), d->snap);
    d->shards[s].server =
        std::make_unique<net::Server>(d->shards[s].store, server_cfg);
    d->shards[s].server->start();
    specs.push_back({"127.0.0.1", d->shards[s].server->port(), bounds[s],
                     bounds[s + 1]});
  }
  cluster::RouterConfig rc;
  rc.map = cluster::ShardMap(1, std::move(specs));
  // A rollout's per-shard promote RPC must outlast that shard's gate
  // evaluation (2–4 s at 2048×300 under load). At the 2 s default the
  // router gives up, rolls the other shard back, and the timed-out
  // shard's gate still promotes: the cluster is left on mixed versions.
  rc.backend_io_timeout_ms = 30000;
  d->router = std::make_unique<cluster::Router>(rc);
  d->router->start();
  return d;
}

// ---- the reference -----------------------------------------------------

/// The single-process reference the answers are checked against, from the
/// same rows, shared clip and shared artifacts as the shards. It is built
/// after set-up (on lookup and topk, after the timed traffic). Refresh
/// candidates register their digests during the traffic, on the cycle's
/// thread once the rollout is over, and that CPU time is taken out.
struct Reference {
  serve::EmbeddingStore store;                   // v0 (lookup, topk)
  std::unique_ptr<serve::LookupService> lookup;  // lookup
  std::unique_ptr<ann::IvfPqIndex> index;        // topk
  /// Digest of every row of each registered version as the reference
  /// encodes it: what lookups racing refreshes are checked on.
  std::map<std::string, std::vector<std::uint64_t>> digests;
};

/// Encodes `rows` as the shards do, in a store of its own that is freed on
/// return, and keeps the digest of every row under `version`.
void register_digests(Reference& ref, const std::string& version,
                      const embed::Embedding& rows,
                      const serve::SnapshotConfig& snap) {
  serve::EmbeddingStore store;
  const serve::SnapshotPtr s = store.add_version(version, rows, snap);
  const std::size_t vocab = s->vocab_size(), dim = s->dim();
  constexpr std::size_t kChunk = 1024;
  std::vector<std::size_t> ids(kChunk);
  std::vector<float> buf(kChunk * dim);
  std::vector<std::uint64_t>& out = ref.digests[version];
  out.resize(vocab);
  for (std::size_t b = 0; b < vocab; b += kChunk) {
    const std::size_t n = std::min(kChunk, vocab - b);
    for (std::size_t i = 0; i < n; ++i) ids[i] = b + i;
    s->copy_rows(ids.data(), n, buf.data());
    for (std::size_t i = 0; i < n; ++i) {
      out[b + i] = row_digest(buf.data() + i * dim, dim);
    }
  }
}

/// The reference for the deployment's v0: row digests on every workload,
/// plus a single-store LookupService (lookup) or a single-process IvfPqIndex
/// with the shared artifacts (topk).
void build_reference(Reference& ref, const Deployment& d) {
  register_digests(ref, "v0", d.live_rows, d.snap);
  if (d.spec.name == "refresh") return;
  const serve::SnapshotPtr v0 =
      ref.store.add_version("v0", d.live_rows, d.snap);
  if (d.spec.name == "lookup") {
    serve::LookupConfig cfg;
    cfg.cache_rows_per_shard = 0;
    ref.lookup = std::make_unique<serve::LookupService>(ref.store, cfg);
  } else {
    ref.index = std::make_unique<ann::IvfPqIndex>(v0, d.ann);
  }
}

// ---- correctness checks ------------------------------------------------

/// What the refresh workload's background checker may accept: while no
/// rollout is in flight, exactly the live version; during one, each row
/// from either side of it (shards flip one at a time).
struct RolloutView {
  std::uint64_t epoch = 0;
  bool rolling = false;
  std::string live;
  std::string candidate;
};

class RolloutState {
 public:
  explicit RolloutState(std::string live) { view_.live = std::move(live); }
  RolloutView get() const {
    std::lock_guard<std::mutex> lock(mu_);
    return view_;
  }
  void begin(const std::string& candidate) {
    std::lock_guard<std::mutex> lock(mu_);
    ++view_.epoch;
    view_.rolling = true;
    view_.candidate = candidate;
  }
  void end(const std::string& live) {
    std::lock_guard<std::mutex> lock(mu_);
    ++view_.epoch;
    view_.rolling = false;
    view_.live = live;
    view_.candidate.clear();
  }

 private:
  mutable std::mutex mu_;
  RolloutView view_;
};

/// True when reply row i is unflagged and has the digest of row ids[i] of
/// `version` (false for a version the reference never registered).
bool row_matches(const Reference& ref, const std::string& version,
                 const std::vector<std::size_t>& ids, const LookupDigest& got,
                 std::size_t i) {
  const auto it = ref.digests.find(version);
  return it != ref.digests.end() && ids[i] < it->second.size() &&
         got.oov[i] == 0 && got.rows[i] == it->second[ids[i]];
}

/// Checks a lookup reply against the rollout state seen before it was sent
/// and after it arrived.
bool check_lookup_reply(const Reference& ref, std::size_t dim,
                        const RolloutView& before, const RolloutView& after,
                        const std::vector<std::size_t>& ids,
                        const LookupDigest& got) {
  if (got.oov.size() != ids.size() || got.rows.size() != ids.size() ||
      got.dim != dim) {
    return false;
  }
  const bool strict = before.epoch == after.epoch && !before.rolling;
  if (strict) {
    if (got.version != before.live) return false;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (!row_matches(ref, before.live, ids, got, i)) return false;
    }
    return true;
  }
  // A rollout began or ended while the request was in flight: every row
  // must come from one of the versions involved.
  std::vector<std::string> allowed = {before.live, after.live};
  if (!before.candidate.empty()) allowed.push_back(before.candidate);
  if (!after.candidate.empty()) allowed.push_back(after.candidate);
  if (std::find(allowed.begin(), allowed.end(), got.version) ==
      allowed.end()) {
    return false;
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (std::none_of(allowed.begin(), allowed.end(),
                     [&](const std::string& v) {
                       return row_matches(ref, v, ids, got, i);
                     })) {
      return false;
    }
  }
  return true;
}

// ---- open-loop load generator ------------------------------------------

/// One phase's requests. `send` makes request i's RPC, sets *done as the
/// reply arrives, then files the reply for `check` and returns the thread
/// CPU time the filing took: benchmark work, taken out of the process's
/// CPU figure. `check` runs after the timed traffic, so neither latency nor
/// CPU time counts the reference.
struct Traffic {
  std::function<double(net::Client&, std::size_t, Clock::time_point*)> send;
  std::function<bool(std::size_t)> check;
};

/// Thread CPU time (s) that `fn` takes.
template <class Fn>
double thread_cpu_of(Fn&& fn) {
  const double c0 = thread_cpu_s();
  fn();
  return thread_cpu_s() - c0;
}

struct PhaseConfig {
  double rate = 0.0;
  double seconds = 0.0;
  std::size_t workers = 1;
  std::uint64_t seed = 0;
  bool traced = false;
  /// Optional early stop (the refresh window ends when its cycles do).
  const std::atomic<bool>* stop = nullptr;
};

struct PhaseResult {
  std::vector<double> due_s;       // due order, from the phase start
  std::vector<double> latency_us;  // same order; failures are +inf
  std::vector<double> lateness_us;
  std::vector<std::size_t> answered;  // requests whose RPC returned
  std::size_t sent = 0;
  std::size_t failed = 0;
  std::vector<std::vector<obs::SpanRecord>> traces;
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_harvested = 0;
  double cpu_s = 0.0;         // process CPU time over the phase
  double filing_cpu_s = 0.0;  // of which filing replies for their checks
};

std::vector<double> poisson_schedule(double rate, double seconds,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> due;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

/// Runs one open-loop phase: requests are due at Poisson times; `workers`
/// threads (the calling thread is one of them), each with its own
/// connection, take the next due request, wait for its time and send it.
/// Latency runs from when a request was due to when its reply arrived, so
/// a stall counts against every request it delays. Traced phases sample
/// every request and harvest its spans a millisecond after the reply, once
/// the router and backends have recorded the spans they close after
/// writing their replies.
PhaseResult run_phase(std::uint16_t port, const PhaseConfig& cfg,
                      const Traffic& traffic) {
  const std::vector<double> due = poisson_schedule(cfg.rate, cfg.seconds,
                                                   cfg.seed);
  PhaseResult out;
  const std::size_t n = due.size();
  std::vector<double> latency(n, 0.0), lateness(n, 0.0);
  std::vector<std::uint8_t> sent_flag(n, 0), ok(n, 0);
  std::vector<double> filing(n, 0.0);
  std::atomic<std::size_t> next{0};
  std::mutex out_mu;
  std::vector<std::unique_ptr<net::Client>> clients;
  for (std::size_t w = 0; w < cfg.workers; ++w) {
    clients.push_back(
        std::make_unique<net::Client>("127.0.0.1", port, kRpcTimeoutMs));
    clients.back()->set_trace_sampling(cfg.traced ? 1.0 : 0.0);
  }
  obs::Tracer& tracer = obs::Tracer::instance();
  const std::uint64_t recorded0 = tracer.spans_recorded();
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);

  const auto worker = [&](std::size_t w) {
    net::Client& client = *clients[w];
    std::vector<std::pair<std::uint64_t, Clock::time_point>> pending;
    std::vector<std::vector<obs::SpanRecord>> mine;
    const auto harvest = [&](bool all) {
      const Clock::time_point cutoff =
          Clock::now() - std::chrono::milliseconds(1);
      std::size_t k = 0;
      for (; k < pending.size(); ++k) {
        if (!all && pending[k].second > cutoff) break;
        mine.push_back(tracer.spans_for(pending[k].first));
      }
      pending.erase(pending.begin(), pending.begin() + k);
    };
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) break;
      if (cfg.stop != nullptr && cfg.stop->load()) break;
      const Clock::time_point when =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(due[i]));
      harvest(false);
      std::this_thread::sleep_until(when);
      const Clock::time_point sent = Clock::now();
      Clock::time_point done{};
      bool good = true;
      try {
        filing[i] = traffic.send(client, i, &done);
      } catch (const std::exception&) {
        good = false;
      }
      if (done == Clock::time_point{}) done = Clock::now();
      sent_flag[i] = 1;
      ok[i] = good ? 1 : 0;
      latency[i] = std::chrono::duration<double, std::micro>(done - when)
                       .count();
      lateness[i] = std::chrono::duration<double, std::micro>(sent - when)
                        .count();
      if (cfg.traced && client.last_trace().valid()) {
        pending.emplace_back(client.last_trace().trace_id, done);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    harvest(true);
    std::lock_guard<std::mutex> lock(out_mu);
    for (auto& t : mine) out.traces.push_back(std::move(t));
  };
  std::vector<std::thread> threads;
  for (std::size_t w = 1; w < cfg.workers; ++w) threads.emplace_back(worker, w);
  worker(0);
  for (std::thread& t : threads) t.join();

  out.cpu_s = process_cpu_s() - cpu0;
  for (double f : filing) out.filing_cpu_s += f;
  out.spans_recorded = tracer.spans_recorded() - recorded0;
  for (const auto& t : out.traces) out.spans_harvested += t.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!sent_flag[i]) continue;
    ++out.sent;
    if (ok[i]) {
      out.answered.push_back(i);
    } else {
      ++out.failed;
    }
    out.due_s.push_back(due[i]);
    out.latency_us.push_back(ok[i] ? latency[i]
                                   : std::numeric_limits<double>::infinity());
    out.lateness_us.push_back(lateness[i]);
  }
  return out;
}

// ---- request mixes -----------------------------------------------------

// Per-request payloads, generated from the seed before the phase starts.

std::vector<std::vector<std::size_t>> make_lookup_mix(std::size_t n,
                                                      std::size_t vocab,
                                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::size_t>> mix;
  mix.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    mix.push_back(skewed_ids(rng, kIdsPerLookup, vocab));
  }
  return mix;
}

std::vector<std::uint64_t> make_topk_mix(std::size_t n, std::size_t vocab,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> ids(n);
  for (auto& id : ids) id = rng.index(vocab);
  return ids;
}

/// Upper bound on requests a phase can schedule (Poisson tail included).
std::size_t mix_size(double rate, double seconds) {
  const double mean = rate * seconds;
  return static_cast<std::size_t>(mean + 8.0 * std::sqrt(mean) + 64.0);
}

/// `n` requests of the workload's own traffic; appends the requested keys
/// to `keys` when given. topk and lookup replies are checked against the
/// reference's v0 (their traffic runs before any refresh). With `rollout`,
/// lookups may race refreshes and are checked on row digests.
Traffic requests_for(const Reference& ref, const WorkloadSpec& spec,
                     std::size_t n, std::uint64_t phase_seed,
                     std::vector<std::uint64_t>* keys,
                     const RolloutState* rollout = nullptr) {
  Traffic t;
  if (spec.name == "topk") {
    auto ids = std::make_shared<std::vector<std::uint64_t>>(
        make_topk_mix(n, spec.vocab, phase_seed));
    if (keys) keys->insert(keys->end(), ids->begin(), ids->end());
    auto got = std::make_shared<std::vector<ann::TopKResult>>(n);
    t.send = [ids, got](net::Client& c, std::size_t i, Clock::time_point* done) {
      ann::TopKResult r = c.topk_id((*ids)[i], kTopK);
      *done = Clock::now();
      return thread_cpu_of([&] { (*got)[i] = std::move(r); });
    };
    t.check = [&ref, ids, got, dim = spec.dim](std::size_t i) {
      std::vector<float> query(dim);
      const std::size_t row = static_cast<std::size_t>((*ids)[i]);
      ref.store.snapshot("v0")->copy_rows(&row, 1, query.data());
      return (*got)[i].version == "v0" &&
             identical((*got)[i], ref.index->search(query.data(), kTopK));
    };
    return t;
  }
  auto mix = std::make_shared<std::vector<std::vector<std::size_t>>>(
      make_lookup_mix(n, spec.vocab, phase_seed));
  if (keys) {
    for (const auto& v : *mix) keys->insert(keys->end(), v.begin(), v.end());
  }
  auto got = std::make_shared<std::vector<LookupDigest>>(n);
  if (rollout == nullptr) {
    t.send = [mix, got](net::Client& c, std::size_t i, Clock::time_point* done) {
      const serve::LookupResult r = c.lookup_ids((*mix)[i]);
      *done = Clock::now();
      return thread_cpu_of([&] { (*got)[i] = digest_of(r); });
    };
    t.check = [&ref, mix, got](std::size_t i) {
      return (*got)[i] == digest_of(ref.lookup->lookup_ids((*mix)[i]));
    };
    return t;
  }
  auto views =
      std::make_shared<std::vector<std::pair<RolloutView, RolloutView>>>(n);
  t.send = [mix, got, views, rollout](net::Client& c, std::size_t i,
                                      Clock::time_point* done) {
    const RolloutView before = rollout->get();
    const serve::LookupResult r = c.lookup_ids((*mix)[i]);
    *done = Clock::now();
    return thread_cpu_of([&] {
      (*views)[i] = {before, rollout->get()};
      (*got)[i] = digest_of(r);
    });
  };
  t.check = [&ref, mix, got, views, dim = spec.dim](std::size_t i) {
    return check_lookup_reply(ref, dim, (*views)[i].first, (*views)[i].second,
                              (*mix)[i], (*got)[i]);
  };
  return t;
}

// ---- refresh cycles ----------------------------------------------------

/// Shard 0's incumbent/candidate pair of the last admitted refresh — what
/// the traced run replays the gate and the core measures on.
struct GatePair {
  serve::SnapshotPtr incumbent;
  serve::SnapshotPtr candidate;
};

struct CycleResult {
  bool routine = true;
  bool ok = false;
  double total_s = 0.0;          // first add_version → terminal rollout
  std::vector<double> add_version_s;  // one per shard store
  double rollout_s = 0.0;        // rollout_start → terminal observed
  /// Thread CPU of the benchmark's part: making the candidate and its
  /// slices, and registering its reference digests.
  double bench_cpu_s = 0.0;
  std::string detail;
};

/// One refresh: register a candidate on both shard stores, roll it out
/// through the router (offline gate per shard), wait for a terminal state
/// and check the decision matches how the candidate was built.
CycleResult refresh_cycle(Deployment& d, Reference& ref, net::Client& control,
                          bool routine, std::uint64_t seed,
                          RolloutState* rollout, GatePair* replay_pair) {
  CycleResult r;
  r.routine = routine;
  std::string name = "v";
  name += std::to_string(d.next_version++);
  embed::Embedding cand;
  std::array<embed::Embedding, 2> parts;
  r.bench_cpu_s += thread_cpu_of([&] {
    cand = routine ? jittered(d.live_rows, seed, kRoutineSigma)
                   : botched(seed, d.spec.vocab, d.spec.dim, d.spec.clusters);
    parts = {slice(cand, 0, d.split), slice(cand, d.split, d.spec.vocab)};
  });
  d.history.push_back(name);
  const std::string incumbent = d.live;
  if (rollout) rollout->begin(name);

  const Clock::time_point t0 = Clock::now();
  for (std::size_t s = 0; s < 2; ++s) {
    const Clock::time_point a = Clock::now();
    d.shards[s].store.add_version(name, parts[s], d.snap);
    r.add_version_s.push_back(seconds_since(a));
  }
  const Clock::time_point rt0 = Clock::now();
  net::RolloutStatusReport st = control.rollout_start(name, /*mode=*/0);
  while (!st.terminal()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    st = control.rollout_status();
  }
  r.rollout_s = seconds_since(rt0);
  r.total_s = seconds_since(t0);
  parts = {};
  // Background lookups answered during the rollout are checked after the
  // traffic, on these digests.
  r.bench_cpu_s +=
      thread_cpu_of([&] { register_digests(ref, name, cand, d.snap); });

  const std::string live0 = d.shards[0].store.live_version();
  const std::string live1 = d.shards[1].store.live_version();
  if (routine) {
    r.ok = st.state == net::RolloutState::kCompleted && live0 == name &&
           live1 == name;
  } else {
    r.ok = st.state == net::RolloutState::kRolledBack && live0 == incumbent &&
           live1 == incumbent;
  }
  if (!r.ok) {
    r.detail = std::string(routine ? "routine" : "botched") + " candidate " +
               name + " ended " + net::rollout_state_name(st.state) +
               " with shards on " + live0 + "/" + live1 + ": " + st.reason;
  }
  if (routine && r.ok) {
    if (replay_pair) {
      *replay_pair = {d.shards[0].store.snapshot(incumbent),
                      d.shards[0].store.snapshot(name)};
    }
    d.live = name;
    d.live_rows = std::move(cand);
  }
  if (rollout) rollout->end(d.live);

  // Versions from two generations back leave both shard stores. One still
  // pinned by a reader (an ANN index cache, the replay pair) stays
  // registered and is retried after the next cycle.
  std::vector<std::string> kept;
  for (std::size_t i = 0; i < d.history.size(); ++i) {
    const std::string& old = d.history[i];
    if (i + 2 >= d.history.size() || old == d.live) {
      kept.push_back(old);
      continue;
    }
    try {
      for (Shard& s : d.shards) {
        if (s.store.has_version(old)) s.store.remove_version(old);
      }
    } catch (const std::exception&) {
      kept.push_back(old);
    }
  }
  d.history = std::move(kept);
  return r;
}

/// After a terminal rollout, lookups through the router serve exactly the
/// live version.
bool check_live(const Deployment& d, const Reference& ref,
                net::Client& control, std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::size_t> ids =
      skewed_ids(rng, kIdsPerLookup, d.spec.vocab);
  RolloutView v;
  v.live = d.live;
  return check_lookup_reply(ref, d.spec.dim, v, v, ids,
                            digest_of(control.lookup_ids(ids)));
}

// ---- reporting ---------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    metrics_[name] = {value, unit};
    order_.push_back(name);
  }
  const Metric& get(const std::string& name) const { return metrics_.at(name); }
  const std::vector<std::string>& order() const { return order_; }

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> order_;
};

std::string json_number(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const Report& r,
                         const std::vector<std::string>& names) {
  std::string out = "{";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Metric& m = r.get(names[i]);
    out += (i ? ", " : "") + json_string(names[i]) + ": {\"value\": " +
           json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Aggregate CPU jiffies from /proc/stat (zeros where it is unavailable).
struct CpuTimes {
  double steal = 0.0, total = 0.0;
};

CpuTimes cpu_times() {
  CpuTimes t;
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  for (int i = 0; i < 10 && f; ++i) {
    double v = 0.0;
    f >> v;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

/// Share of CPU time the hypervisor gave to others since `since`: printed
/// with each run so a run disturbed by its host can be told apart.
double steal_frac_since(const CpuTimes& since) {
  const CpuTimes now = cpu_times();
  return ratio(now.steal - since.steal, now.total - since.total);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- traced-run layer budget -------------------------------------------

struct LayerSamples {
  std::vector<double> client_send, hop, backend_self, router_self, scatter,
      shard_rtt, shard_skew, merge, batch_queue, batch_exec_self, dequantize,
      topk_search, unattributed;
  std::size_t incomplete = 0;
};

LayerSamples layer_samples(const std::vector<std::vector<obs::SpanRecord>>&
                               traces) {
  using obs::TraceStage;
  LayerSamples s;
  for (const auto& spans : traces) {
    const servebench::SpanTree tree(spans);
    if (!tree.complete) {
      ++s.incomplete;
      continue;
    }
    const servebench::SpanNode& root = tree.nodes[tree.root];
    s.client_send.push_back(root.dur_us());
    s.unattributed.push_back(tree.unattributed_us());
    for (const servebench::SpanNode& n : tree.nodes) {
      switch (n.span.stage) {
        case TraceStage::kRouterRecv:
          s.hop.push_back(root.dur_us() - n.dur_us());
          s.router_self.push_back(tree.self_us(n));
          break;
        case TraceStage::kRouterScatter: {
          s.scatter.push_back(n.dur_us());
          std::vector<std::uint64_t> ends;
          for (std::size_t rtt : n.children) {
            for (std::size_t b : tree.nodes[rtt].children) {
              ends.push_back(tree.nodes[b].span.end_ns);
            }
          }
          if (ends.size() == 2) {
            s.shard_skew.push_back(servebench::span_us(
                std::min(ends[0], ends[1]), std::max(ends[0], ends[1])));
          }
          break;
        }
        case TraceStage::kShardRtt: s.shard_rtt.push_back(n.dur_us()); break;
        case TraceStage::kRouterMerge: s.merge.push_back(n.dur_us()); break;
        case TraceStage::kBackendRecv:
          s.backend_self.push_back(tree.self_us(n));
          break;
        case TraceStage::kBatchQueue:
          s.batch_queue.push_back(n.dur_us());
          break;
        case TraceStage::kBatchExec:
          s.batch_exec_self.push_back(tree.self_us(n));
          break;
        case TraceStage::kDequantize: s.dequantize.push_back(n.dur_us()); break;
        case TraceStage::kTopkSearch:
          s.topk_search.push_back(n.dur_us());
          break;
        default: break;
      }
    }
  }
  return s;
}

struct CounterSnapshot {
  std::uint64_t lookups = 0, batches = 0, hits = 0, misses = 0;
  std::uint64_t hedges = 0, hedge_wins = 0, retries = 0, failovers = 0;
};

CounterSnapshot counters(Deployment& d) {
  CounterSnapshot c;
  for (Shard& s : d.shards) {
    const serve::StatsSnapshot b = s.server->async().stats().snapshot();
    c.lookups += b.lookups;
    c.batches += b.batches;
    const serve::StatsSnapshot l = s.server->service().stats().snapshot();
    c.hits += l.cache_hits;
    c.misses += l.cache_misses;
  }
  const cluster::ClusterCounters& cc = d.router->counters();
  c.hedges = cc.hedges.load();
  c.hedge_wins = cc.hedge_wins.load();
  c.retries = cc.retries.load();
  c.failovers = cc.failovers.load();
  return c;
}


/// The workload's key stream replayed through a fresh KeyLoadRecorder
/// shaped like a server's default one: ns per record() call.
double key_load_record_ns(const std::vector<std::uint64_t>& keys,
                          std::size_t vocab) {
  if (keys.empty()) return 0.0;
  obs::SpaceSavingSketch::Config sk;
  obs::RangeHeatMap::Config heat;
  heat.row_end = vocab;
  std::vector<double> per_pass;
  for (int pass = 0; pass < 3; ++pass) {
    obs::KeyLoadRecorder rec(sk, heat);
    const Clock::time_point t = Clock::now();
    for (std::uint64_t k : keys) rec.record(k);
    per_pass.push_back(seconds_since(t) * 1e9 /
                       static_cast<double>(keys.size()));
  }
  return median(per_pass);
}

struct Replay {
  double gate_s = 0.0, eis_s = 0.0, knn_s = 0.0;
};

/// DeploymentGate::evaluate and the two core measures, replayed on the
/// same to_matrix(max_rows) pair the gate compared during the run.
Replay replay_gate(const GatePair& c) {
  Replay r;
  if (!c.incumbent || !c.candidate) return r;
  const serve::DeploymentGate gate;
  const serve::GateConfig& g = gate.config();
  Clock::time_point t = Clock::now();
  gate.evaluate(*c.incumbent, *c.candidate);
  r.gate_s = seconds_since(t);
  const std::size_t rows = std::min(
      {c.incumbent->vocab_size(), c.candidate->vocab_size(), g.max_rows});
  const la::Matrix x = c.incumbent->to_matrix(rows);
  const la::Matrix xt = c.candidate->to_matrix(rows);
  t = Clock::now();
  const auto ctx = core::EisContext::build(x, xt, g.alpha);
  core::eigenspace_instability(ctx.v, ctx.v_tilde, ctx);
  r.eis_s = seconds_since(t);
  t = Clock::now();
  core::knn_measure_normalized(core::normalize_rows_l2(x),
                               core::normalize_rows_l2(xt), g.knn_k,
                               g.knn_queries, g.knn_seed);
  r.knn_s = seconds_since(t);
  return r;
}

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  void add(const PhaseResult& p) {
    attempted += p.sent;
    failed += p.failed;
  }
  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  /// A failed check of an operation already counted as attempted.
  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

/// A phase's traffic and the requests of it that were answered, checked
/// after the timed traffic once the reference exists.
struct Unchecked {
  std::string what;
  Traffic traffic;
  std::vector<std::size_t> answered;
};

void check_replies(const std::vector<Unchecked>& all, Tally* tally) {
  for (const Unchecked& u : all) {
    for (std::size_t i : u.answered) {
      if (!u.traffic.check(i)) {
        tally->fail(u.what + " request " + std::to_string(i) +
                    " differs from the reference");
      }
    }
  }
}

/// Mean |served ∩ exact| / k over a fixed sample of query ids: served
/// through the router (and checked against the reference index), exact
/// from a brute-force scan of v0's dequantized rows.
double recall_at_10(const Reference& ref, net::Client& c, std::uint64_t seed,
                    Tally* tally) {
  const serve::SnapshotPtr v0 = ref.store.snapshot("v0");
  const std::size_t vocab = v0->vocab_size(), dim = v0->dim();
  std::vector<float> rows(vocab * dim);
  std::vector<std::size_t> all(vocab);
  for (std::size_t i = 0; i < vocab; ++i) all[i] = i;
  v0->copy_rows(all.data(), vocab, rows.data());
  Rng rng(seed);
  std::size_t hits = 0;
  std::vector<std::pair<float, std::uint64_t>> best(vocab);
  for (std::size_t q = 0; q < kRecallQueries; ++q) {
    const std::size_t id = rng.index(vocab);
    const float* query = rows.data() + id * dim;
    const ann::TopKResult served = c.topk_id(id, kTopK);
    tally->op(served.version == "v0" &&
                  identical(served, ref.index->search(query, kTopK)),
              "recall query " + std::to_string(id) +
                  " differs from the reference index");
    for (std::size_t w = 0; w < vocab; ++w) {
      best[w] = {la::kernels::l2_sq_f32(query, rows.data() + w * dim, dim),
                 w};
    }
    std::partial_sort(best.begin(), best.begin() + kTopK, best.end());
    for (const ann::TopKHit& h : served.hits) {
      for (std::size_t j = 0; j < kTopK; ++j) {
        if (best[j].second == h.id) ++hits;
      }
    }
  }
  return static_cast<double>(hits) /
         static_cast<double>(kRecallQueries * kTopK);
}

// ---- the run -----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else {
      throw std::invalid_argument("unknown flag " + k);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  return (seed + 0x9e3779b97f4a7c15ull) * 0xbf58476d1ce4e5b9ull ^
         (salt * 0x94d049bb133111ebull);
}


void say(const std::string& line) { std::cout << line << "\n" << std::flush; }

void print_metric(const Report& r, const std::string& name) {
  const Metric& m = r.get(name);
  std::ostringstream os;
  os << "  " << std::left << std::setw(34) << name << " " << std::right
     << std::setw(16) << std::setprecision(6) << m.value << " " << m.unit;
  say(os.str());
}

int run(const Args& args) {
  const WorkloadSpec spec = spec_for(args.workload);
  const std::size_t nproc =
      std::max(1u, std::thread::hardware_concurrency());
  // Generator threads + connections ≤ nproc: each worker is one thread
  // with one connection (the refresh control thread is the second).
  const std::size_t workers = std::max<std::size_t>(1, std::min<std::size_t>(
                                                           2, nproc / 2));
  say("servebench workload=" + spec.name + " seed=" +
      std::to_string(args.seed) + " seconds=" + json_number(args.seconds) +
      " trace=" + (args.trace ? "1" : "0") + " nproc=" +
      std::to_string(nproc) + " isa=" + la::kernels::active_isa() +
      " compiler=\"" + __VERSION__ + "\" build=" + SERVEBENCH_BUILD_TYPE);

  // Replies are filed during set-up and the timed traffic and checked
  // against the reference once both are over.
  Reference ref;
  std::vector<Unchecked> unchecked;
  // Refresh lookups are checked on row digests against the rollout state;
  // the warm-up's state never changes.
  RolloutState rollout("v0");
  const RolloutState* lookup_rollout =
      spec.name == "refresh" ? &rollout : nullptr;

  // Set-up: data generation, encoding, artifact training, servers and
  // router up, warm-up. Repeated (untraced runs) and reported as a median
  // so a change that moves work into set-up shows.
  const int setup_reps = args.trace ? 1 : kSetupReps;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  Tally tally;
  Clock::time_point setup_t0 = g_process_start;
  for (int rep = 0; rep < setup_reps; ++rep) {
    dep.reset();
    if (rep > 0) setup_t0 = Clock::now();
    dep = build_deployment(spec, args.seed);
    net::Client warm("127.0.0.1", dep->port(), kRpcTimeoutMs);
    // On topk the first search builds each shard's index (lazily, per
    // live version).
    const std::size_t n_warm = spec.name == "topk" ? 32 : 128;
    Unchecked u{"warm-up",
                requests_for(ref, spec, n_warm, mix_seed(args.seed, 99),
                             nullptr, lookup_rollout),
                {}};
    for (std::size_t i = 0; i < n_warm; ++i) {
      Clock::time_point done;
      bool answered = true;
      try {
        u.traffic.send(warm, i, &done);
      } catch (const std::exception&) {
        answered = false;
      }
      tally.op(answered, "warm-up request " + std::to_string(i));
      if (answered) u.answered.push_back(i);
    }
    setup_s.push_back(seconds_since(setup_t0));
    unchecked.push_back(std::move(u));
  }
  Deployment& d = *dep;
  Report rep;

  // ---- timed traffic ---------------------------------------------------
  std::vector<std::uint64_t> keys;  // the key stream, for the replay
  PhaseResult nominal, untraced_ref;
  std::vector<CycleResult> cycles;
  std::vector<servebench::RungResult> rungs;
  GatePair replay_pair;
  double goodput = 0.0, recall = 0.0, cells_probed = 0.0, shortlist = 0.0;
  double program_cpu_s = 0.0;  // process CPU of the nominal traffic
  double rss_mb = 0.0;         // high-water mark once the traffic is over
  CounterSnapshot c0 = counters(d), c1;
  const CpuTimes cpu0 = cpu_times();

  if (spec.name != "refresh") {
    PhaseConfig pc;
    pc.rate = spec.rate;
    pc.workers = workers;
    if (args.trace) {
      // Untraced half first (the overhead baseline), then the traced half.
      pc.seconds = args.seconds / 2;
      pc.seed = mix_seed(args.seed, 1);
      Unchecked u{"untraced",
                  requests_for(ref, spec, mix_size(pc.rate, pc.seconds),
                               mix_seed(args.seed, 2), nullptr),
                  {}};
      untraced_ref = run_phase(d.port(), pc, u.traffic);
      u.answered = untraced_ref.answered;
      unchecked.push_back(std::move(u));
      tally.add(untraced_ref);
      c0 = counters(d);
      pc.traced = true;
    } else {
      pc.seconds = args.seconds;
    }
    pc.seed = mix_seed(args.seed, 3);
    Unchecked u{"nominal",
                requests_for(ref, spec, mix_size(pc.rate, pc.seconds),
                             mix_seed(args.seed, 4), &keys),
                {}};
    nominal = run_phase(d.port(), pc, u.traffic);
    u.answered = nominal.answered;
    unchecked.push_back(std::move(u));
    tally.add(nominal);
    c1 = counters(d);
    program_cpu_s = nominal.cpu_s - nominal.filing_cpu_s;

    if (!args.trace) {
      // Goodput: the ladder walk, reusing the nominal phase as its rung.
      std::uint64_t rung_salt = 10;
      goodput = servebench::ladder_walk(
          spec.ladder, spec.nominal_rung, spec.p99_limit_us,
          [&](double rate) {
            PhaseResult p;
            if (rate == spec.rate) {
              p = nominal;
            } else {
              PhaseConfig rc = pc;
              rc.rate = rate;
              // ≥ 1000 samples for p99 with near certainty (mean 1150).
              rc.seconds = std::max(1.0, 1150.0 / rate);
              rc.seed = mix_seed(args.seed, rung_salt++);
              Unchecked ru{"rung " + json_number(rate),
                           requests_for(ref, spec, mix_size(rate, rc.seconds),
                                        mix_seed(args.seed, rung_salt++),
                                        nullptr),
                           {}};
              p = run_phase(d.port(), rc, ru.traffic);
              ru.answered = p.answered;
              unchecked.push_back(std::move(ru));
              tally.add(p);
            }
            servebench::RungResult r;
            r.rate = rate;
            r.samples = p.latency_us.size();
            r.failed = p.failed;
            r.p99_us = percentile(p.latency_us, 0.99);
            r.backlog = servebench::backlog_growing(p.lateness_us,
                                                    spec.p99_limit_us);
            rungs.push_back(r);
            return r;
          });
    }
    rss_mb = peak_rss_mb();

    build_reference(ref, d);
    check_replies(unchecked, &tally);
    if (spec.name == "topk") {
      net::Client c("127.0.0.1", d.port(), kRpcTimeoutMs);
      if (args.trace) {
        // Replies carry the per-shard search shape, summed by the router.
        Rng rng(mix_seed(args.seed, 400));
        constexpr int kShape = 32;
        for (int q = 0; q < kShape; ++q) {
          const ann::TopKResult r = c.topk_id(rng.index(spec.vocab), kTopK);
          cells_probed += r.cells_probed;
          shortlist += r.shortlist;
        }
        cells_probed /= kShape;
        shortlist /= kShape;
      } else {
        recall = recall_at_10(ref, c, mix_seed(args.seed, 300), &tally);
      }
    }

    if (args.trace) {
      // Every traced run reports every per-layer metric, so lookup and
      // topk end with one routine and one botched refresh of this
      // deployment, with no traffic, for the refresh-path layers.
      net::Client control("127.0.0.1", d.port(), kRpcTimeoutMs);
      const bool kinds[] = {true, false};
      for (std::size_t i = 0; i < std::size(kinds); ++i) {
        cycles.push_back(refresh_cycle(d, ref, control, kinds[i],
                                       mix_seed(args.seed, 100 + i), nullptr,
                                       &replay_pair));
        tally.op(cycles.back().ok, cycles.back().detail);
        tally.op(check_live(d, ref, control, mix_seed(args.seed, 200 + i)),
                 "lookup after rollout " + std::to_string(i) +
                     " did not match the live version");
      }
    }
  } else {
    // Refresh: background lookups at a fixed low rate while cycles run
    // back to back until the window has passed and at least two routine
    // and two botched refreshes completed.
    build_reference(ref, d);
    std::atomic<bool> stop{false};
    const double max_window = std::max(args.seconds, 120.0);
    std::vector<std::uint64_t> bg_keys;
    std::string bg_error;
    Unchecked bg_ref{"untraced", {}, {}}, bg_nominal{"nominal", {}, {}};
    const double window_cpu0 = process_cpu_s();
    std::thread bg([&] {
      try {
        PhaseConfig pc;
        pc.rate = spec.rate;
        pc.workers = 1;
        pc.stop = &stop;
        if (args.trace) {
          pc.seconds = args.seconds / 2;
          pc.seed = mix_seed(args.seed, 1);
          bg_ref.traffic = requests_for(ref, spec, mix_size(pc.rate, pc.seconds),
                                        mix_seed(args.seed, 2), nullptr,
                                        &rollout);
          untraced_ref = run_phase(d.port(), pc, bg_ref.traffic);
          bg_ref.answered = untraced_ref.answered;
          pc.traced = true;
        }
        pc.seconds = max_window;
        pc.seed = mix_seed(args.seed, 3);
        bg_nominal.traffic =
            requests_for(ref, spec, mix_size(pc.rate, pc.seconds),
                         mix_seed(args.seed, 4), &bg_keys, &rollout);
        nominal = run_phase(d.port(), pc, bg_nominal.traffic);
        bg_nominal.answered = nominal.answered;
      } catch (const std::exception& e) {
        bg_error = e.what();
      }
    });
    // Stops and joins the background traffic on every exit from the
    // cycle loop, exceptions included.
    struct JoinBackground {
      std::thread& t;
      std::atomic<bool>& stop;
      ~JoinBackground() {
        stop = true;
        if (t.joinable()) t.join();
      }
    } join_bg{bg, stop};
    const Clock::time_point w0 = Clock::now();
    {
      net::Client control("127.0.0.1", d.port(), kRpcTimeoutMs);
      std::size_t routine = 0, botched = 0;
      for (std::size_t i = 0;; ++i) {
        const double elapsed = seconds_since(w0);
        if ((elapsed >= args.seconds && routine >= 2 && botched >= 2) ||
            elapsed >= max_window) {
          break;
        }
        const bool is_routine = i % 2 == 0;
        cycles.push_back(refresh_cycle(d, ref, control, is_routine,
                                       mix_seed(args.seed, 100 + i),
                                       &rollout, &replay_pair));
        (is_routine ? routine : botched)++;
        tally.op(cycles.back().ok, cycles.back().detail);
        tally.op(check_live(d, ref, control, mix_seed(args.seed, 200 + i)),
                 "lookup after rollout " + std::to_string(i) +
                     " did not match the live version");
      }
    }
    stop = true;
    bg.join();
    // The window runs from before the background traffic starts to after
    // it stops, so it holds every cycle whole; the benchmark's own work in
    // it (candidates, reference digests, filing replies) is taken out.
    program_cpu_s = process_cpu_s() - window_cpu0 - nominal.filing_cpu_s -
                    untraced_ref.filing_cpu_s;
    for (const CycleResult& c : cycles) program_cpu_s -= c.bench_cpu_s;
    rss_mb = peak_rss_mb();
    if (!bg_error.empty()) tally.op(false, "background traffic: " + bg_error);
    c1 = counters(d);
    tally.add(nominal);
    if (args.trace) tally.add(untraced_ref);
    unchecked.push_back(std::move(bg_ref));
    unchecked.push_back(std::move(bg_nominal));
    check_replies(unchecked, &tally);
    keys = std::move(bg_keys);
  }

  // ---- metrics ---------------------------------------------------------
  std::vector<double> routine_s, botched_s, add_s, rollout_s;
  for (const CycleResult& c : cycles) {
    if (!c.ok) continue;
    (c.routine ? routine_s : botched_s).push_back(c.total_s);
    for (double a : c.add_version_s) add_s.push_back(a);
    rollout_s.push_back(c.rollout_s);
  }
  const std::vector<double> lat = nominal.latency_us;
  const std::size_t n_lat = lat.size();
  std::vector<std::string> e2e, layers;

  if (!args.trace) {
    rep.set("setup_s", median(setup_s), "s");
    for (const auto& [name, q] : {std::pair{"p50_us", 0.50},
                                  std::pair{"p90_us", 0.90}}) {
      rep.set(name,
              servebench::fastest_window_percentile(nominal.due_s, lat, q,
                                                    kWindowS),
              "us");
    }
    // p99 is reported only when ten samples lie beyond it.
    if (servebench::percentile_supported(0.99, n_lat)) {
      rep.set("p99_us", percentile(lat, 0.99), "us");
    } else {
      say("p99_us omitted: " + std::to_string(n_lat) + " samples, p99 needs " +
          std::to_string(servebench::min_samples_for(0.99)));
    }
    rep.set("p99_samples", static_cast<double>(n_lat), "count");
    if (spec.name == "refresh") {
      rep.set("refresh_s", median(routine_s), "s");
      rep.set("refresh_reject_s", median(botched_s), "s");
    }
    rep.set("peak_rss_mb", rss_mb, "MB");
    rep.set("error_frac", ratio(tally.failed, tally.attempted), "ratio");
    rep.set("host_steal_frac", steal_frac_since(cpu0), "ratio");
    rep.set("cpu_us_per_req",
            ratio(program_cpu_s * 1e6, static_cast<double>(nominal.sent)),
            "us");

    if (spec.name != "refresh") rep.set("goodput_rps", goodput, "req/s");
    if (spec.name == "topk") rep.set("recall_at_10", recall, "ratio");
    e2e = {"setup_s", "cpu_us_per_req", "peak_rss_mb"};
  } else {
    const LayerSamples s = layer_samples(nominal.traces);
    const std::vector<double> lat_ref = untraced_ref.latency_us;
    rep.set("loadgen.late_p99_us", percentile(nominal.lateness_us, 0.99), "us");
    rep.set("loadgen.sent", static_cast<double>(nominal.sent), "count");
    rep.set("loadgen.ok",
            static_cast<double>(nominal.sent - nominal.failed), "count");
    rep.set("loadgen.failed", static_cast<double>(nominal.failed), "count");
    rep.set("net.client_send.p50_us", percentile(s.client_send, 0.5), "us");
    rep.set("net.client_send.p99_us", percentile(s.client_send, 0.99), "us");
    rep.set("net.hop.p50_us", percentile(s.hop, 0.5), "us");
    rep.set("net.backend_recv.self_p50_us", percentile(s.backend_self, 0.5),
            "us");
    rep.set("cluster.router_recv.self_p50_us", percentile(s.router_self, 0.5),
            "us");
    rep.set("cluster.scatter.p50_us", percentile(s.scatter, 0.5), "us");
    rep.set("cluster.scatter.p99_us", percentile(s.scatter, 0.99), "us");
    rep.set("cluster.shard_rtt.p50_us", percentile(s.shard_rtt, 0.5), "us");
    rep.set("cluster.shard_rtt.p99_us", percentile(s.shard_rtt, 0.99), "us");
    rep.set("cluster.shard_skew.p50_us", percentile(s.shard_skew, 0.5), "us");
    rep.set("cluster.merge.p50_us", percentile(s.merge, 0.5), "us");
    const double reqs = static_cast<double>(nominal.sent);
    rep.set("cluster.hedges_per_req",
            ratio(static_cast<double>(c1.hedges - c0.hedges), reqs), "ratio");
    rep.set("cluster.hedge_win_frac",
            ratio(static_cast<double>(c1.hedge_wins - c0.hedge_wins),
                  static_cast<double>(c1.hedges - c0.hedges)),
            "ratio");
    rep.set("cluster.retries", static_cast<double>(c1.retries - c0.retries),
            "count");
    rep.set("cluster.failovers",
            static_cast<double>(c1.failovers - c0.failovers), "count");
    rep.set("cluster.rollout_s", median(rollout_s), "s");
    rep.set("serve.batch_queue.p50_us", percentile(s.batch_queue, 0.5), "us");
    rep.set("serve.batch_queue.p99_us", percentile(s.batch_queue, 0.99), "us");
    rep.set("serve.batch_exec.self_p50_us", percentile(s.batch_exec_self, 0.5),
            "us");
    rep.set("serve.dequantize.p50_us", percentile(s.dequantize, 0.5), "us");
    rep.set("serve.batch_keys_mean",
            ratio(static_cast<double>(c1.lookups - c0.lookups),
                  static_cast<double>(c1.batches - c0.batches)),
            "ratio");
    rep.set("serve.cache_hit_frac",
            ratio(static_cast<double>(c1.hits - c0.hits),
                  static_cast<double>((c1.hits - c0.hits) +
                                      (c1.misses - c0.misses))),
            "ratio");
    rep.set("serve.store.add_version_s", median(add_s), "s");
    const Replay replay = replay_gate(replay_pair);
    rep.set("serve.gate.evaluate_s", replay.gate_s, "s");
    rep.set("core.eis_s", replay.eis_s, "s");
    rep.set("core.knn_s", replay.knn_s, "s");
    rep.set("ann.topk_search.p50_us", percentile(s.topk_search, 0.5), "us");
    rep.set("ann.topk_search.p99_us", percentile(s.topk_search, 0.99), "us");
    rep.set("ann.cells_probed_mean", cells_probed, "count");
    rep.set("ann.shortlist_mean", shortlist, "count");
    rep.set("ann.index_builds", static_cast<double>(d.ann_builds()), "count");
    const double traced_p50 = percentile(lat, 0.5);
    const double untraced_p50 = percentile(lat_ref, 0.5);
    rep.set("obs.trace_overhead_frac",
            ratio(traced_p50 - untraced_p50, untraced_p50), "ratio");
    rep.set("obs.spans_lost",
            static_cast<double>(nominal.spans_recorded -
                                std::min(nominal.spans_recorded,
                                         nominal.spans_harvested)),
            "count");
    rep.set("obs.incomplete_traces", static_cast<double>(s.incomplete),
            "count");
    rep.set("obs.key_load.record_ns", key_load_record_ns(keys, spec.vocab),
            "ns");
    rep.set("unattributed.p50_us", percentile(s.unattributed, 0.5), "us");
    // The JSON carries the layers every workload exercises; stage spans
    // only one workload records (batch_* and dequantize are absent from
    // topk traces, topk_search from lookup and refresh) are printed above
    // and kept in the servebench-result record.
    layers = {"loadgen.late_p99_us",
              "loadgen.sent",
              "loadgen.ok",
              "loadgen.failed",
              "net.client_send.p50_us",
              "net.client_send.p99_us",
              "net.hop.p50_us",
              "net.backend_recv.self_p50_us",
              "cluster.router_recv.self_p50_us",
              "cluster.scatter.p50_us",
              "cluster.scatter.p99_us",
              "cluster.shard_rtt.p50_us",
              "cluster.shard_rtt.p99_us",
              "cluster.shard_skew.p50_us",
              "cluster.merge.p50_us",
              "cluster.hedges_per_req",
              "cluster.hedge_win_frac",
              "cluster.retries",
              "cluster.failovers",
              "cluster.rollout_s",
              "serve.batch_keys_mean",
              "serve.cache_hit_frac",
              "serve.store.add_version_s",
              "serve.gate.evaluate_s",
              "core.eis_s",
              "core.knn_s",
              "ann.cells_probed_mean",
              "ann.shortlist_mean",
              "ann.index_builds",
              "obs.trace_overhead_frac",
              "obs.spans_lost",
              "obs.key_load.record_ns",
              "unattributed.p50_us"};
  }

  // ---- print -----------------------------------------------------------
  say("setup runs (s): " + [&] {
    std::string s;
    for (double x : setup_s) s += json_number(x) + " ";
    return s;
  }());
  for (const servebench::RungResult& r : rungs) {
    std::ostringstream os;
    os << "rung " << r.rate << " req/s: p99=" << r.p99_us << " us over "
       << r.samples << " samples, failed=" << r.failed
       << (r.backlog ? ", backlog growing" : "") << " -> "
       << (r.passes(spec.p99_limit_us) ? "pass" : "fail");
    say(os.str());
  }
  for (const CycleResult& c : cycles) {
    say(std::string("refresh ") + (c.routine ? "routine" : "botched") + " " +
        json_number(c.total_s) + " s (rollout " + json_number(c.rollout_s) +
        " s)" + (c.ok ? "" : " WRONG: " + c.detail));
  }
  for (const std::string& e : tally.errors) say("FAILED: " + e);
  say("metrics:");
  for (const std::string& name : rep.order()) print_metric(rep, name);

  const bool correct = tally.failed == 0;
  std::string record = "{\"workload\": " + json_string(spec.name) +
                       ", \"seed\": " + std::to_string(args.seed) +
                       ", \"trace\": " + (args.trace ? "1" : "0") +
                       ", \"seconds\": " + json_number(args.seconds) +
                       ", \"started_at\": " + json_number(g_started_at) +
                       ", \"host\": {\"nproc\": " + std::to_string(nproc) +
                       ", \"isa\": " + json_string(la::kernels::active_isa()) +
                       ", \"compiler\": " + json_string(__VERSION__) +
                       ", \"build_type\": " +
                       json_string(SERVEBENCH_BUILD_TYPE) + "}" +
                       ", \"correct\": " + (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(tally.attempted) +
                       ", \"failed\": " + std::to_string(tally.failed) +
                       ", \"metrics\": " + metrics_json(rep, rep.order()) +
                       "}";
  say("servebench-result " + record);
  say("{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(tally.attempted) +
      ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": " +
      metrics_json(rep, args.trace ? layers : e2e) + "}");
  replay_pair = {};
  dep.reset();
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A hung stage must not outlive a 180-s per-run budget: SIGALRM's
  // default action ends the process.
  alarm(170);
  // Blocks of 1 MiB and up are mapped and unmapped on their own, so peak
  // RSS follows live memory rather than which freed blocks the allocator
  // kept (glibc otherwise raises this threshold as large blocks are freed,
  // and how many of the fp32 slices of earlier set-ups stay in its heap
  // varies from run to run).
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "servebench: " << e.what() << "\n";
    return 2;
  }
}
