// Online canarying: deterministic routing, CanaryStats bounds math, the
// two-phase promote/rollback state machine driven by real in-process
// traffic, operator abort, audit-trail rows, and the Procrustes-aligned
// ingestion path that keeps rotation-only drift from tripping the
// displacement rollback.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "knn_reference.hpp"
#include "la/svd.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"

namespace anchor::serve {
namespace {

embed::Embedding random_embedding(std::size_t vocab, std::size_t dim,
                                  std::uint64_t seed) {
  embed::Embedding e(vocab, dim);
  Rng rng(seed);
  for (auto& x : e.data) x = static_cast<float>(rng.normal(0.0, 1.0));
  return e;
}

embed::Embedding perturbed(const embed::Embedding& e, double scale,
                           std::uint64_t seed) {
  embed::Embedding out = e;
  Rng rng(seed);
  for (auto& x : out.data) x += static_cast<float>(rng.normal(0.0, scale));
  return out;
}

/// e · Q for a random orthogonal Q (left singular vectors of a random
/// d×d matrix): identical neighbor structure, every coordinate moved.
embed::Embedding rotated(const embed::Embedding& e, std::uint64_t seed) {
  la::Matrix noise(e.dim, e.dim);
  Rng rng(seed);
  for (auto& x : noise.storage()) x = rng.normal(0.0, 1.0);
  const la::Matrix q = la::svd(noise).u;
  embed::Embedding out(e.vocab_size, e.dim);
  for (std::size_t w = 0; w < e.vocab_size; ++w) {
    const float* src = e.row(w);
    float* dst = out.row(w);
    for (std::size_t j = 0; j < e.dim; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < e.dim; ++k) acc += src[k] * q(k, j);
      dst[j] = static_cast<float>(acc);
    }
  }
  return out;
}

/// A gate whose offline phase admits anything — these tests exercise the
/// ONLINE phase; the offline gate has its own suite in serve_test.
GateConfig permissive_gate(const std::filesystem::path& audit = {}) {
  GateConfig g;
  g.eis_warn = g.eis_reject = 100.0;
  g.knn_warn = g.knn_reject = 100.0;
  g.max_rows = 256;
  g.knn_queries = 32;
  g.audit_log = audit;
  return g;
}

CanaryConfig fast_canary() {
  CanaryConfig c;
  c.fraction = 0.5;
  c.shadow_rate = 0.5;
  c.min_shadows = 32;
  c.probe_rows = 64;
  return c;
}

/// Drives random-id batches through the router until it reaches a
/// terminal state (or the iteration budget trips).
void pump(CanaryRouter& router, std::size_t vocab, std::uint64_t seed,
          int max_iters = 400, std::size_t batch = 16) {
  Rng rng(seed);
  LookupResult result;
  for (int i = 0; i < max_iters && router.active(); ++i) {
    std::vector<std::size_t> ids(batch);
    for (auto& id : ids) id = rng.index(vocab);
    router.lookup_ids_into(ids, &result);
  }
}

struct TempAudit {
  std::filesystem::path path;
  TempAudit() {
    path = std::filesystem::temp_directory_path() /
           ("canary_test_audit_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".csv");
    std::filesystem::remove(path);
  }
  ~TempAudit() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

// ---- routing determinism ----------------------------------------------

TEST(CanaryRouting, DeterministicForAFixedKeySetAndFractional) {
  EmbeddingStore store;
  const auto base = random_embedding(400, 16, 3);
  store.add_version("v1", base);
  store.add_version("v2", perturbed(base, 0.01, 4));
  LookupService service(store);
  AsyncLookupService async(service);

  CanaryConfig config = fast_canary();
  config.fraction = 0.25;
  DeploymentGate gate(permissive_gate());
  const auto a = gate.try_promote(store, "v2", async, config);
  const auto b = gate.try_promote(store, "v2", async, config);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  std::size_t candidate_routed = 0;
  for (std::size_t key = 0; key < 20000; ++key) {
    // Same (seed, fraction, key) → same route, on every router instance.
    EXPECT_EQ(a->routes_to_candidate(key), b->routes_to_candidate(key));
    EXPECT_EQ(a->shadows_key(key), b->shadows_key(key));
    if (a->routes_to_candidate(key)) ++candidate_routed;
  }
  const double observed =
      static_cast<double>(candidate_routed) / 20000.0;
  EXPECT_NEAR(observed, 0.25, 0.02);

  // Word routing is deterministic too.
  EXPECT_EQ(a->routes_to_candidate(std::string("w17")),
            b->routes_to_candidate(std::string("w17")));
  a->abort();
  b->abort();
}

// ---- CanaryStats -------------------------------------------------------

TEST(CanaryStats, MeansCountersAndHoeffdingBounds) {
  CanaryStats stats;
  stats.record_candidate(10);
  stats.record_incumbent(30);
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    stats.record_shadow(0.8, 0.1, i % 2 == 0 ? 4.0 : -2.0);
  }
  const CanaryStatsSnapshot s = stats.snapshot(0.99);
  EXPECT_EQ(s.candidate_lookups, 10u);
  EXPECT_EQ(s.incumbent_lookups, 30u);
  EXPECT_EQ(s.shadows, 100u);
  EXPECT_NEAR(s.mean_agreement, 0.8, 1e-5);
  EXPECT_NEAR(s.mean_displacement, 0.1, 1e-5);
  EXPECT_NEAR(s.mean_latency_delta_us, 1.0, 1e-5);
  const double half = std::sqrt(std::log(2.0 / 0.01) / (2.0 * n));
  EXPECT_NEAR(s.agreement_lower, 0.8 - half, 1e-5);
  EXPECT_NEAR(s.agreement_upper, 0.8 + half, 1e-5);
  // Medians come from a log-bucketed histogram: the estimate is the
  // bucket's lower bound, at most 1/32 below the true value.
  EXPECT_NEAR(s.p50_agreement, 0.8, 0.8 / 32.0);
  EXPECT_LE(s.p50_agreement, 0.8);
  EXPECT_FALSE(s.summary().empty());

  // Bounds clamp to the agreement range.
  CanaryStats extreme;
  extreme.record_shadow(1.0, 0.0, 0.0);
  const CanaryStatsSnapshot e = extreme.snapshot(0.99);
  EXPECT_EQ(e.agreement_upper, 1.0);
  EXPECT_GE(e.agreement_lower, 0.0);
}

// ---- two-phase state machine ------------------------------------------

TEST(Canary, OnlineAgreementMatchesBruteForceDefinition) {
  // Every key routes and shadows, and probe_rows >= vocab makes the probe
  // panel every row in id order, so each shadowed key's agreement is the
  // paper's k-NN overlap of that row in the two versions, self excluded.
  const std::size_t vocab = 60, dim = 8, k = 4;
  EmbeddingStore store;
  const auto base = random_embedding(vocab, dim, 31);
  const auto moved = perturbed(base, 0.3, 32);
  store.add_version("v1", base);
  store.add_version("v2", moved);
  LookupService service(store);
  AsyncLookupService async(service);
  CanaryConfig config;
  config.fraction = 1.0;
  config.shadow_rate = 1.0;
  config.knn_k = k;
  config.probe_rows = 64;
  config.min_shadows = config.max_shadows = 100000;  // never decide
  DeploymentGate gate(permissive_gate());
  const auto router = gate.try_promote(store, "v2", async, config);
  ASSERT_NE(router, nullptr);
  std::vector<std::size_t> keys(vocab);
  for (std::size_t i = 0; i < vocab; ++i) keys[i] = i;
  LookupResult result;
  router->lookup_ids_into(keys, &result);

  const auto rows_of = [&](const embed::Embedding& e) {
    knn_reference::Rows rows(vocab);
    for (std::size_t w = 0; w < vocab; ++w) {
      rows[w].assign(e.row(w), e.row(w) + dim);
    }
    return rows;
  };
  const auto inc = rows_of(base);
  const auto cand = rows_of(moved);
  double sum = 0.0;
  std::uint64_t scored = 0;
  for (const std::size_t key : keys) {
    if (!router->routes_to_candidate(key) || !router->shadows_key(key)) {
      continue;
    }
    sum += knn_reference::overlap(knn_reference::topk(cand, cand[key], k, key),
                                  knn_reference::topk(inc, inc[key], k, key));
    ++scored;
  }
  const CanaryStatsSnapshot s = router->stats();
  ASSERT_GT(scored, 0u);
  EXPECT_EQ(s.shadows, scored);
  // The running mean is summed in micro fixed point.
  EXPECT_NEAR(s.mean_agreement, sum / static_cast<double>(scored), 1e-6);
  EXPECT_LT(s.mean_agreement, 1.0);
  router->abort();
}

TEST(Canary, GoodCandidateAutoPromotesOnOnlineAgreement) {
  TempAudit audit;
  EmbeddingStore store;
  const auto base = random_embedding(500, 24, 7);
  store.add_version("v1", base);
  store.add_version("v2-good", perturbed(base, 0.01, 8));
  LookupService service(store);
  AsyncLookupService async(service);
  DeploymentGate gate(permissive_gate(audit.path));

  GateReport offline;
  const auto router =
      gate.try_promote(store, "v2-good", async, fast_canary(), &offline);
  ASSERT_NE(router, nullptr);
  EXPECT_NE(offline.decision, GateDecision::kReject);
  EXPECT_EQ(store.live_version(), "v1");  // phase 2 owns the flip
  EXPECT_TRUE(router->active());

  pump(*router, 500, 21);
  EXPECT_EQ(router->state(), CanaryState::kPromoted);
  EXPECT_EQ(store.live_version(), "v2-good");
  const CanaryStatsSnapshot s = router->stats();
  EXPECT_GE(s.shadows, 32u);
  EXPECT_GE(s.agreement_lower, 0.70);
  EXPECT_LE(s.mean_displacement, 0.25);
  EXPECT_NE(router->decision_reason().find("canary promote"),
            std::string::npos);

  // Audit trail: the phase-1 hand-off row plus the online decision row.
  const auto rows = read_audit_csv(audit.path);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_NE(rows[0].reason.find("canary started"), std::string::npos);
  EXPECT_FALSE(rows[0].promoted);
  EXPECT_TRUE(rows[1].promoted);
  EXPECT_NE(rows[1].reason.find("canary promote"), std::string::npos);
  EXPECT_EQ(rows[1].rows_compared, s.shadows);

  // Terminal routers forward everything to the (now candidate) live
  // version.
  LookupResult after;
  router->lookup_ids_into({1, 2, 3}, &after);
  EXPECT_EQ(after.version, "v2-good");
}

TEST(Canary, CorruptedCandidateAutoRollsBackOnOnlineAgreement) {
  TempAudit audit;
  EmbeddingStore store;
  const auto base = random_embedding(500, 24, 9);
  store.add_version("v1", base);
  // An independently seeded space: the permissive offline gate admits it,
  // the online agreement (chance-level top-k overlap) must not.
  store.add_version("v3-bad", random_embedding(500, 24, 1234));
  LookupService service(store);
  AsyncLookupService async(service);
  DeploymentGate gate(permissive_gate(audit.path));

  const auto router = gate.try_promote(store, "v3-bad", async, fast_canary());
  ASSERT_NE(router, nullptr);
  pump(*router, 500, 22);
  EXPECT_EQ(router->state(), CanaryState::kRolledBack);
  EXPECT_EQ(store.live_version(), "v1");  // incumbent never left
  const CanaryStatsSnapshot s = router->stats();
  EXPECT_GE(s.shadows, 32u);
  EXPECT_LE(s.mean_agreement, 0.4);
  EXPECT_NE(router->decision_reason().find("canary rollback"),
            std::string::npos);

  const auto rows = read_audit_csv(audit.path);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_FALSE(rows[1].promoted);
  EXPECT_NE(rows[1].reason.find("canary rollback"), std::string::npos);

  // Lookups after the rollback serve the incumbent.
  LookupResult after;
  router->lookup_ids_into({1, 2, 3}, &after);
  EXPECT_EQ(after.version, "v1");
}

TEST(Canary, OfflineRejectNeverTakesTraffic) {
  TempAudit audit;
  EmbeddingStore store;
  const auto base = random_embedding(300, 16, 11);
  store.add_version("v1", base);
  store.add_version("v3-bad", random_embedding(300, 16, 999));
  LookupService service(store);
  AsyncLookupService async(service);
  GateConfig strict;  // default thresholds reject an unrelated space
  strict.max_rows = 256;
  strict.knn_queries = 32;
  strict.audit_log = audit.path;
  DeploymentGate gate(strict);

  GateReport offline;
  const auto router =
      gate.try_promote(store, "v3-bad", async, fast_canary(), &offline);
  EXPECT_EQ(router, nullptr);
  EXPECT_EQ(offline.decision, GateDecision::kReject);
  EXPECT_EQ(store.live_version(), "v1");
  const auto rows = read_audit_csv(audit.path);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NE(rows[0].reason.find("canary not started"), std::string::npos);
}

TEST(Canary, AlreadyLiveCandidateShortCircuits) {
  EmbeddingStore store;
  store.add_version("v1", random_embedding(100, 8, 1));
  LookupService service(store);
  AsyncLookupService async(service);
  DeploymentGate gate(permissive_gate());
  GateReport offline;
  EXPECT_EQ(gate.try_promote(store, "v1", async, fast_canary(), &offline),
            nullptr);
  EXPECT_EQ(offline.decision, GateDecision::kAdmit);
  EXPECT_NE(offline.reason.find("already live"), std::string::npos);
  EXPECT_THROW(gate.try_promote(store, "no-such", async, fast_canary()),
               std::exception);
}

TEST(Canary, AbortKeepsTheIncumbentAndStopsRouting) {
  TempAudit audit;
  EmbeddingStore store;
  const auto base = random_embedding(400, 16, 13);
  store.add_version("v1", base);
  store.add_version("v2", perturbed(base, 0.01, 14));
  LookupService service(store);
  AsyncLookupService async(service);
  DeploymentGate gate(permissive_gate(audit.path));

  CanaryConfig config = fast_canary();
  config.min_shadows = 100000;  // no auto-decision during this test
  const auto router = gate.try_promote(store, "v2", async, config);
  ASSERT_NE(router, nullptr);
  pump(*router, 400, 23, /*max_iters=*/20);
  EXPECT_TRUE(router->active());
  EXPECT_GT(router->stats().candidate_lookups, 0u);

  router->abort();
  EXPECT_EQ(router->state(), CanaryState::kAborted);
  EXPECT_EQ(store.live_version(), "v1");
  router->abort();  // idempotent
  EXPECT_EQ(router->state(), CanaryState::kAborted);

  const auto rows = read_audit_csv(audit.path);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_NE(rows[1].reason.find("canary aborted"), std::string::npos);

  LookupResult after;
  router->lookup_ids_into({0, 1}, &after);
  EXPECT_EQ(after.version, "v1");
}

TEST(CanaryStats, WorstKeysTrackTopDisplacementOutliersDeduplicated) {
  CanaryStats stats;
  // 20 distinct keys with displacement key/100: the worst 8 must survive.
  for (std::uint64_t key = 0; key < 20; ++key) {
    stats.record_shadow(0.9, static_cast<double>(key) / 100.0, 0.0, key);
  }
  CanaryStatsSnapshot s = stats.snapshot(0.99);
  ASSERT_EQ(s.worst_keys.size(), 8u);
  for (std::size_t i = 0; i < s.worst_keys.size(); ++i) {
    EXPECT_EQ(s.worst_keys[i].key, 19 - i);  // sorted worst-first
    if (i > 0) {
      EXPECT_GE(s.worst_keys[i - 1].displacement,
                s.worst_keys[i].displacement);
    }
  }
  // A repeat observation of a tracked key keeps its MAX, no duplicate.
  stats.record_shadow(0.9, 0.05, 0.0, 19);
  stats.record_shadow(0.9, 0.99, 0.0, 18);
  s = stats.snapshot(0.99);
  ASSERT_EQ(s.worst_keys.size(), 8u);
  EXPECT_EQ(s.worst_keys[0].key, 18u);
  EXPECT_NEAR(s.worst_keys[0].displacement, 0.99, 1e-9);
  std::size_t seen19 = 0;
  for (const auto& w : s.worst_keys) {
    if (w.key == 19) {
      ++seen19;
      EXPECT_NEAR(w.displacement, 0.19, 1e-9);  // max, not latest
    }
  }
  EXPECT_EQ(seen19, 1u);
  // Keyless samples (word traffic) feed the aggregates, never the heap.
  stats.record_shadow(0.9, 2.0, 0.0);
  EXPECT_EQ(stats.snapshot(0.99).worst_keys[0].key, 18u);
  // The decision path's snapshot skips the heap copy entirely.
  EXPECT_TRUE(stats.snapshot(0.99, /*with_medians=*/false).worst_keys.empty());
  // And the status summary names the outliers.
  EXPECT_NE(s.summary().find("worst_keys="), std::string::npos);
}

TEST(Canary, WorstKeysSurfaceInStatusAndAuditTrail) {
  TempAudit audit;
  EmbeddingStore store;
  const auto base = random_embedding(400, 16, 43);
  store.add_version("v1", base);
  store.add_version("v2", perturbed(base, 0.05, 44));
  LookupService service(store);
  AsyncLookupService async(service);
  DeploymentGate gate(permissive_gate(audit.path));

  CanaryConfig config = fast_canary();
  config.min_shadows = 100000;  // keep it running; we abort below
  const auto router = gate.try_promote(store, "v2", async, config);
  ASSERT_NE(router, nullptr);
  pump(*router, 400, 45, /*max_iters=*/60);
  ASSERT_GT(router->stats().shadows, 0u);
  ASSERT_FALSE(router->stats().worst_keys.empty());
  // Every reported outlier is a real row id of shadowed traffic.
  for (const auto& w : router->stats().worst_keys) {
    EXPECT_LT(w.key, 400u);
    EXPECT_TRUE(router->routes_to_candidate(
        static_cast<std::size_t>(w.key)));
    EXPECT_TRUE(router->shadows_key(static_cast<std::size_t>(w.key)));
  }
  router->abort();
  const auto rows = read_audit_csv(audit.path);
  ASSERT_GE(rows.size(), 2u);
  EXPECT_NE(rows.back().reason.find("worst_keys="), std::string::npos);
}

TEST(Canary, DrainAbortFinishesInFlightShadowsAndReportsScoredStatus) {
  TempAudit audit;
  EmbeddingStore store;
  const auto base = random_embedding(400, 16, 53);
  store.add_version("v1", base);
  store.add_version("v2", perturbed(base, 0.01, 54));
  LookupService service(store);
  AsyncLookupService async(service);
  DeploymentGate gate(permissive_gate(audit.path));

  CanaryConfig config = fast_canary();
  config.min_shadows = 100000;  // the operator decides, not the bounds
  const auto router = gate.try_promote(store, "v2", async, config);
  ASSERT_NE(router, nullptr);
  pump(*router, 400, 55, /*max_iters=*/40);
  const std::uint64_t shadows_before = router->stats().shadows;
  ASSERT_GT(shadows_before, 0u);

  router->abort(/*drain=*/true);
  EXPECT_EQ(router->state(), CanaryState::kAborted);
  EXPECT_EQ(store.live_version(), "v1");
  // The terminal reason is the final scored status of a drained abort.
  EXPECT_NE(router->decision_reason().find("(drained)"), std::string::npos);
  EXPECT_NE(router->decision_reason().find("shadows="), std::string::npos);
  EXPECT_GE(router->stats().shadows, shadows_before);

  // Post-drain traffic routes to the live store and scores nothing new.
  LookupResult after;
  router->lookup_ids_into({0, 1, 2, 3}, &after);
  EXPECT_EQ(after.version, "v1");
  const std::uint64_t frozen = router->stats().shadows;
  router->lookup_ids_into({4, 5, 6, 7}, &after);
  EXPECT_EQ(router->stats().shadows, frozen);

  const auto rows = read_audit_csv(audit.path);
  ASSERT_GE(rows.size(), 2u);
  EXPECT_NE(rows.back().reason.find("drained"), std::string::npos);
}

TEST(Canary, DrainAbortWaitsForConcurrentRoutedLookups) {
  // Abort(drain) from one thread while another thread is mid-pump: the
  // drained abort must observe a quiesced router (inflight == 0) and the
  // final state must be terminal with the incumbent live — under TSan-ish
  // stress this is the race the inflight counter exists for.
  EmbeddingStore store;
  const auto base = random_embedding(400, 16, 63);
  store.add_version("v1", base);
  store.add_version("v2", perturbed(base, 0.01, 64));
  LookupService service(store);
  AsyncLookupService async(service);
  DeploymentGate gate(permissive_gate());

  CanaryConfig config = fast_canary();
  config.min_shadows = 100000;
  const auto router = gate.try_promote(store, "v2", async, config);
  ASSERT_NE(router, nullptr);

  std::atomic<bool> stop{false};
  std::thread pump_thread([&] {
    Rng rng(65);
    LookupResult result;
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<std::size_t> ids(16);
      for (auto& id : ids) id = rng.index(400);
      router->lookup_ids_into(ids, &result);
    }
  });
  // Let some traffic flow, then drain-abort concurrently with the pump.
  while (router->stats().candidate_lookups < 64) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  router->abort(/*drain=*/true);
  EXPECT_EQ(router->state(), CanaryState::kAborted);
  stop.store(true, std::memory_order_relaxed);
  pump_thread.join();
  EXPECT_EQ(store.live_version(), "v1");
}

TEST(Canary, WordTrafficShadowsAndMergesInRequestOrder) {
  EmbeddingStore store;
  const auto base = random_embedding(300, 16, 17);
  store.add_version("v1", base);
  store.add_version("v2", perturbed(base, 0.01, 18));
  LookupService service(store);
  AsyncLookupService async(service);
  DeploymentGate gate(permissive_gate());

  CanaryConfig config = fast_canary();
  config.min_shadows = 100000;  // keep it running for the whole test
  const auto router = gate.try_promote(store, "v2", async, config);
  ASSERT_NE(router, nullptr);

  const LookupService direct(store);
  std::vector<std::string> words = {"w1", "w2", "w250", "unseen-word",
                                    "w7",  "w0", "w299", "another-unseen"};
  LookupResult merged;
  router->lookup_words_into(words, &merged);
  const LookupResult expected_inc = direct.lookup_words(words);
  ASSERT_EQ(merged.size(), words.size());
  EXPECT_EQ(merged.dim, expected_inc.dim);

  // Row-for-row: incumbent-routed words match the incumbent service
  // bit-identically; candidate-routed in-vocab words must differ from the
  // incumbent (different snapshot) — merge order is preserved either way.
  const LookupService cand_direct(
      store, {.pin_snapshot = store.snapshot("v2")});
  const LookupResult expected_cand = cand_direct.lookup_words(words);
  for (std::size_t i = 0; i < words.size(); ++i) {
    const float* got = merged.row(i);
    const float* want = router->routes_to_candidate(words[i])
                            ? expected_cand.row(i)
                            : expected_inc.row(i);
    for (std::size_t j = 0; j < merged.dim; ++j) {
      EXPECT_EQ(got[j], want[j]) << "row " << i << " col " << j;
    }
  }
  EXPECT_EQ(merged.oov, expected_inc.oov);
  router->abort();
}

// ---- Procrustes-aligned ingestion -------------------------------------

TEST(CanaryAlignment, RotationRollsBackUnalignedButPromotesAligned) {
  const auto base = random_embedding(400, 16, 19);
  const auto spun = rotated(base, 20);

  // Unaligned: neighbor structure is identical (rotation-invariant), so
  // agreement is perfect — but every coordinate moved, so the
  // displacement budget rolls it back.
  {
    EmbeddingStore store;
    store.add_version("v1", base);
    store.add_version("v2-rot", spun);
    EXPECT_FALSE(store.snapshot("v2-rot")->aligned_to_incumbent());
    LookupService service(store);
    AsyncLookupService async(service);
    DeploymentGate gate(permissive_gate());
    const auto router =
        gate.try_promote(store, "v2-rot", async, fast_canary());
    ASSERT_NE(router, nullptr);
    pump(*router, 400, 24);
    EXPECT_EQ(router->state(), CanaryState::kRolledBack);
    EXPECT_NE(router->decision_reason().find("displacement"),
              std::string::npos);
    EXPECT_GE(router->stats().mean_agreement, 0.9);  // structure was fine
    EXPECT_EQ(store.live_version(), "v1");
  }

  // Aligned at ingestion: the same rotated rows come back into the
  // incumbent's coordinates, displacement collapses, and the canary
  // promotes — the false reject the ROADMAP's warm-start rung is about.
  {
    EmbeddingStore store;
    store.add_version("v1", base);
    SnapshotConfig aligned;
    aligned.align_to_live = true;
    store.add_version("v2-rot", spun, aligned);
    EXPECT_TRUE(store.snapshot("v2-rot")->aligned_to_incumbent());
    LookupService service(store);
    AsyncLookupService async(service);
    DeploymentGate gate(permissive_gate());
    const auto router =
        gate.try_promote(store, "v2-rot", async, fast_canary());
    ASSERT_NE(router, nullptr);
    pump(*router, 400, 25);
    EXPECT_EQ(router->state(), CanaryState::kPromoted);
    EXPECT_LE(router->stats().mean_displacement, 0.01);
    EXPECT_EQ(store.live_version(), "v2-rot");
  }
}

TEST(CanaryAlignment, PinnedLookupServiceIgnoresHotSwaps) {
  EmbeddingStore store;
  const auto base = random_embedding(60, 8, 26);
  store.add_version("a", base);
  store.add_version("b", perturbed(base, 0.5, 27));
  const LookupService pinned(store, {.pin_snapshot = store.snapshot("b")});
  store.set_live("a");
  const LookupResult r = pinned.lookup_ids({0, 1});
  EXPECT_EQ(r.version, "b");  // pin wins over live
}

}  // namespace
}  // namespace anchor::serve
