// AsyncLookupService (serve/batcher): coalescing correctness, flush
// policy, drain-on-destruction, and error propagation. Timing-dependent
// behavior is asserted only in directions that cannot flake (e.g. "at
// least ceil(n/max) batches"), never via sleeps.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "serve/batcher.hpp"
#include "serve/demo_store.hpp"
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

constexpr std::size_t kVocab = 500;
constexpr std::size_t kDim = 24;

class AsyncLookupTest : public ::testing::Test {
 protected:
  AsyncLookupTest() {
    SnapshotConfig q8;
    q8.bits = 8;
    store_.add_version("live", random_embedding(kVocab, kDim, 11), q8);
  }

  EmbeddingStore store_;
};

TEST_F(AsyncLookupTest, ConcurrentSingleKeyLookupsMatchDirectBatch) {
  LookupService service(store_);
  AsyncLookupService async(service);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 300;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(100 + static_cast<std::uint64_t>(t));
      LookupService check(store_);  // independent direct path
      for (int i = 0; i < kPerThread; ++i) {
        // Mix of in-vocab and OOV ids.
        const std::size_t id = rng.index(kVocab + 32);
        ResultSlice slice = async.lookup_id(id).get();
        const LookupResult direct = check.lookup_ids({id});
        if (slice.size() != 1 || slice.dim() != kDim ||
            slice.oov(0) != (direct.oov[0] != 0) ||
            slice.version() != direct.version) {
          ++mismatches;
          continue;
        }
        for (std::size_t d = 0; d < kDim; ++d) {
          if (slice.row(0)[d] != direct.row(0)[d]) {
            ++mismatches;
            break;
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);
  const StatsSnapshot stats = async.stats().snapshot();
  EXPECT_EQ(stats.lookups, kThreads * kPerThread);
  // Every flush records one batch; coalescing can only reduce the count.
  EXPECT_LE(stats.batches, stats.lookups);
}

TEST_F(AsyncLookupTest, PipelinedRequestsCoalesceIntoSharedBatches) {
  LookupService service(store_);
  BatcherConfig config;
  config.max_batch_size = 32;
  config.max_wait_us = 5000;  // generous: flush on size, not age
  AsyncLookupService async(service, config);

  // Issue a window of single-key requests without draining, so the
  // combiner sees a deep queue and can fill batches.
  constexpr std::size_t kRequests = 256;
  std::vector<AsyncLookupService::SliceFuture> futures;
  futures.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    futures.push_back(async.lookup_id(i % kVocab));
  }
  std::size_t shared = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    ResultSlice slice = futures[i].get();
    ASSERT_EQ(slice.size(), 1u);
    EXPECT_EQ(slice.row(0)[0],
              service.lookup_ids({i % kVocab}).row(0)[0]);
    // A slice whose backing batch holds more rows than the request proves
    // zero-copy sharing with co-batched waiters.
    if (slice.batch()->size() > 1) ++shared;
  }
  EXPECT_GT(shared, 0u);
  const StatsSnapshot stats = async.stats().snapshot();
  EXPECT_EQ(stats.lookups, kRequests);
  // max_batch_size caps each flush, so at least ceil(256/32) batches; the
  // exact count depends on arrival timing.
  EXPECT_GE(stats.batches, kRequests / config.max_batch_size);
  EXPECT_LT(stats.batches, kRequests);
}

TEST_F(AsyncLookupTest, SmallBatchAndWordRequestsInterleave) {
  LookupService service(store_);
  AsyncLookupService async(service);

  auto ids_fut = async.lookup_ids({0, 5, kVocab + 7});
  auto word_fut = async.lookup_word("w3");
  auto words_fut = async.lookup_words({"w1", "definitely-oov"});

  const ResultSlice ids = ids_fut.get();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_FALSE(ids.oov(0));
  EXPECT_TRUE(ids.oov(2));
  const LookupResult direct = service.lookup_ids({0, 5});
  for (std::size_t d = 0; d < kDim; ++d) {
    EXPECT_EQ(ids.row(0)[d], direct.row(0)[d]);
    EXPECT_EQ(ids.row(1)[d], direct.row(1)[d]);
  }

  const ResultSlice word = word_fut.get();
  ASSERT_EQ(word.size(), 1u);
  EXPECT_FALSE(word.oov(0));
  const LookupResult word_direct = service.lookup_words({"w3"});
  for (std::size_t d = 0; d < kDim; ++d) {
    EXPECT_EQ(word.row(0)[d], word_direct.row(0)[d]);
  }

  const ResultSlice words = words_fut.get();
  ASSERT_EQ(words.size(), 2u);
  EXPECT_FALSE(words.oov(0));
  EXPECT_TRUE(words.oov(1));
}

TEST_F(AsyncLookupTest, EmptyRequestResolvesToEmptySlice) {
  LookupService service(store_);
  AsyncLookupService async(service);
  const ResultSlice slice = async.lookup_ids({}).get();
  EXPECT_EQ(slice.size(), 0u);
}

TEST_F(AsyncLookupTest, DestructorDrainsQueuedGeneralRequests) {
  // General (promise) path only: std::futures outlive the service and
  // must still complete, whatever the service's flush policy.
  LookupService service(store_);
  BatcherConfig config;
  config.max_batch_size = 4096;           // nothing flushes on size...
  config.max_wait_us = 60 * 1000 * 1000;  // ...or on age
  std::vector<std::future<ResultSlice>> futures;
  {
    AsyncLookupService async(service, config);
    for (std::size_t i = 0; i < 64; ++i) {
      futures.push_back(async.lookup_ids({i}));
    }
    // Destruction must flush the queue: every future still completes.
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ResultSlice slice = futures[i].get();
    ASSERT_EQ(slice.size(), 1u);
    EXPECT_FALSE(slice.oov(0));
    EXPECT_EQ(slice.row(0)[0], service.lookup_ids({i}).row(0)[0]);
  }
}

TEST_F(AsyncLookupTest, GeneralPathFuturesAreReadyOnReturn) {
  // A flush policy that never fires on size or age: multi-key and word
  // requests must not wait for it — they execute on the calling thread.
  LookupService service(store_);
  BatcherConfig config;
  config.max_batch_size = 4096;
  config.max_wait_us = 60 * 1000 * 1000;
  AsyncLookupService async(service, config);

  const std::vector<std::size_t> ids = {3, 0, kVocab + 9, 77, 3};
  const std::vector<std::string> words = {"w12", "not-a-word", "w0"};
  std::future<ResultSlice> ids_fut = async.lookup_ids(ids);
  EXPECT_EQ(ids_fut.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  std::future<ResultSlice> words_fut = async.lookup_words(words);
  EXPECT_EQ(words_fut.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);

  // Bit-identical to the synchronous service, row by row.
  const auto expect_identical = [](const ResultSlice& slice,
                                   const LookupResult& direct) {
    ASSERT_EQ(slice.size(), direct.size());
    EXPECT_EQ(slice.version(), direct.version);
    for (std::size_t r = 0; r < slice.size(); ++r) {
      EXPECT_EQ(slice.oov(r), direct.oov[r] != 0) << "row " << r;
      EXPECT_EQ(std::memcmp(slice.row(r), direct.row(r),
                            kDim * sizeof(float)),
                0)
          << "row " << r;
    }
  };
  expect_identical(ids_fut.get(), service.lookup_ids(ids));
  expect_identical(words_fut.get(), service.lookup_words(words));
}

TEST_F(AsyncLookupTest, TracedGeneralLookupRecordsBatchSpans) {
  LookupService service(store_);
  AsyncLookupService async(service);
  obs::Tracer::instance().clear();
  const obs::TraceContext trace = obs::TraceContext::start();
  ASSERT_EQ(async.lookup_ids({1, 2, 3}, trace).get().size(), 3u);

  // The spans are recorded before the future is returned, on this thread.
  const std::vector<obs::SpanRecord> spans =
      obs::Tracer::instance().spans_for(trace.trace_id);
  const auto find = [&](obs::TraceStage stage) -> const obs::SpanRecord* {
    for (const obs::SpanRecord& s : spans) {
      if (s.stage == stage) return &s;
    }
    return nullptr;
  };
  const obs::SpanRecord* queue = find(obs::TraceStage::kBatchQueue);
  const obs::SpanRecord* exec = find(obs::TraceStage::kBatchExec);
  const obs::SpanRecord* deq = find(obs::TraceStage::kDequantize);
  ASSERT_NE(queue, nullptr);
  ASSERT_NE(exec, nullptr);
  ASSERT_NE(deq, nullptr);
  EXPECT_LE(queue->end_ns, exec->start_ns);
  // dequantize nests inside batch_exec.
  EXPECT_GE(deq->start_ns, exec->start_ns);
  EXPECT_LE(deq->end_ns, exec->end_ns);
}

TEST_F(AsyncLookupTest, UnconsumedSliceFuturesAreConsumedByTheirDtor) {
  LookupService service(store_);
  AsyncLookupService async(service);
  {
    // Abandoned fast-path futures: their destructors must consume the
    // ring slots (blocking until executed) so the ring never leaks slots.
    std::vector<AsyncLookupService::SliceFuture> abandoned;
    for (std::size_t i = 0; i < 100; ++i) {
      abandoned.push_back(async.lookup_id(i % kVocab));
    }
  }
  // The ring is quiescent again: a fresh request still works.
  ResultSlice slice = async.lookup_id(3).get();
  EXPECT_EQ(slice.size(), 1u);
  EXPECT_EQ(async.pending(), 0u);
}

TEST_F(AsyncLookupTest, SlicesOutliveTheServiceSafely) {
  LookupService service(store_);
  ResultSlice kept;
  {
    AsyncLookupService async(service);
    kept = async.lookup_id(42).get();
  }
  // The backing buffers are freelist-owned, so the slice stays valid
  // after the async service is gone.
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept.row(0)[0], service.lookup_ids({42}).row(0)[0]);
}

TEST(AsyncLookupErrors, LookupAgainstEmptyStoreRejectsTheFuture) {
  EmbeddingStore empty;
  LookupService service(empty);
  AsyncLookupService async(service);
  auto fut = async.lookup_id(0);
  EXPECT_THROW(fut.get(), std::exception);
  // The combiner must survive a failed batch and keep serving: another
  // request still completes (with the same error).
  auto fut2 = async.lookup_id(1);
  EXPECT_THROW(fut2.get(), std::exception);
  // The general path reports the failure through its (ready) future.
  auto general = async.lookup_ids({0, 1});
  EXPECT_THROW(general.get(), std::exception);
}

TEST(AsyncLookupExec, InlineAndPoolExecutionAgree) {
  EmbeddingStore store;
  SnapshotConfig q4;
  q4.bits = 4;
  store.add_version("live", random_embedding(kVocab, kDim, 21), q4);
  LookupService service(store);

  for (const auto exec :
       {BatcherConfig::Exec::kInline, BatcherConfig::Exec::kPool}) {
    BatcherConfig config;
    config.exec = exec;
    AsyncLookupService async(service, config);
    for (std::size_t id : {std::size_t{0}, std::size_t{17}, kVocab - 1}) {
      ResultSlice slice = async.lookup_id(id).get();
      const LookupResult direct = service.lookup_ids({id});
      ASSERT_EQ(slice.size(), 1u);
      for (std::size_t d = 0; d < kDim; ++d) {
        EXPECT_EQ(slice.row(0)[d], direct.row(0)[d]);
      }
    }
  }
}

// The synthetic demo store underpins the RPC example and the daemon's
// --demo mode: its gate outcomes under DEFAULT thresholds are a contract,
// so pin them here rather than discovering drift in a smoke script.
TEST(DemoStore, DefaultGateAdmitsRoutineAndRejectsBotched) {
  EmbeddingStore store;
  DemoStoreConfig config;
  config.vocab = 600;  // smaller than the default: keep the suite fast
  config.dim = 32;
  add_demo_versions(store, config);
  EXPECT_EQ(store.live_version(), "v1");

  DeploymentGate gate;  // default thresholds — what the daemon ships with
  const GateReport bad = gate.try_promote(store, "v3-bad");
  EXPECT_EQ(bad.decision, GateDecision::kReject);
  EXPECT_FALSE(bad.promoted);
  EXPECT_EQ(store.live_version(), "v1");

  const GateReport good = gate.try_promote(store, "v2-good");
  EXPECT_EQ(good.decision, GateDecision::kAdmit);
  EXPECT_TRUE(good.promoted);
  EXPECT_EQ(store.live_version(), "v2-good");
}

}  // namespace
}  // namespace anchor::serve
