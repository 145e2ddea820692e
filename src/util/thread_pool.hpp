// Shared worker pool for batch-granularity parallelism.
//
// The library's hot loops (core/measures' per-query kNN scoring, row
// normalization, gate evaluation) parallelize over *independent* work items
// only: every item writes its own output slot and reductions happen on the
// calling thread in a fixed order, so results are bit-for-bit identical at
// any thread count — the same determinism discipline util/rng enforces for
// randomness. parallel_for uses a claim-by-atomic chunk loop that the caller
// drains too, so a saturated (or empty) pool can never deadlock a loop.
//
// One process-wide pool (global_pool) is shared by all measure computations;
// size it with ANCHOR_THREADS (default: hardware concurrency). Benches and
// tests may rebuild it via set_global_pool_threads to sweep thread counts.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace anchor::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Runs fn(i) for every i in [begin, end), spread over the workers and the
  /// calling thread. Blocks until every index has run. Iterations must be
  /// independent (no iteration may read another's output); under that
  /// contract results are deterministic at any pool size. Safe to call from
  /// inside a worker thread: the caller claims chunks itself and never
  /// waits on a helper that has not started, so a nested loop completes
  /// even with every worker busy. If fn throws, the throwing chunk's
  /// remaining iterations are skipped but all other chunks still run
  /// (later throws are swallowed), and the first exception is rethrown on
  /// the calling thread once the loop has fully quiesced.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Schedules `fn` on a worker and returns its future. Used to overlap
  /// coarse independent computations (e.g. the gate's EIS vs kNN measures).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    enqueue([task] { (*task)(); });
    return fut;
  }

  /// True when the calling thread is one of this process's pool workers.
  static bool on_worker_thread();

 private:
  void enqueue(std::function<void()> job);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// The process-wide pool. First use constructs it with ANCHOR_THREADS
/// workers when the variable is set and positive, else hardware concurrency.
/// Fork-safe: a fork()ed child's first use builds a fresh pool of the same
/// size instead of queuing onto the parent's (absent) workers.
ThreadPool& global_pool();

/// Number of workers in the global pool (constructing it on first use).
std::size_t global_pool_threads();

/// Rebuilds the global pool with `n` workers (0 restores the default
/// sizing). For benches and tests sweeping thread counts only — callers
/// must ensure no other thread is using the pool during the swap.
void set_global_pool_threads(std::size_t n);

}  // namespace anchor::util
