#include "util/thread_pool.hpp"

#include <pthread.h>

#include <atomic>
#include <cstdlib>

#include "util/check.hpp"

namespace anchor::util {

namespace {

thread_local bool t_on_worker = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = threads == 0 ? 1 : threads;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::on_worker_thread() { return t_on_worker; }

void ThreadPool::enqueue(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ANCHOR_CHECK_MSG(!stop_, "enqueue on a stopping ThreadPool");
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  t_on_worker = true;
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and fully drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  // Inline when there is nothing to spread the work over. Nested calls
  // from a worker thread are fine: the claim loop below never *waits* for
  // a helper to start, so a loop completes even when every other worker is
  // busy (its helpers then find an exhausted cursor and exit).
  if (n == 1 || size() <= 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  // Chunked claim loop. Workers and the caller all fetch_add the shared
  // cursor; the caller drains too, so completion never depends on a worker
  // being free. State is shared_ptr-owned: a helper that wakes up after the
  // loop already finished just sees an exhausted cursor and drops its ref.
  struct LoopState {
    std::atomic<std::size_t> next;
    std::size_t end = 0;
    std::size_t chunk = 1;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::atomic<std::size_t> done{0};
    std::size_t total = 0;
    std::mutex m;
    std::condition_variable cv;
    std::exception_ptr error;  // first throw from fn, guarded by m
  };
  auto state = std::make_shared<LoopState>();
  state->next.store(begin);
  state->end = end;
  // ~4 chunks per participant keeps the tail balanced without per-index
  // scheduling overhead.
  state->chunk = std::max<std::size_t>(1, n / ((size() + 1) * 4));
  state->total = n;
  state->fn = &fn;

  const auto drain = [](LoopState& s) {
    for (;;) {
      const std::size_t i = s.next.fetch_add(s.chunk);
      if (i >= s.end) return;
      const std::size_t hi = std::min(i + s.chunk, s.end);
      // A throw from fn must not escape here: on a worker it would hit
      // std::terminate, and unwinding the caller would free the state and
      // fn while helpers still run. Stash the first one and keep counting
      // chunks so the caller's join completes, then rethrows it.
      try {
        for (std::size_t j = i; j < hi; ++j) (*s.fn)(j);
      } catch (...) {
        std::lock_guard<std::mutex> lock(s.m);
        if (!s.error) s.error = std::current_exception();
      }
      if (s.done.fetch_add(hi - i) + (hi - i) == s.total) {
        std::lock_guard<std::mutex> lock(s.m);
        s.cv.notify_all();
      }
    }
  };

  // The caller is one participant; enqueue up to size() more, but never
  // more helpers than there are chunks left after the caller's first claim.
  const std::size_t chunks = (n + state->chunk - 1) / state->chunk;
  const std::size_t helpers = std::min(size(), chunks - 1);
  for (std::size_t h = 0; h < helpers; ++h) {
    enqueue([state, drain] { drain(*state); });
  }
  drain(*state);
  std::unique_lock<std::mutex> lock(state->m);
  state->cv.wait(lock, [&] { return state->done.load() == state->total; });
  if (state->error) std::rethrow_exception(state->error);
}

namespace {

std::size_t default_threads() {
  if (const char* env = std::getenv("ANCHOR_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;
std::size_t g_pool_threads = 0;  // last set_global_pool_threads; 0 = default

// fork() copies only the calling thread, so a child inherits a pool whose
// workers do not exist and whose queued work would never run. The pool
// lock is held across fork() (no rebuild is mid-flight), and the child
// abandons the inherited pool — its worker handles cannot be joined — so
// its next global_pool() call spawns fresh workers (same sizing). Abandoned pools stay
// reachable from a never-freed list, so leak checkers do not flag them.
void atfork_prepare() { g_pool_mu.lock(); }
void atfork_parent() { g_pool_mu.unlock(); }
void atfork_child() {
  static auto* abandoned = new std::vector<ThreadPool*>();
  if (g_pool) abandoned->push_back(g_pool.release());
  g_pool_mu.unlock();
}

/// Builds a pool of `n` workers (0 = default sizing); call with g_pool_mu
/// held. The first call registers the fork handlers.
std::unique_ptr<ThreadPool> make_pool(std::size_t n) {
  static const int registered =
      pthread_atfork(atfork_prepare, atfork_parent, atfork_child);
  ANCHOR_CHECK_MSG(registered == 0, "pthread_atfork failed");
  return std::make_unique<ThreadPool>(n == 0 ? default_threads() : n);
}

}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (!g_pool) g_pool = make_pool(g_pool_threads);
  return *g_pool;
}

std::size_t global_pool_threads() { return global_pool().size(); }

void set_global_pool_threads(std::size_t n) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_pool_threads = n;
  g_pool = make_pool(n);
}

}  // namespace anchor::util
