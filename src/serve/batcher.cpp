#include "serve/batcher.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>
#include <thread>
#include <utility>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace anchor::serve {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

inline std::int64_t now_ns() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

/// One in kClockSample fast-path enqueues reads the clock (power of two).
constexpr std::uint64_t kClockSample = 16;

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

AsyncLookupService::AsyncLookupService(const LookupService& service,
                                       BatcherConfig config,
                                       std::shared_ptr<ServeStats> stats)
    : service_(service),
      config_(config),
      stats_(stats ? std::move(stats) : std::make_shared<ServeStats>()),
      holds_(std::make_shared<HoldFreelist>()) {
  if (config_.max_batch_size == 0) config_.max_batch_size = 1;
  // The ring must fit at least two full batches so a combiner never
  // deadlocks producers of the batch after the one it is executing.
  const std::size_t cap = round_up_pow2(
      std::max(config_.ring_capacity, 2 * config_.max_batch_size));
  slots_ = std::vector<Slot>(cap);
  for (std::size_t p = 0; p < cap; ++p) {
    slots_[p].seq.store(p, std::memory_order_relaxed);
  }
  ring_mask_ = cap - 1;
}

AsyncLookupService::~AsyncLookupService() {
  // Fast-path contract: every SliceFuture was consumed by now, so the
  // ring is quiescent; only pool tasks may still be publishing stats.
  // Outstanding ResultSlices are fine — their buffers are owned by the
  // shared freelist, not by this object.
  std::unique_lock<std::mutex> lock(mu_);
  inflight_cv_.wait(lock, [this] { return inflight_ == 0; });
}

bool AsyncLookupService::use_pool() const {
  switch (config_.exec) {
    case BatcherConfig::Exec::kPool:
      return true;
    case BatcherConfig::Exec::kInline:
      return false;
    case BatcherConfig::Exec::kAuto:
      break;
  }
  return util::global_pool_threads() > 1;
}

// ---- fast path ---------------------------------------------------------

std::vector<AsyncLookupService::Mailbox*>& AsyncLookupService::box_cache() {
  thread_local struct Cache {
    std::vector<Mailbox*> free;
    ~Cache() {
      for (Mailbox* box : free) delete box;
    }
  } cache;
  return cache.free;
}

AsyncLookupService::Mailbox* AsyncLookupService::alloc_box() {
  std::vector<Mailbox*>& cache = box_cache();
  if (!cache.empty()) {
    Mailbox* box = cache.back();
    cache.pop_back();
    return box;
  }
  return new Mailbox();
}

void AsyncLookupService::free_box(Mailbox* box) {
  // May run on a different thread than alloc_box (a moved future); each
  // thread recycles into its own cache, bounded so a consume-heavy
  // thread does not hoard memory.
  box->state.store(0, std::memory_order_relaxed);
  box->hold = nullptr;
  std::vector<Mailbox*>& cache = box_cache();
  if (cache.size() < 4096) {
    cache.push_back(box);
  } else {
    delete box;
  }
}

AsyncLookupService::SliceFuture AsyncLookupService::lookup_id(
    std::size_t id) {
  Mailbox* box = alloc_box();
  // Claim a position only when its slot is actually free. The claim is a
  // CAS, not a blind fetch_add, so a producer waiting for ring space
  // holds NOTHING — combiners always make progress past it. Slots are
  // freed at claim time (combine_once copies the request out), so a full
  // ring only means combining is behind, and helping combine clears it.
  std::uint64_t pos;
  std::uint32_t spins = 0;
  for (;;) {
    pos = head_.load(std::memory_order_relaxed);
    Slot& probe = slots_[pos & ring_mask_];
    if (probe.seq.load(std::memory_order_acquire) != pos) {
      // Either a racing producer just claimed `pos` (head moved; retry
      // immediately) or the ring is full of unclaimed requests.
      if (head_.load(std::memory_order_relaxed) != pos) continue;
      if (++spins > 64) {
        combine_once();
        std::this_thread::yield();
        spins = 0;
      } else {
        cpu_relax();
      }
      continue;
    }
    if (head_.compare_exchange_weak(pos, pos + 1,
                                    std::memory_order_relaxed)) {
      break;
    }
  }
  Slot& slot = slots_[pos & ring_mask_];
  slot.key = id;
  // The latency clock is sampled: one timestamp per kClockSample requests
  // keeps steady_clock reads off most enqueues while still giving
  // record_batch a client-observed queue age.
  const std::int64_t enq_ns = (pos & (kClockSample - 1)) == 0 ? now_ns() : 0;
  slot.enqueued_ns = enq_ns;
  slot.box = box;
  slot.seq.store(pos + 1, std::memory_order_release);

  // Throughput trigger: the producer that fills a batch combines it
  // inline — under pipelined load batches execute with no thread handoff
  // at all. try-lock inside combine_once keeps producers from queueing up
  // behind an active combiner.
  if (pos + 1 - tail_.load(std::memory_order_relaxed) >=
      config_.max_batch_size) {
    combine_once();
  }
  // The waiter's deadline is relative to enqueue; unsampled requests pin
  // it lazily in await_and_consume.
  return SliceFuture(
      this, box,
      enq_ns == 0
          ? 0
          : enq_ns + static_cast<std::int64_t>(config_.max_wait_us) * 1000);
}

bool AsyncLookupService::combine_once() {
  std::unique_lock<std::mutex> lock(combine_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return false;
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  if (head == tail) return false;

  // Claim the contiguous prefix of fully WRITTEN slots: a producer
  // preempted between its CAS and its seq publish ends the batch early
  // rather than being waited on — the combiner never blocks on anyone.
  // Each claimed slot is copied out and freed for its next lap on the
  // spot, so result consumption never gates ring reuse.
  thread_local std::vector<std::size_t> keys;
  thread_local std::vector<Mailbox*> boxes;
  keys.clear();
  boxes.clear();
  std::int64_t oldest_ns = 0;
  std::size_t take = 0;
  while (take < config_.max_batch_size && tail + take < head) {
    Slot& slot = slots_[(tail + take) & ring_mask_];
    if (slot.seq.load(std::memory_order_acquire) != tail + take + 1) break;
    keys.push_back(slot.key);
    boxes.push_back(slot.box);
    if (slot.enqueued_ns != 0 &&
        (oldest_ns == 0 || slot.enqueued_ns < oldest_ns)) {
      oldest_ns = slot.enqueued_ns;
    }
    slot.seq.store(tail + take + slots_.size(), std::memory_order_release);
    ++take;
  }
  if (take == 0) return false;
  tail_.store(tail + take, std::memory_order_release);
  lock.unlock();  // claim done; execution needs no combiner exclusivity

  if (use_pool()) {
    // Count the task in inflight_ so the destructor waits for it — the
    // task touches `this` (stats_, holds_) after publishing results.
    {
      std::lock_guard<std::mutex> count_lock(mu_);
      ++inflight_;
    }
    auto task = std::make_shared<std::pair<std::vector<std::size_t>,
                                           std::vector<Mailbox*>>>(keys,
                                                                   boxes);
    util::global_pool().submit([this, oldest_ns, task] {
      execute_fast_batch(task->first, task->second, oldest_ns);
      // Notify under the lock: once the destructor can observe 0 it may
      // destroy the condition variable.
      std::lock_guard<std::mutex> count_lock(mu_);
      --inflight_;
      inflight_cv_.notify_all();
    });
  } else {
    // By reference: the thread_local scratch stays owned here, so the
    // inline steady state really is allocation-free.
    execute_fast_batch(keys, boxes, oldest_ns);
  }
  return true;
}

void AsyncLookupService::execute_fast_batch(
    const std::vector<std::size_t>& keys, const std::vector<Mailbox*>& boxes,
    std::int64_t oldest_ns) {
  BatchHold* hold = acquire_hold();
  hold->error = nullptr;
  try {
    service_.lookup_ids_into(keys, &hold->result);
  } catch (...) {
    hold->error = std::current_exception();
  }
  hold->refs.store(static_cast<std::uint32_t>(boxes.size()),
                   std::memory_order_relaxed);
  if (!hold->error) {
    // Aliasing shared_ptr: slices share `hold->result` and the deleter
    // recycles the hold once the last slice is gone. Capturing the
    // freelist by shared_ptr keeps the buffer memory valid even if the
    // service dies first.
    hold->self = std::shared_ptr<const LookupResult>(
        &hold->result, [fl = holds_, hold](const LookupResult*) {
          std::lock_guard<std::mutex> lock(fl->mu);
          fl->free.push_back(hold);
        });
  }
  // Stats BEFORE releasing the waiters: a caller whose get() returned
  // must find its own keys already counted in a subsequent stats read
  // (the RPC test observes exactly this ordering over the wire).
  if (!hold->error) {
    if (oldest_ns == 0) {
      // No sampled timestamp in this batch — count it without polluting
      // the latency ring with a fake 0 µs entry.
      stats_->record_batch_unsampled(boxes.size());
      if (config_.windowed != nullptr) {
        config_.windowed->record_unsampled(boxes.size(), 0);
      }
    } else {
      const double latency_us =
          static_cast<double>(now_ns() - oldest_ns) / 1000.0;
      stats_->record_batch(boxes.size(), latency_us);
      if (config_.windowed != nullptr) {
        config_.windowed->record_many(latency_us, boxes.size(), 0);
      }
    }
  }
  const std::uint32_t state = hold->error ? 2 : 1;
  for (std::size_t k = 0; k < boxes.size(); ++k) {
    Mailbox* box = boxes[k];
    box->offset = static_cast<std::uint32_t>(k);
    box->hold = hold;
    box->state.store(state, std::memory_order_release);
    // No notify: waiters poll with bounded sleeps (see await_and_consume),
    // so completion costs no syscall per request.
  }
}

void AsyncLookupService::await_and_consume(Mailbox* box,
                                           std::int64_t deadline_ns,
                                           ResultSlice* out) {
  std::uint32_t state = box->state.load(std::memory_order_acquire);
  if (state == 0) {
    // Phase 1: optimistic spin — under pipelined load the combiner is at
    // most one batch away.
    for (int i = 0; i < 2048 && state == 0; ++i) {
      cpu_relax();
      state = box->state.load(std::memory_order_acquire);
    }
    // Phase 2: honor the latency policy. A FULL pending batch is always
    // combined immediately (no latency tradeoff — waiting cannot make it
    // fuller); an underfull one waits for the deadline. Yields come
    // before sleeps: on a busy host another producer or combiner runs on
    // the yielded slice, and nanosleep's timer slack (tens of µs) is paid
    // only once traffic is genuinely idle.
    if (state == 0 && deadline_ns == 0) {
      deadline_ns =
          now_ns() + static_cast<std::int64_t>(config_.max_wait_us) * 1000;
    }
    std::uint64_t last_pending = 0;
    std::uint32_t stable = 0;
    while (state == 0) {
      const std::uint64_t pending =
          head_.load(std::memory_order_relaxed) -
          tail_.load(std::memory_order_relaxed);
      if (pending >= config_.max_batch_size) {
        // A full batch can only be executed, never improved by waiting.
        combine_once();
        stable = 0;
      } else if (pending > 0 &&
                 (now_ns() >= deadline_ns ||
                  (pending == last_pending && ++stable >= 2))) {
        // Adaptive early flush: waiting is only useful while requests
        // are still ARRIVING to fill the batch. If pending stops growing
        // across two observation spins, every producer is idle or itself
        // blocked waiting — in the worst case all clients block with an
        // underfull batch and nobody executes until max_wait expires,
        // stalling the whole pipeline. Flush on quiescence instead;
        // max_wait stays the upper bound for trickling arrivals.
        if (!combine_once()) {
          std::this_thread::sleep_for(std::chrono::microseconds(2));
        }
        stable = 0;
      } else if (pending == 0) {
        // Our batch is claimed and executing on another thread (or a pool
        // task). Sleep LONG: frequent micro-sleeps would wake us with
        // scheduler preemption credit and starve the very executor we
        // are waiting for (it only needs a few µs of CPU).
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        stable = 0;
      } else {
        // Underfull and growing: give arrivals a short observation spin
        // before re-checking (no syscall while traffic is live).
        last_pending = pending;
        for (int i = 0; i < 256; ++i) cpu_relax();
      }
      state = box->state.load(std::memory_order_acquire);
    }
  }

  BatchHold* hold = box->hold;
  std::exception_ptr error = state == 2 ? hold->error : nullptr;
  if (out != nullptr && state == 1) {
    *out = ResultSlice(hold->self, box->offset, 1);
  }
  // Drop the batch's consumer reference; the last consumer releases the
  // hold (directly to the freelist on error — no slices exist then).
  if (hold->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (state == 2) {
      std::lock_guard<std::mutex> lock(holds_->mu);
      holds_->free.push_back(hold);
    } else {
      hold->self.reset();
    }
  }
  free_box(box);
  if (out != nullptr && error) std::rethrow_exception(error);
}

AsyncLookupService::BatchHold* AsyncLookupService::acquire_hold() {
  std::lock_guard<std::mutex> lock(holds_->mu);
  if (!holds_->free.empty()) {
    BatchHold* hold = holds_->free.back();
    holds_->free.pop_back();
    return hold;
  }
  holds_->all.push_back(std::make_unique<BatchHold>());
  return holds_->all.back().get();
}

bool AsyncLookupService::SliceFuture::ready() const {
  return owner_ != nullptr &&
         box_->state.load(std::memory_order_acquire) != 0;
}

ResultSlice AsyncLookupService::SliceFuture::get() {
  ANCHOR_CHECK_MSG(owner_ != nullptr, "SliceFuture::get on consumed future");
  AsyncLookupService* owner = owner_;
  owner_ = nullptr;
  ResultSlice slice;
  owner->await_and_consume(box_, deadline_ns_, &slice);
  return slice;
}

void AsyncLookupService::SliceFuture::consume_if_pending() {
  if (owner_ == nullptr) return;
  AsyncLookupService* owner = owner_;
  owner_ = nullptr;
  owner->await_and_consume(box_, deadline_ns_, nullptr);
}

// ---- general path ------------------------------------------------------

template <typename Lookup>
std::future<ResultSlice> AsyncLookupService::run_request(
    std::size_t keys, const obs::TraceContext& trace, Lookup&& lookup) {
  const std::uint64_t called_ns = obs::Tracer::now_ns();
  std::promise<ResultSlice> promise;
  std::future<ResultSlice> fut = promise.get_future();
  const std::uint64_t exec_start_ns =
      trace.sampled() ? obs::Tracer::now_ns() : called_ns;

  std::shared_ptr<LookupResult> result;
  std::exception_ptr error;
  try {
    // The thread-local Scope lets LookupService (whose API predates
    // tracing) attribute its dequantize span to this request's trace.
    std::optional<obs::Tracer::Scope> scope;
    if (trace.sampled()) scope.emplace(trace);
    if (keys > 0) {
      result = std::make_shared<LookupResult>();
      lookup(result.get());
    }
  } catch (...) {
    error = std::current_exception();
  }
  const std::uint64_t exec_end_ns = obs::Tracer::now_ns();

  if (!error) {
    const double latency_us =
        static_cast<double>(exec_end_ns - called_ns) / 1000.0;
    stats_->record_batch(keys, latency_us);
    if (config_.windowed != nullptr) {
      config_.windowed->record_many(latency_us, keys, 0);
    }
  }
  if (trace.sampled()) {
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.record(trace, obs::TraceStage::kBatchQueue, called_ns,
                  exec_start_ns);
    tracer.record(trace, obs::TraceStage::kBatchExec, exec_start_ns,
                  exec_end_ns);
  }

  if (error) {
    promise.set_exception(error);
  } else {
    promise.set_value(ResultSlice(std::move(result), 0, keys));
  }
  return fut;
}

std::future<ResultSlice> AsyncLookupService::lookup_ids(
    std::vector<std::size_t> ids) {
  return lookup_ids(std::move(ids), obs::TraceContext{});
}

std::future<ResultSlice> AsyncLookupService::lookup_word(std::string word) {
  return lookup_words({std::move(word)}, obs::TraceContext{});
}

std::future<ResultSlice> AsyncLookupService::lookup_words(
    std::vector<std::string> words) {
  return lookup_words(std::move(words), obs::TraceContext{});
}

std::future<ResultSlice> AsyncLookupService::lookup_ids(
    std::vector<std::size_t> ids, const obs::TraceContext& trace) {
  return run_request(ids.size(), trace, [&](LookupResult* out) {
    service_.lookup_ids_into(ids, out);
  });
}

std::future<ResultSlice> AsyncLookupService::lookup_words(
    std::vector<std::string> words, const obs::TraceContext& trace) {
  return run_request(words.size(), trace, [&](LookupResult* out) {
    service_.lookup_words_into(words, out);
  });
}

std::size_t AsyncLookupService::pending() const {
  // Tail first: head only ever catches up to a later tail, so this order
  // keeps the difference non-negative under concurrent combining (the
  // reverse order could observe tail > the stale head and wrap).
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  return head > tail ? static_cast<std::size_t>(head - tail) : 0;
}

}  // namespace anchor::serve
