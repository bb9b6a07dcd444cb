// Fixed-size worker pool for the synthesis engine's embarrassingly parallel
// stages (per-subset candidate pricing, bench sweeps).
//
// Design constraints, in order:
//   1. DETERMINISM. Parallel users of the pool must produce bit-identical
//      results to a serial run. The pool therefore never reorders *results*:
//      parallel_map_ordered() evaluates f(0..n-1) concurrently but hands the
//      results back in index order, so any fold over them is the same fold
//      the serial loop performs.
//   2. Cooperative cancellation. Tasks receive no kill signal; they are
//      expected to poll a support::Deadline (whose atomic latch is safe to
//      share across workers) and return early. The pool only guarantees that
//      every submitted task runs to completion before the destructor joins.
//   3. No dependency surface. Plain std::thread + mutex/condvar; no atomics
//      tricks beyond a stop flag, no lock-free queue. A task is a chunk of
//      subset pricings or a whole cluster synthesis, so a queue round trip
//      is small beside it. Starting a pool and waking its workers is not
//      free, though, so callers fan out only work worth sharing: the
//      candidate generator answers pricing-cache hits on the calling
//      thread and starts its pool only for misses.
//
// Observability (docs/observability.md): submit() samples the queue depth
// into the thread_pool.queue_depth gauge, and each executed task gets a
// "task" span plus a thread_pool.task.us latency histogram sample -- all
// gated on tracing_enabled()/timing_enabled(), so an uninstrumented run
// reads no clock and takes no extra locks.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/metrics.hpp"
#include "support/obs_context.hpp"
#include "support/trace.hpp"

namespace cdcs::support {

class ThreadPool {
 public:
  /// Spawns `workers` threads (at least 1). The pool is fixed-size for its
  /// whole lifetime; sizing policy (hardware_concurrency, --threads) is the
  /// caller's job via resolve_thread_count().
  explicit ThreadPool(std::size_t workers)
      : queue_depth_(
            MetricsRegistry::global().gauge("thread_pool.queue_depth")),
        task_us_(MetricsRegistry::global().histogram("thread_pool.task.us")) {
    if (workers == 0) workers = 1;
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  std::size_t size() const { return threads_.size(); }

  /// Enqueues a task; the future carries its result (or exception).
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> result = task->get_future();
    std::size_t depth;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Carry the submitter's observability scope onto the worker so the
      // task's spans/counters stay attributed to the scope that fanned the
      // work out. A null handle install/restore is two shared_ptr moves --
      // scheduling and results are unchanged.
      queue_.emplace([task, scope = current_obs_scope()] {
        ObsScopeGuard scope_guard(std::move(scope));
        (*task)();
      });
      depth = queue_.size();
    }
    // High-water mark of pending (not yet dequeued) tasks. One relaxed
    // atomic; never observed by the tasks themselves.
    queue_depth_.set_max(static_cast<double>(depth));
    cv_.notify_one();
    return result;
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ and drained
        job = std::move(queue_.front());
        queue_.pop();
      }
      {
        ScopedTimer span("task", "thread_pool", &task_us_);
        job();
      }
    }
  }

  Gauge& queue_depth_;    ///< registry-owned; see class comment
  Histogram& task_us_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stop_{false};
  std::vector<std::thread> threads_;
};

/// Resolves a user-facing thread-count knob: n >= 1 is taken literally,
/// n <= 0 means "all hardware threads" (never less than 1).
inline std::size_t resolve_thread_count(int n) {
  if (n > 0) return static_cast<std::size_t>(n);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Deterministic ordered map: computes f(i) for i in [0, n) and returns the
/// results IN INDEX ORDER. With a null/single-thread pool the calls happen
/// inline (zero overhead, and exactly the serial loop); otherwise each call
/// is a pool task and the caller blocks on the futures in order, so the
/// reduction order downstream is identical either way. Exceptions from f
/// propagate to the caller (rethrown from the first failing index).
///
/// `submit_order`, when non-empty, is a permutation of [0, n) giving the
/// order in which the tasks are queued -- e.g. longest first, so the pool
/// does not idle at the end behind a long task queued last. It changes
/// only scheduling: the results still come back in index order.
template <typename F>
auto parallel_map_ordered(ThreadPool* pool, std::size_t n, F&& f,
                          std::span<const std::size_t> submit_order = {})
    -> std::vector<std::invoke_result_t<F, std::size_t>> {
  using R = std::invoke_result_t<F, std::size_t>;
  std::vector<R> out;
  out.reserve(n);
  if (pool == nullptr || pool->size() <= 1) {
    for (std::size_t i = 0; i < n; ++i) out.push_back(f(i));
    return out;
  }
  std::vector<std::future<R>> futures(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = submit_order.empty() ? k : submit_order[k];
    futures[i] = pool->submit([&f, i] { return f(i); });
  }
  for (std::future<R>& fut : futures) out.push_back(fut.get());
  return out;
}

}  // namespace cdcs::support
