// Work-stealing thread pool for fanning independent batches of work out
// across std::thread workers.  Lives in support/ (not exp/) because both
// the experiment runner AND the graph-construction layer parallelize over
// it; exp/thread_pool.hpp remains as a thin forwarding header.
//
// The pool is batch-oriented: run() seeds every task index into per-worker
// deques round-robin, workers pop from the back of their own deque and steal
// from the front of a victim's when theirs drains.  Tasks never enqueue new
// tasks, so a worker that finds every deque empty can exit — no condition
// variables or shutdown protocol needed.  drain() is the pull-mode
// alternative for work that arrives while the pool runs: the caller's task
// source decides when each worker retires.  Determinism of experiment
// results is the runner's job (each task writes to its own result slot and
// seeds its own Rng); the pool only promises that every index in
// [0, task_count) runs exactly once.  run() keeps no state between calls,
// so nested use (a task that itself runs a pool) is safe — it merely
// oversubscribes threads.
#ifndef GEOGOSSIP_SUPPORT_THREAD_POOL_HPP
#define GEOGOSSIP_SUPPORT_THREAD_POOL_HPP

#include <algorithm>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "support/check.hpp"

namespace geogossip {

class ThreadPool {
 public:
  /// threads == 0 selects the hardware concurrency.
  explicit ThreadPool(unsigned threads = 0) noexcept
      : threads_(threads == 0 ? hardware_threads() : threads) {}

  unsigned thread_count() const noexcept { return threads_; }

  static unsigned hardware_threads() noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

  /// Runs body(i) exactly once for every i in [0, task_count) and blocks
  /// until all tasks finish.  With an effective single worker everything
  /// runs inline on the caller.  The first exception thrown by any task is
  /// rethrown after the batch drains; the remaining tasks still run.
  void run(std::size_t task_count,
           const std::function<void(std::size_t)>& body) const {
    GG_CHECK_ARG(static_cast<bool>(body), "ThreadPool::run: body required");
    if (task_count == 0) return;
    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(threads_, task_count));
    if (workers <= 1) {
      // Same exception contract as the threaded path: the batch drains,
      // the first failure rethrows at the end.
      std::exception_ptr first_error;
      for (std::size_t i = 0; i < task_count; ++i) {
        try {
          body(i);
        } catch (...) {
          if (!first_error) first_error = std::current_exception();
        }
      }
      if (first_error) std::rethrow_exception(first_error);
      return;
    }

    struct Queue {
      std::mutex mu;
      std::deque<std::size_t> tasks;
    };
    std::vector<Queue> queues(workers);
    // Round-robin seeding spreads neighbouring sweep cells (often similar
    // cost) across workers, so stealing is the exception, not the rule.
    for (std::size_t i = 0; i < task_count; ++i) {
      queues[i % workers].tasks.push_back(i);
    }

    std::mutex error_mu;
    std::exception_ptr first_error;

    const auto worker = [&](unsigned self) {
      for (;;) {
        std::size_t task = 0;
        bool found = false;
        {
          std::lock_guard<std::mutex> lock(queues[self].mu);
          if (!queues[self].tasks.empty()) {
            task = queues[self].tasks.back();
            queues[self].tasks.pop_back();
            found = true;
          }
        }
        for (unsigned offset = 1; offset < workers && !found; ++offset) {
          Queue& victim = queues[(self + offset) % workers];
          std::lock_guard<std::mutex> lock(victim.mu);
          if (!victim.tasks.empty()) {
            task = victim.tasks.front();
            victim.tasks.pop_front();
            found = true;
          }
        }
        if (!found) return;
        try {
          body(task);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
      }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned t = 1; t < workers; ++t) pool.emplace_back(worker, t);
    worker(0);
    for (auto& thread : pool) thread.join();
    if (first_error) std::rethrow_exception(first_error);
  }

  /// Pull mode, for work that arrives while the pool runs: every worker
  /// (the caller is one) calls next() and runs the task it returns, until
  /// next() returns an empty task, which retires that worker.  next()
  /// must be thread-safe and may block — that is how a long-lived pool
  /// waits for more work.  Blocks until every worker has retired; the
  /// first exception a task threw is then rethrown.
  void drain(const std::function<std::function<void()>()>& next) const {
    GG_CHECK_ARG(static_cast<bool>(next), "ThreadPool::drain: next required");
    std::mutex error_mu;
    std::exception_ptr first_error;
    const auto note_error = [&] {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!first_error) first_error = std::current_exception();
    };
    const auto worker = [&] {
      for (;;) {
        std::function<void()> task;
        try {
          task = next();
        } catch (...) {
          note_error();  // a failing source retires its caller
          return;
        }
        if (!task) return;
        try {
          task();
        } catch (...) {
          note_error();
        }
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(threads_ - 1);
    for (unsigned t = 1; t < threads_; ++t) pool.emplace_back(worker);
    worker();
    for (auto& thread : pool) thread.join();
    if (first_error) std::rethrow_exception(first_error);
  }

 private:
  unsigned threads_;
};

/// Splits [0, count) into contiguous chunks and runs body(begin, end) for
/// each, on `pool` when one is supplied (nullptr or a single-thread pool
/// runs body(0, count) inline — the serial fallback).  Chunks are sized at
/// ~8 per worker so stealing can rebalance uneven ranges without paying a
/// task dispatch per index.  Each chunk touches a disjoint index range, so
/// as long as `body` writes only to slots derived from its own indices the
/// result is bit-identical at any worker or chunk count.
template <typename Body>
void parallel_ranges(const ThreadPool* pool, std::size_t count,
                     const Body& body) {
  if (count == 0) return;
  const unsigned workers =
      pool == nullptr
          ? 1u
          : static_cast<unsigned>(
                std::min<std::size_t>(pool->thread_count(), count));
  if (workers <= 1) {
    body(std::size_t{0}, count);
    return;
  }
  const std::size_t chunks =
      std::min<std::size_t>(count, std::size_t{workers} * 8);
  const std::size_t step = (count + chunks - 1) / chunks;
  pool->run(chunks, [&](std::size_t chunk) {
    const std::size_t begin = chunk * step;
    const std::size_t end = std::min(count, begin + step);
    if (begin < end) body(begin, end);
  });
}

}  // namespace geogossip

#endif  // GEOGOSSIP_SUPPORT_THREAD_POOL_HPP
