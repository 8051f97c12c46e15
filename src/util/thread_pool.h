#ifndef CAGRA_UTIL_THREAD_POOL_H_
#define CAGRA_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace cagra {

/// Fixed-size worker pool with a ParallelFor primitive. Graph
/// construction (NN-descent, CAGRA optimization) is expressed as
/// independent per-node work, matching the paper's claim that the
/// optimization "allows for many computations to be executed in parallel
/// without complex dependencies" (§III-B2); batch search fans queries
/// out the same way (one "CTA" per query on the host).
///
/// ParallelFor is re-entrant: the calling thread claims chunks itself
/// while workers help, so nested calls (sharded search -> per-shard
/// search -> per-query loop) cannot deadlock even on a single-worker
/// pool — the caller alone drains its own batch in the worst case.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means hardware concurrency.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Number of distinct worker-slot values ParallelForSlotted can pass:
  /// one per worker plus one for the calling (non-worker) thread.
  size_t num_slots() const { return threads_.size() + 1; }

  /// Threads a ParallelFor capped at `max_threads` may occupy, the
  /// calling thread included: 0 = the whole pool (num_slots()), larger
  /// caps clamp to num_slots().
  size_t Width(size_t max_threads) const {
    return max_threads == 0 ? num_slots() : std::min(max_threads, num_slots());
  }

  /// Runs fn(i) for i in [begin, end), partitioned into contiguous chunks
  /// across the calling thread and at most Width(max_threads) - 1 pool
  /// workers: max_threads = 1 runs every iteration on the caller, 0 uses
  /// the whole pool. Blocks until all iterations complete. fn must be
  /// safe to invoke concurrently for distinct i.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& fn,
                   size_t max_threads = 0) CAGRA_EXCLUDES(mutex_);

  /// ParallelFor variant handing fn the executing thread's stable slot
  /// in [0, num_slots()): pool workers get their worker index, any other
  /// calling thread gets num_threads(). Two concurrent invocations of fn
  /// never share a slot, so callers can keep per-slot scratch state
  /// (VisitedSet, search buffers) without locking.
  void ParallelForSlotted(size_t begin, size_t end,
                          const std::function<void(size_t slot, size_t i)>& fn,
                          size_t max_threads = 0) CAGRA_EXCLUDES(mutex_);

  /// Enqueues a fire-and-forget task for the workers; returns
  /// immediately. Unlike ParallelFor the caller does not participate and
  /// nothing waits for completion — sharded search submits its shard
  /// runners this way and tracks completion itself (each finished shard
  /// pushes its id into an MpscBoundedQueue). Tasks may themselves
  /// call ParallelFor (the re-entrant caller-drains-its-own-batch rule
  /// still applies), but a submitted task must never block on another
  /// submitted task that could be queued behind it.
  void Submit(std::function<void()> task) CAGRA_EXCLUDES(mutex_);

 private:
  void WorkerLoop(size_t worker_index) CAGRA_EXCLUDES(mutex_);

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> tasks_ CAGRA_GUARDED_BY(mutex_);
  Mutex mutex_;
  CondVar cv_;
  bool stop_ CAGRA_GUARDED_BY(mutex_) = false;
};

/// Returns a process-wide pool sized to the hardware.
ThreadPool& GlobalThreadPool();

}  // namespace cagra

#endif  // CAGRA_UTIL_THREAD_POOL_H_
