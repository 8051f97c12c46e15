#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "util/mutex.h"

namespace cagra {

namespace {

/// Pool identity of the current thread, set once in WorkerLoop. Lets
/// ParallelForSlotted hand workers their stable slot and foreign
/// threads (including workers of *other* pools) the extra caller slot.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local size_t tls_worker_index = 0;

/// Shared state of one ParallelFor batch. Chunks are claimed via an
/// atomic ticket by the caller and any worker that picks up a helper
/// task; the caller always drains the batch itself if no worker is
/// free, which is what makes nested ParallelFor deadlock-free.
struct BatchState {
  size_t begin = 0;
  size_t end = 0;
  size_t chunk = 1;
  size_t num_chunks = 0;
  const std::function<void(size_t, size_t)>* fn = nullptr;

  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  Mutex mutex;
  CondVar cv;

  /// Claims and runs chunks until the ticket runs out. `fn` is only
  /// dereferenced under a successful claim, which the caller's wait
  /// guarantees happens before ParallelFor returns.
  void Drain(size_t slot) {
    while (true) {
      const size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      const size_t lo = begin + c * chunk;
      const size_t hi = std::min(end, lo + chunk);
      for (size_t i = lo; i < hi; i++) (*fn)(slot, i);
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == num_chunks) {
        // Lock then notify: the waiter checks `done` under this mutex,
        // so the empty critical section orders the final increment
        // before the notify — no lost wakeup.
        MutexLock lock(mutex);
        cv.NotifyAll();
      }
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; i++) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (auto& t : threads_) t.join();
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  tls_pool = this;
  tls_worker_index = worker_index;
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && tasks_.empty()) cv_.Wait(mutex_);
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    // The task runs with no pool lock held: tasks may themselves call
    // Submit/ParallelFor (both CAGRA_EXCLUDES(mutex_)) without
    // self-deadlocking.
    task();
  }
}

void ThreadPool::ParallelForSlotted(
    size_t begin, size_t end, const std::function<void(size_t, size_t)>& fn,
    size_t max_threads) {
  if (begin >= end) return;
  const size_t total = end - begin;
  const size_t caller_slot =
      tls_pool == this ? tls_worker_index : threads_.size();

  // Over-decompose ~4x per thread for dynamic balance (per-query search
  // cost varies); width-1 and small loops run inline on the caller.
  const size_t width = Width(max_threads);
  const size_t num_chunks = std::min(total, width * 4);
  const size_t helpers = std::min(width, num_chunks) - 1;
  if (helpers == 0) {
    for (size_t i = begin; i < end; i++) fn(caller_slot, i);
    return;
  }

  auto state = std::make_shared<BatchState>();
  state->begin = begin;
  state->end = end;
  state->num_chunks = num_chunks;
  state->chunk = (total + num_chunks - 1) / num_chunks;
  state->fn = &fn;

  {
    MutexLock lock(mutex_);
    for (size_t h = 0; h < helpers; h++) {
      tasks_.push([state] { state->Drain(tls_worker_index); });
    }
  }
  cv_.NotifyAll();

  state->Drain(caller_slot);

  MutexLock lock(state->mutex);
  while (state->done.load(std::memory_order_acquire) != state->num_chunks) {
    state->cv.Wait(state->mutex);
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    tasks_.push(std::move(task));
  }
  cv_.NotifyOne();
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& fn,
                             size_t max_threads) {
  ParallelForSlotted(
      begin, end, [&fn](size_t, size_t i) { fn(i); }, max_threads);
}

ThreadPool& GlobalThreadPool() {
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

}  // namespace cagra
