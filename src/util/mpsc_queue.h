#ifndef CAGRA_UTIL_MPSC_QUEUE_H_
#define CAGRA_UTIL_MPSC_QUEUE_H_

#include <chrono>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace cagra {

/// Bounded multi-producer queue with blocking push/pop, the hand-off
/// channel of sharded search (shard workers push finished shard ids,
/// the caller pops them until every shard is in or the deadline
/// abandons the rest) and of the serving scheduler's request intake.
/// The bound provides backpressure when the queued items own real
/// payloads — a producer that outruns the consumer blocks instead of
/// buffering without limit. (Sharded search queues plain shard ids into
/// preallocated result slots, so it sizes the queue to the shard count
/// and never blocks producers.)
///
/// Written for one consumer (Pop from a single thread at a time) but
/// safe as MPMC: all state is guarded by one mutex — declared to the
/// thread-safety analysis via CAGRA_GUARDED_BY, so any future path that
/// touches `items_`/`closed_` without `mutex_` fails to compile under
/// Clang — and there is no lock-free subtlety for TSan to distrust.
/// Throughput is bounded by the mutex, which is fine at its callers'
/// granularity (one item per finished shard or request, not per row).
///
/// The mutex + two-condvar protocol: `not_full_` wakes producers
/// (signalled on every pop and on Close), `not_empty_` wakes the
/// consumer (signalled on every push and on Close). Waits are explicit
/// loops over the guarded predicate — see CondVar for why predicates
/// must not be lambdas.
template <typename T>
class MpscBoundedQueue {
 public:
  /// Creates a queue holding at most `capacity` items (>= 1 enforced).
  explicit MpscBoundedQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  MpscBoundedQueue(const MpscBoundedQueue&) = delete;
  MpscBoundedQueue& operator=(const MpscBoundedQueue&) = delete;

  /// Blocks while the queue is full; returns false (dropping `value`)
  /// if the queue is closed before space frees up.
  bool Push(T value) CAGRA_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    while (!closed_ && items_.size() >= capacity_) not_full_.Wait(mutex_);
    if (closed_) return false;
    items_.push_back(std::move(value));
    not_empty_.NotifyOne();
    return true;
  }

  /// Non-blocking push; false when full or closed.
  bool TryPush(T value) CAGRA_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(value));
    not_empty_.NotifyOne();
    return true;
  }

  /// Blocks while the queue is empty; returns nullopt once the queue is
  /// closed *and* drained (items pushed before Close are still
  /// delivered).
  std::optional<T> Pop() CAGRA_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    while (!closed_ && items_.empty()) not_empty_.Wait(mutex_);
    return PopFrontLocked();
  }

  /// Non-blocking pop; nullopt when the queue is empty right now. The
  /// serving scheduler fills a micro-batch this way after its blocking
  /// Pop: it takes what is already queued and never waits for more.
  std::optional<T> TryPop() CAGRA_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return PopFrontLocked();
  }

  /// Pop with a deadline — sharded search's drain: block until an item
  /// arrives, the deadline passes, or the queue closes. Returns nullopt
  /// on timeout and on closed-and-drained alike.
  template <typename Clock, typename Duration>
  std::optional<T> PopUntil(
      const std::chrono::time_point<Clock, Duration>& deadline)
      CAGRA_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    while (!closed_ && items_.empty()) {
      if (not_empty_.WaitUntil(mutex_, deadline) == std::cv_status::timeout) {
        break;
      }
    }
    return PopFrontLocked();
  }

  /// Wakes every blocked producer (their pushes fail) and lets the
  /// consumer drain the remaining items before Pop reports nullopt.
  void Close() CAGRA_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    closed_ = true;
    not_full_.NotifyAll();
    not_empty_.NotifyAll();
  }

  size_t capacity() const { return capacity_; }

  size_t size() const CAGRA_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return items_.size();
  }

 private:
  /// Shared tail of every pop form: takes the front item (waking one
  /// producer) or reports empty.
  std::optional<T> PopFrontLocked() CAGRA_REQUIRES(mutex_) {
    if (items_.empty()) return std::nullopt;
    T out = std::move(items_.front());
    items_.pop_front();
    not_full_.NotifyOne();
    return out;
  }

  const size_t capacity_;
  mutable Mutex mutex_;
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<T> items_ CAGRA_GUARDED_BY(mutex_);
  bool closed_ CAGRA_GUARDED_BY(mutex_) = false;
};

}  // namespace cagra

#endif  // CAGRA_UTIL_MPSC_QUEUE_H_
