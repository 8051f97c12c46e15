#ifndef CAGRA_UTIL_CANCEL_H_
#define CAGRA_UTIL_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace cagra {

/// Cooperative cancellation token: an atomic cancel flag plus an
/// optional steady-clock deadline. Search code checks Expired() at
/// iteration/shard/block boundaries and unwinds with whatever
/// best-effort results it has — nothing is preempted, nothing throws.
///
/// A deadline, once passed, latches the flag on the first Expired()
/// observation, so later checks are a single relaxed atomic load with
/// no clock read. Cancel() may be called from any thread; checks are
/// wait-free. The token is non-copyable (its identity is the shared
/// flag); pass it by pointer through SearchParams::cancel and keep it
/// alive for the duration of the call it governs. Detaching executors
/// (sharded search, which can abandon stalled shards) derive their own
/// token and never retain the caller's.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// A token with no deadline; expires only via Cancel().
  CancelToken() = default;

  /// A token that expires at `deadline` (or earlier via Cancel()).
  explicit CancelToken(Clock::time_point deadline)
      : deadline_(deadline), has_deadline_(true) {}

  /// Convenience: a token expiring `timeout` from now.
  template <typename Rep, typename Period>
  static CancelToken WithTimeout(
      std::chrono::duration<Rep, Period> timeout) {
    return CancelToken(Clock::now() +
                       std::chrono::duration_cast<Clock::duration>(timeout));
  }

  /// Requests cancellation. Idempotent, callable from any thread.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// True once the token is cancelled or its deadline has passed.
  /// Deadline expiry latches the flag so repeated checks stay one
  /// atomic load.
  bool Expired() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (has_deadline_ && Clock::now() >= deadline_) {
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  /// The manual flag alone (no clock read). Distinguishes an explicit
  /// Cancel() — which maps to kCancelled — from a deadline expiry
  /// (kDeadlineExceeded) only before the deadline latches the flag, so
  /// status mapping uses has_deadline() first.
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  bool has_deadline() const { return has_deadline_; }
  Clock::time_point deadline() const { return deadline_; }

 private:
  mutable std::atomic<bool> cancelled_{false};
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
};

/// Amortized expiry check for hot loops: consults the token only every
/// `stride`-th call (the clock read inside Expired() is the cost being
/// amortized; a null token costs one branch). Expiry is sticky — once
/// observed, every later call returns true without touching the token.
class CancelCheck {
 public:
  explicit CancelCheck(const CancelToken* token, uint32_t stride = 16)
      : token_(token), stride_(stride == 0 ? 1 : stride) {}

  /// True once the underlying token has been observed expired. The
  /// observation can lag the actual expiry by up to stride - 1 calls.
  bool Expired() {
    if (expired_) return true;
    if (token_ == nullptr) return false;
    if (++calls_ < stride_) return false;
    calls_ = 0;
    expired_ = token_->Expired();
    return expired_;
  }

  /// Unamortized check (still sticky and null-safe) for boundaries
  /// where one clock read is already cheap relative to the work.
  bool ExpiredNow() {
    if (expired_) return true;
    if (token_ == nullptr) return false;
    expired_ = token_->Expired();
    return expired_;
  }

 private:
  const CancelToken* token_;
  uint32_t stride_;
  uint32_t calls_ = 0;
  bool expired_ = false;
};

}  // namespace cagra

#endif  // CAGRA_UTIL_CANCEL_H_
