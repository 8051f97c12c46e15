#ifndef CAGRA_TESTS_BLOCKING_SEARCHER_H_
#define CAGRA_TESTS_BLOCKING_SEARCHER_H_

#include <condition_variable>
#include <mutex>

#include "core/searcher.h"

namespace cagra {

/// Gated Searcher for the serving suites: every Search blocks until
/// Release(), then forwards to `inner`. A test holds the scheduler's
/// workers inside Search while a backlog queues behind them, so batches
/// form deterministically instead of by the clock. Injected through the
/// same interface the real backends implement.
class BlockingSearcher : public Searcher {
 public:
  explicit BlockingSearcher(const Searcher& inner) : inner_(&inner) {}

  Result<SearchResult> Search(const Matrix<float>& queries,
                              const SearchParams& params) const override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      searches_started_++;
      started_.notify_all();
      release_.wait(lock, [&] { return released_; });
    }
    return inner_->Search(queries, params);
  }

  size_t dim() const override { return inner_->dim(); }

  /// Blocks until `n` searches have started (and are held at the gate).
  void WaitForSearchStarts(int n = 1) const {
    std::unique_lock<std::mutex> lock(mutex_);
    started_.wait(lock, [&] { return searches_started_ >= n; });
  }

  /// Opens the gate for good: held and later searches pass straight on.
  void Release() const {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    release_.notify_all();
  }

 private:
  const Searcher* inner_;
  mutable std::mutex mutex_;
  mutable std::condition_variable started_;
  mutable std::condition_variable release_;
  mutable int searches_started_ = 0;
  mutable bool released_ = false;
};

}  // namespace cagra

#endif  // CAGRA_TESTS_BLOCKING_SEARCHER_H_
