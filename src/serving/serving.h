#ifndef CAGRA_SERVING_SERVING_H_
#define CAGRA_SERVING_SERVING_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/searcher.h"
#include "util/mpsc_queue.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace cagra {

/// Configuration of the micro-batching request scheduler.
struct ServingOptions {
  /// Largest micro-batch a worker takes off the queue at once; 1
  /// disables coalescing (the single-query-at-a-time baseline of
  /// bench_serving).
  size_t max_batch = 64;
  /// Admission bound: requests arriving while this many are already
  /// queued are shed with StatusCode::kUnavailable instead of growing
  /// the queue (and the tail latency) without limit.
  size_t max_queue_depth = 1024;
  /// Worker threads. Each worker forms its own batches from the shared
  /// queue and runs them to completion; intra-batch parallelism comes
  /// from the search itself (params.num_threads).
  size_t num_workers = 1;
  /// Search parameters applied to every micro-batch. `k` comes per
  /// request from Submit; `uniform_seed` is forced on and the
  /// batch-shape auto choices (algo, multi-CTA width) are pinned as if
  /// each request ran alone, so coalescing NEVER changes a request's
  /// results — batching is purely a throughput optimization.
  SearchParams params;
  /// Ring of most-recent per-request latency samples kept for the
  /// percentile snapshot (bounds memory on a long-lived server).
  size_t latency_window = 8192;
};

/// Per-request result handed back through the Submit future.
struct QueryResponse {
  std::vector<uint32_t> ids;      ///< k neighbor ids, ascending distance
  std::vector<float> distances;
  double queue_us = 0;    ///< enqueue -> micro-batch formed
  double search_us = 0;   ///< the batched search this request rode
  double total_us = 0;    ///< enqueue -> response ready
  size_t batch_rows = 0;  ///< size of the micro-batch it was coalesced into
  /// False when the search hit the request deadline mid-flight and the
  /// neighbors are a best-effort partial top-k (still sorted, padded
  /// with 0xffffffff/+inf, no duplicates — the SearchResult contract).
  bool complete = true;
  /// Dataset rows scored for this query (partial searches show how far
  /// they got before the deadline cut them off).
  uint64_t rows_examined = 0;
};

/// Point-in-time scheduler statistics (Snapshot()). Percentiles are over
/// the most recent `latency_window` completed requests.
struct ServingStats {
  size_t submitted = 0;  ///< admitted into the queue
  size_t completed = 0;  ///< responses delivered OK
  size_t shed = 0;       ///< rejected at admission (queue full)
  size_t failed = 0;     ///< rejected by validation or a failed search
  /// Requests failed with kDeadlineExceeded: their deadline had
  /// already passed when a worker collected them, so no search was
  /// burned on them, or their batch's token expired before their query
  /// started.
  size_t deadline_expired = 0;
  /// Responses delivered with complete == false — the query ran but
  /// the deadline truncated it to a best-effort partial top-k. Counted
  /// inside `completed` as well (the caller did get a usable response).
  size_t partial = 0;
  size_t batches = 0;    ///< micro-batches executed
  double mean_batch_rows = 0;
  double qps = 0;        ///< completed / uptime
  /// Modeled device time (DESIGN.md §1) summed over every search call
  /// the scheduler issued. Batches amortize the device's serial
  /// per-query latency floor, so this is where micro-batching shows its
  /// throughput win — host wall time here executes queries functionally
  /// one row at a time and cannot.
  double modeled_device_seconds = 0;
  double modeled_qps = 0;  ///< completed / modeled_device_seconds
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double uptime_seconds = 0;
};

/// Greedy micro-batching front-end over any Searcher: accepts
/// single-query requests (the shape production traffic actually has),
/// coalesces whatever has queued up into batches (the shape every fast
/// path here wants — multi-row kernels, batched ADC gathers, sharded
/// search), and scatters per-query results back through futures.
///
/// Request lifecycle: Submit validates, stamps, and TryPushes into a
/// bounded MPSC queue — a full queue sheds the request immediately with
/// kUnavailable. A worker blocks for the first request, takes whatever
/// else is already queued (up to max_batch) without waiting, and
/// searches at once. No timer forms batches: a lone request is searched
/// as soon as a worker is free, and under load the backlog that builds
/// while the workers search fills the next batches. Mixed-k batches
/// execute as one Search call per distinct k (different k resolve
/// different internal budgets, so they never share a call — the
/// result-identity contract).
///
/// Shutdown() closes the queue (new Submits are rejected, producers
/// never block) and drains: queued requests still execute and every
/// future resolves before Shutdown returns. The destructor shuts down
/// implicitly.
///
/// Thread safety: Submit and Snapshot may be called from any number of
/// threads; Shutdown from one thread at a time (the destructor's call
/// is safe after an explicit one — it becomes a no-op).
///
/// Serving a mutable index: the scheduler adds no locking of its own
/// against writers and needs none. Every micro-batch executes one
/// Search call, and a Search pins the index version (IndexSnapshot)
/// current at its entry — so a concurrent Add/Remove/Compact on the
/// underlying CagraIndex never tears a batch, and all requests
/// coalesced into one batch answer against the same consistent version.
/// Successive batches may observe successive versions, which is the
/// expected freshness semantics of a continuously updated server.
class ServingScheduler {
 public:
  using Clock = std::chrono::steady_clock;

  ServingScheduler(const Searcher& searcher, const ServingOptions& options);
  ~ServingScheduler();

  ServingScheduler(const ServingScheduler&) = delete;
  ServingScheduler& operator=(const ServingScheduler&) = delete;

  /// Enqueues one query (searcher.dim() floats, copied out before
  /// returning) asking for its k nearest neighbors. The future resolves
  /// with the response, a validation error, or kUnavailable when the
  /// request was shed or the scheduler is shut down.
  ///
  /// A request with a `deadline` (steady clock; the default max() means
  /// none) must complete by then. If the deadline passes while the
  /// request is still queued it is shed with kDeadlineExceeded at
  /// batch-formation time; if it passes mid-search, the search is
  /// cooperatively truncated and the response comes back with
  /// complete == false. The tightest deadline of a micro-batch drives
  /// the whole batch's CancelToken — uniform-deadline traffic never
  /// truncates anyone early, and mixed traffic truncates conservatively
  /// — so a request whose query had not started when that token expired
  /// also fails with kDeadlineExceeded: it has no neighbors to return.
  [[nodiscard]] std::future<Result<QueryResponse>> Submit(
      const float* query, size_t k,
      Clock::time_point deadline = Clock::time_point::max())
      CAGRA_EXCLUDES(stats_mutex_);

  /// Rejects new work, drains everything queued, and joins the workers.
  void Shutdown() CAGRA_EXCLUDES(stats_mutex_);

  ServingStats Snapshot() const CAGRA_EXCLUDES(stats_mutex_);

  const ServingOptions& options() const { return options_; }

 private:
  struct Request {
    std::vector<float> query;
    size_t k = 0;
    std::promise<Result<QueryResponse>> promise;
    Clock::time_point enqueue;
    /// Clock::time_point::max() when the request carries no deadline.
    Clock::time_point deadline;
  };

  void WorkerLoop() CAGRA_EXCLUDES(stats_mutex_);
  void ExecuteBatch(std::vector<std::shared_ptr<Request>>& batch)
      CAGRA_EXCLUDES(stats_mutex_);

  const Searcher* searcher_;
  ServingOptions options_;
  size_t dim_ = 0;

  /// Shared with TryPush so admission never blocks a producer; elements
  /// are shared_ptr so a failed push still owns the promise to reject.
  MpscBoundedQueue<std::shared_ptr<Request>> queue_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopping_{false};
  std::once_flag shutdown_once_;

  // --- Statistics (one mutex; touched per request/batch, not per row).
  // Every counter is CAGRA_GUARDED_BY(stats_mutex_): workers fold
  // whole-batch deltas in under one hold, Snapshot copies under the
  // same hold, and the analysis rejects any new unlocked touch.
  mutable Mutex stats_mutex_;
  size_t submitted_ CAGRA_GUARDED_BY(stats_mutex_) = 0;
  size_t completed_ CAGRA_GUARDED_BY(stats_mutex_) = 0;
  size_t shed_ CAGRA_GUARDED_BY(stats_mutex_) = 0;
  size_t failed_ CAGRA_GUARDED_BY(stats_mutex_) = 0;
  size_t deadline_expired_ CAGRA_GUARDED_BY(stats_mutex_) = 0;
  size_t partial_ CAGRA_GUARDED_BY(stats_mutex_) = 0;
  size_t batches_ CAGRA_GUARDED_BY(stats_mutex_) = 0;
  size_t batch_rows_total_ CAGRA_GUARDED_BY(stats_mutex_) = 0;
  double modeled_device_seconds_ CAGRA_GUARDED_BY(stats_mutex_) = 0;
  std::vector<double> latency_ring_ CAGRA_GUARDED_BY(stats_mutex_);
  size_t latency_count_ CAGRA_GUARDED_BY(stats_mutex_) = 0;
  /// Construction time; immutable afterwards, so unguarded reads are
  /// safe from any thread.
  Clock::time_point start_;
};

}  // namespace cagra

#endif  // CAGRA_SERVING_SERVING_H_
