#include "serving/serving.h"

#include <algorithm>
#include <map>
#include <utility>

#include "util/cancel.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace cagra {

namespace {

double MicrosBetween(ServingScheduler::Clock::time_point,
                     ServingScheduler::Clock::time_point);

}  // namespace

ServingScheduler::ServingScheduler(const Searcher& searcher,
                                   const ServingOptions& options)
    : searcher_(&searcher),
      options_(options),
      dim_(searcher.dim()),
      queue_(options.max_queue_depth == 0 ? 1 : options.max_queue_depth),
      start_(Clock::now()) {
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (options_.num_workers == 0) options_.num_workers = 1;
  if (options_.latency_window == 0) options_.latency_window = 1;
  // The identity contract (see ServingOptions::params): every request
  // searches exactly as a batch-of-one would, whatever batch it rides.
  options_.params.uniform_seed = true;
  latency_ring_.reserve(std::min<size_t>(options_.latency_window, 65536));
  workers_.reserve(options_.num_workers);
  for (size_t w = 0; w < options_.num_workers; w++) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ServingScheduler::~ServingScheduler() { Shutdown(); }

void ServingScheduler::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    stopping_.store(true, std::memory_order_release);
    // Close wakes blocked poppers; items already queued are still
    // delivered, so workers drain every admitted request before their
    // Pop reports empty.
    queue_.Close();
    for (auto& w : workers_) w.join();
  });
}

std::future<Result<QueryResponse>> ServingScheduler::Submit(
    const float* query, size_t k, Clock::time_point deadline) {
  auto req = std::make_shared<Request>();
  auto future = req->promise.get_future();

  if (stopping_.load(std::memory_order_acquire)) {
    req->promise.set_value(
        Status::Unavailable("scheduler is shut down; request rejected"));
    return future;
  }
  SearchParams p = options_.params;
  p.k = k;
  Status valid = ValidateSearchParams(p);
  if (!valid.ok()) {
    {
      MutexLock lock(stats_mutex_);
      failed_++;
    }
    // Resolve the promise outside the stats hold: set_value wakes the
    // caller's future, and no lock should span a wakeup.
    req->promise.set_value(valid);
    return future;
  }

  req->query.assign(query, query + dim_);
  req->k = k;
  req->enqueue = Clock::now();
  req->deadline = deadline;

  // Fault sites of the admission path: whatever fires here, the
  // caller's future still resolves exactly once (below or in a worker).
  CAGRA_FAULT_POINT("serving_queue_push_stall");
  {
    Status injected = CAGRA_FAULT_STATUS("serving_queue_push_fail");
    if (!injected.ok()) {
      {
        MutexLock lock(stats_mutex_);
        failed_++;
      }
      req->promise.set_value(injected);
      return future;
    }
  }

  if (!queue_.TryPush(req)) {
    // Admission control: a full queue means the backend is already
    // max_queue_depth requests behind — shedding now beats queueing
    // into a latency the client has long given up on. (A closed queue
    // lands here too when Shutdown raced the stopping_ check above.)
    {
      MutexLock lock(stats_mutex_);
      shed_++;
    }
    req->promise.set_value(Status::Unavailable(
        stopping_.load(std::memory_order_acquire)
            ? "scheduler is shut down; request rejected"
            : "serving queue is full; request shed"));
    return future;
  }
  MutexLock lock(stats_mutex_);
  submitted_++;
  return future;
}

void ServingScheduler::WorkerLoop() {
  while (true) {
    // Block for the batch opener; nullopt here means closed *and*
    // drained — the graceful-shutdown exit.
    auto first = queue_.Pop();
    if (!first.has_value()) return;

    std::vector<std::shared_ptr<Request>> batch;
    batch.reserve(options_.max_batch);
    batch.push_back(std::move(*first));

    // Greedy fill: take what is already queued, never wait for more.
    while (batch.size() < options_.max_batch) {
      auto next = queue_.TryPop();
      if (!next.has_value()) break;
      batch.push_back(std::move(*next));
    }
    ExecuteBatch(batch);
  }
}

void ServingScheduler::ExecuteBatch(
    std::vector<std::shared_ptr<Request>>& batch) {
  const auto formed = Clock::now();
  const size_t batch_rows = batch.size();

  std::vector<double> latencies;
  latencies.reserve(batch.size());
  size_t completed = 0;
  size_t failed = 0;
  size_t deadline_expired = 0;
  size_t partial = 0;
  double modeled_seconds = 0;
  // Responses are staged and fulfilled only after the stats update:
  // once a caller sees its future resolve, a Snapshot must already
  // account for it.
  std::vector<std::pair<size_t, Result<QueryResponse>>> outcomes;
  outcomes.reserve(batch.size());

  // One Search call per distinct k: k feeds the internal budgets
  // (itopk, iteration caps), so mixing k values in one call would make
  // a request's result depend on its batchmates. Uniform-k traffic —
  // the common case — stays one call. Requests whose deadline already
  // passed are shed here, before any search is burned on them.
  std::map<size_t, std::vector<size_t>> groups;
  for (size_t i = 0; i < batch.size(); i++) {
    const Request& req = *batch[i];
    if (formed >= req.deadline) {
      outcomes.emplace_back(
          i, Status::DeadlineExceeded(
                 "request deadline passed while queued; shed at "
                 "batch formation"));
      deadline_expired++;
      continue;
    }
    groups[req.k].push_back(i);
  }

  // Fault site of the execution path: an injected failure here fails
  // every request of the batch, but still resolves every future.
  CAGRA_FAULT_POINT("serving_batch_execute_stall");
  {
    Status injected = CAGRA_FAULT_STATUS("serving_batch_execute_fail");
    if (!injected.ok()) {
      for (auto& [k, rows] : groups) {
        for (size_t idx : rows) outcomes.emplace_back(idx, injected);
        failed += rows.size();
      }
      groups.clear();
    }
  }

  for (auto& [k, rows] : groups) {
    Matrix<float> queries(rows.size(), dim_);
    for (size_t r = 0; r < rows.size(); r++) {
      const auto& q = batch[rows[r]]->query;
      std::copy(q.begin(), q.end(), queries.MutableRow(r));
    }

    SearchParams p = options_.params;
    p.k = k;
    // Pin the batch-shape auto choices (Fig. 7 algo rule, multi-CTA
    // width) as if the request ran alone: with uniform_seed this makes
    // every response EXPECT_EQ-identical to a per-query Search call,
    // whatever micro-batch it was coalesced into.
    p = ResolveBatchShape(p, DeviceSpec{}, 1);

    // The tightest deadline in the group drives the whole call's
    // token: a truncation hits every rider, but conservatively — no
    // request outlives its own deadline inside the batch. A group with
    // no deadline at all searches token-free. The token lives on this
    // stack, which is safe even against the sharded searcher's task
    // abandonment (it derives its own heap-owned token and never
    // retains this one).
    Clock::time_point tightest = Clock::time_point::max();
    for (size_t idx : rows) tightest = std::min(tightest, batch[idx]->deadline);
    CancelToken token(tightest);
    if (tightest != Clock::time_point::max()) p.cancel = &token;

    Timer timer;
    // One Search per k-group; the search pins the index snapshot
    // current at this point, so the whole group answers against one
    // consistent version even while writers publish new ones.
    auto result = searcher_->Search(queries, p);
    const double search_us = timer.Seconds() * 1e6;
    const auto done = Clock::now();

    if (!result.ok()) {
      for (size_t idx : rows) outcomes.emplace_back(idx, result.status());
      failed += rows.size();
      continue;
    }
    modeled_seconds += result->modeled_seconds;
    for (size_t r = 0; r < rows.size(); r++) {
      const Request& req = *batch[rows[r]];
      const uint64_t rows_examined =
          r < result->rows_examined.size() ? result->rows_examined[r] : 0;
      // A query the search never started (the token expired first) has
      // no neighbors at all: a deadline miss, not a partial response.
      if (!result->complete && rows_examined == 0) {
        outcomes.emplace_back(
            rows[r], Status::DeadlineExceeded(
                         "batch deadline passed before the request's "
                         "query started"));
        deadline_expired++;
        continue;
      }
      QueryResponse resp;
      const uint32_t* ids = result->neighbors.ids.data() + r * k;
      const float* dists = result->neighbors.distances.data() + r * k;
      resp.ids.assign(ids, ids + k);
      resp.distances.assign(dists, dists + k);
      resp.queue_us = MicrosBetween(req.enqueue, formed);
      resp.search_us = search_us;
      resp.total_us = MicrosBetween(req.enqueue, done);
      resp.batch_rows = batch_rows;
      // Deadline-truncated searches come back as best-effort partials:
      // completeness is batch-level (conservative for every rider),
      // rows-examined is this request's own row.
      resp.complete = result->complete;
      resp.rows_examined = rows_examined;
      if (!resp.complete) partial++;
      latencies.push_back(resp.total_us);
      outcomes.emplace_back(rows[r], std::move(resp));
      completed++;
    }
  }

  {
    MutexLock lock(stats_mutex_);
    batches_++;
    batch_rows_total_ += batch_rows;
    modeled_device_seconds_ += modeled_seconds;
    completed_ += completed;
    failed_ += failed;
    deadline_expired_ += deadline_expired;
    partial_ += partial;
    for (double lat : latencies) {
      if (latency_ring_.size() < options_.latency_window) {
        latency_ring_.push_back(lat);
      } else {
        latency_ring_[latency_count_ % options_.latency_window] = lat;
      }
      latency_count_++;
    }
  }
  for (auto& [idx, outcome] : outcomes) {
    batch[idx]->promise.set_value(std::move(outcome));
  }
}

ServingStats ServingScheduler::Snapshot() const {
  ServingStats stats;
  std::vector<double> lat;
  {
    MutexLock lock(stats_mutex_);
    stats.submitted = submitted_;
    stats.completed = completed_;
    stats.shed = shed_;
    stats.failed = failed_;
    stats.deadline_expired = deadline_expired_;
    stats.partial = partial_;
    stats.batches = batches_;
    stats.modeled_device_seconds = modeled_device_seconds_;
    stats.mean_batch_rows =
        batches_ > 0
            ? static_cast<double>(batch_rows_total_) /
                  static_cast<double>(batches_)
            : 0.0;
    lat = latency_ring_;
  }
  stats.uptime_seconds =
      std::chrono::duration<double>(Clock::now() - start_).count();
  stats.qps = stats.uptime_seconds > 0
                  ? static_cast<double>(stats.completed) / stats.uptime_seconds
                  : 0.0;
  stats.modeled_qps =
      stats.modeled_device_seconds > 0
          ? static_cast<double>(stats.completed) / stats.modeled_device_seconds
          : 0.0;
  if (!lat.empty()) {
    auto percentile = [&lat](double p) {
      const size_t idx = static_cast<size_t>(
          p * static_cast<double>(lat.size() - 1) + 0.5);
      std::nth_element(lat.begin(), lat.begin() + idx, lat.end());
      return lat[idx];
    };
    stats.p50_us = percentile(0.50);
    stats.p95_us = percentile(0.95);
    stats.p99_us = percentile(0.99);
  }
  return stats;
}

namespace {

double MicrosBetween(ServingScheduler::Clock::time_point a,
                     ServingScheduler::Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

}  // namespace cagra
