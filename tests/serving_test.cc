// The micro-batching serving scheduler: greedy batch formation (a
// worker takes what is already queued, up to max_batch), admission
// control (distinct shed Status), graceful drain on shutdown, and the
// result-identity contract — a batched request's response is
// EXPECT_EQ-identical to a lone per-query Search call. Tests that need
// a coalesced batch hold the workers inside a gated Searcher while the
// backlog queues, then release them; no batch waits on a clock.
// This suite also runs under the TSan CI job: the scheduler's queue,
// worker, and stats paths are exactly the concurrency surface it pins.
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "blocking_searcher.h"
#include "core/searcher.h"
#include "dataset/profile.h"
#include "dataset/synthetic.h"
#include "serving/serving.h"

namespace cagra {
namespace {

using std::chrono::milliseconds;

class ServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const DatasetProfile* p = FindProfile("DEEP-1M");
    data_ = new SyntheticData(GenerateDataset(*p, 2500, 32, 99));
    BuildParams bp;
    bp.graph_degree = 16;
    auto index = CagraIndex::Build(data_->base, bp);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = new CagraIndex(std::move(index.value()));
    searcher_ = new IndexSearcher(*index_);
  }
  static void TearDownTestSuite() {
    delete searcher_;
    delete index_;
    delete data_;
  }

  /// The serial reference a scheduler response must match exactly.
  static SearchResult SerialReference(size_t row, size_t k) {
    SearchParams sp;
    sp.k = k;
    Matrix<float> one = SliceQueries(data_->queries, row, 1);
    auto r = Search(*index_, one, sp);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  }

  static SyntheticData* data_;
  static CagraIndex* index_;
  static IndexSearcher* searcher_;
};

SyntheticData* ServingTest::data_ = nullptr;
CagraIndex* ServingTest::index_ = nullptr;
IndexSearcher* ServingTest::searcher_ = nullptr;

/// Holds every worker of `sched` at `gate`: worker w opens with
/// query row w (k = 10), submitted only once the previous opener is
/// held, so no worker can take two. Requests submitted afterwards queue
/// up as a backlog.
std::vector<std::future<Result<QueryResponse>>> HoldWorkers(
    ServingScheduler* sched, const BlockingSearcher& gate,
    const Matrix<float>& queries) {
  std::vector<std::future<Result<QueryResponse>>> openers;
  for (size_t w = 0; w < sched->options().num_workers; w++) {
    openers.push_back(sched->Submit(queries.Row(w), 10));
    gate.WaitForSearchStarts(static_cast<int>(w + 1));
  }
  return openers;
}

TEST_F(ServingTest, BatchTakesWhatIsQueuedWithoutWaitingToFill) {
  BlockingSearcher gate(*searcher_);
  ServingOptions opt;
  opt.max_batch = 100;
  ServingScheduler sched(gate, opt);

  auto openers = HoldWorkers(&sched, gate, data_->queries);
  std::vector<std::future<Result<QueryResponse>>> futures;
  for (size_t q = 0; q < 5; q++) {
    futures.push_back(sched.Submit(data_->queries.Row(q), 10));
  }
  gate.Release();
  auto opener = openers[0].get();
  ASSERT_TRUE(opener.ok()) << opener.status().ToString();
  EXPECT_EQ(opener->batch_rows, 1u);  // searched alone, nothing queued
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // The backlog rode one batch, well short of max_batch.
    EXPECT_EQ(r->batch_rows, 5u);
    EXPECT_EQ(r->ids.size(), 10u);
  }
  const ServingStats stats = sched.Snapshot();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_rows, 3.0);
}

TEST_F(ServingTest, MaxBatchSplitsTheBacklog) {
  BlockingSearcher gate(*searcher_);
  ServingOptions opt;
  opt.max_batch = 4;
  ServingScheduler sched(gate, opt);

  auto openers = HoldWorkers(&sched, gate, data_->queries);
  std::vector<std::future<Result<QueryResponse>>> futures;
  for (size_t q = 0; q < 8; q++) {
    futures.push_back(sched.Submit(data_->queries.Row(q), 10));
  }
  gate.Release();
  ASSERT_TRUE(openers[0].get().ok());
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->batch_rows, 4u);
  }
  const ServingStats stats = sched.Snapshot();
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_rows, 3.0);
}

TEST_F(ServingTest, ShedsLoadPastQueueDepthWithDistinctStatus) {
  BlockingSearcher blocking(*searcher_);
  ServingOptions opt;
  opt.max_batch = 1;
  opt.max_queue_depth = 2;
  ServingScheduler sched(blocking, opt);

  const float* query = data_->queries.Row(0);
  // First request: popped by the worker, which blocks inside Search.
  auto in_flight = sched.Submit(query, 4);
  blocking.WaitForSearchStarts();
  // Two more fill the queue to its bound.
  auto queued1 = sched.Submit(query, 4);
  auto queued2 = sched.Submit(query, 4);
  // Past the bound: shed immediately with the distinct Status.
  auto shed1 = sched.Submit(query, 4);
  auto shed2 = sched.Submit(query, 4);
  ASSERT_EQ(shed1.wait_for(milliseconds(0)), std::future_status::ready);
  ASSERT_EQ(shed2.wait_for(milliseconds(0)), std::future_status::ready);
  auto s1 = shed1.get();
  ASSERT_FALSE(s1.ok());
  EXPECT_EQ(s1.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(s1.status().message(), "serving queue is full; request shed");
  EXPECT_FALSE(shed2.get().ok());

  blocking.Release();
  sched.Shutdown();
  // Every admitted request still completed.
  EXPECT_TRUE(in_flight.get().ok());
  EXPECT_TRUE(queued1.get().ok());
  EXPECT_TRUE(queued2.get().ok());
  const ServingStats stats = sched.Snapshot();
  EXPECT_EQ(stats.shed, 2u);
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
}

TEST_F(ServingTest, ShutdownDrainsInFlightRequests) {
  ServingOptions opt;
  opt.max_batch = 4;
  ServingScheduler sched(*searcher_, opt);

  std::vector<std::future<Result<QueryResponse>>> futures;
  for (size_t q = 0; q < 10; q++) {
    futures.push_back(sched.Submit(data_->queries.Row(q), 10));
  }
  // Shutdown must execute everything queued, then join.
  sched.Shutdown();
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(milliseconds(0)), std::future_status::ready);
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  const ServingStats stats = sched.Snapshot();
  EXPECT_EQ(stats.completed, 10u);

  // Past shutdown: rejected, not queued forever.
  auto late = sched.Submit(data_->queries.Row(0), 10);
  ASSERT_EQ(late.wait_for(milliseconds(0)), std::future_status::ready);
  auto r = late.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(r.status().message(), "scheduler is shut down; request rejected");
}

TEST_F(ServingTest, BatchedResultsIdenticalToSerialSearch) {
  BlockingSearcher gate(*searcher_);
  ServingOptions opt;
  opt.max_batch = 8;
  opt.num_workers = 2;
  ServingScheduler sched(gate, opt);

  const size_t n = data_->queries.rows();
  std::vector<std::future<Result<QueryResponse>>> futures(n);
  // Queries 0 and 1 hold the two workers; the rest queue behind them.
  auto openers = HoldWorkers(&sched, gate, data_->queries);
  for (size_t w = 0; w < openers.size(); w++) {
    futures[w] = std::move(openers[w]);
  }
  // MPSC for real: several producer threads submitting concurrently.
  std::vector<std::thread> producers;
  const size_t kProducers = 4;
  for (size_t t = 0; t < kProducers; t++) {
    producers.emplace_back([&, t] {
      for (size_t q = openers.size() + t; q < n; q += kProducers) {
        futures[q] = sched.Submit(data_->queries.Row(q), 10);
      }
    });
  }
  for (auto& p : producers) p.join();
  gate.Release();

  bool any_coalesced = false;
  for (size_t q = 0; q < n; q++) {
    auto r = futures[q].get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    any_coalesced |= r->batch_rows > 1;
    const SearchResult ref = SerialReference(q, 10);
    EXPECT_EQ(r->ids, ref.neighbors.ids) << "query " << q;
    EXPECT_EQ(r->distances, ref.neighbors.distances) << "query " << q;
    EXPECT_GT(r->total_us, 0.0);
    EXPECT_GE(r->total_us, r->queue_us);
  }
  // The point of the scheduler: requests actually rode micro-batches.
  EXPECT_TRUE(any_coalesced);
  const ServingStats stats = sched.Snapshot();
  EXPECT_EQ(stats.completed, n);
  EXPECT_GT(stats.mean_batch_rows, 1.0);
}

TEST_F(ServingTest, MixedKRequestsKeepPerRequestResults) {
  BlockingSearcher gate(*searcher_);
  ServingOptions opt;
  opt.max_batch = 32;
  ServingScheduler sched(gate, opt);

  auto openers = HoldWorkers(&sched, gate, data_->queries);
  const size_t n = 16;
  std::vector<std::future<Result<QueryResponse>>> futures;
  std::vector<size_t> ks;
  for (size_t q = 0; q < n; q++) {
    const size_t k = (q % 2 == 0) ? 5 : 10;
    ks.push_back(k);
    futures.push_back(sched.Submit(data_->queries.Row(q), k));
  }
  gate.Release();
  ASSERT_TRUE(openers[0].get().ok());
  for (size_t q = 0; q < n; q++) {
    auto r = futures[q].get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->ids.size(), ks[q]);
    EXPECT_EQ(r->batch_rows, n);  // both k groups rode one batch
    const SearchResult ref = SerialReference(q, ks[q]);
    EXPECT_EQ(r->ids, ref.neighbors.ids) << "query " << q << " k " << ks[q];
    EXPECT_EQ(r->distances, ref.neighbors.distances);
  }
}

TEST_F(ServingTest, InvalidKFailsWithSharedValidationMessage) {
  ServingOptions opt;
  ServingScheduler sched(*searcher_, opt);
  auto f = sched.Submit(data_->queries.Row(0), 0);
  ASSERT_EQ(f.wait_for(milliseconds(0)), std::future_status::ready);
  auto r = f.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Identical to the direct Search front doors (shared validator).
  SearchParams bad;
  bad.k = 0;
  EXPECT_EQ(r.status().message(), ValidateSearchParams(bad).message());
  EXPECT_EQ(sched.Snapshot().failed, 1u);
}

TEST_F(ServingTest, StatsSnapshotIsConsistent) {
  ServingOptions opt;
  opt.max_batch = 8;
  ServingScheduler sched(*searcher_, opt);

  std::vector<std::future<Result<QueryResponse>>> futures;
  for (size_t q = 0; q < 16; q++) {
    futures.push_back(sched.Submit(data_->queries.Row(q % 32), 10));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());

  const ServingStats stats = sched.Snapshot();
  EXPECT_EQ(stats.submitted, 16u);
  EXPECT_EQ(stats.completed, 16u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GE(stats.mean_batch_rows, 1.0);
  EXPECT_GT(stats.qps, 0.0);
  EXPECT_GT(stats.modeled_device_seconds, 0.0);
  EXPECT_GT(stats.modeled_qps, 0.0);
  EXPECT_GT(stats.uptime_seconds, 0.0);
  EXPECT_GT(stats.p50_us, 0.0);
  EXPECT_LE(stats.p50_us, stats.p95_us);
  EXPECT_LE(stats.p95_us, stats.p99_us);
}

TEST_F(ServingTest, QueryThatNeverStartedFailsWithDeadlineExceeded) {
  // The worker takes the request before its deadline, but the search
  // starts only after it: Search starts no query on an expired token,
  // so the request has no neighbors, and the scheduler reports the
  // deadline miss instead of an OK response of padding. The sleep only
  // lets the deadline pass while the worker is held.
  BlockingSearcher gate(*searcher_);
  ServingScheduler sched(gate, ServingOptions{});
  const auto deadline = ServingScheduler::Clock::now() + milliseconds(200);
  auto f = sched.Submit(data_->queries.Row(0), 10, deadline);
  gate.WaitForSearchStarts();  // formed, so not shed at formation
  std::this_thread::sleep_until(deadline + milliseconds(1));
  gate.Release();
  auto r = f.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  sched.Shutdown();
  const ServingStats stats = sched.Snapshot();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.deadline_expired, 1u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.partial, 0u);
}

TEST(ServingStatusTest, UnavailableIsDistinctAndPrintable) {
  const Status s = Status::Unavailable("load shed");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(s.ToString(), "UNAVAILABLE: load shed");
}

}  // namespace
}  // namespace cagra
