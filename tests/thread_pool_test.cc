#include <atomic>
#include <map>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/mpsc_queue.h"
#include "util/thread_pool.h"

namespace cagra {
namespace {

TEST(ThreadPoolTest, RunsEveryIterationExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, 1000, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); i++) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, RespectsRange) {
  ThreadPool pool(3);
  std::atomic<size_t> sum{0};
  pool.ParallelFor(10, 20, [&](size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 145u);  // 10+...+19
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, [&](size_t) { calls.fetch_add(1); });
  pool.ParallelFor(7, 3, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, SingleIterationWorks) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, SequentialCallsReuseWorkers) {
  ThreadPool pool(2);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 20; round++) {
    pool.ParallelFor(0, 50, [&](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 1000u);
}

TEST(ThreadPoolTest, ZeroThreadsDefaultsToHardware) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, MoreChunksThanIterations) {
  ThreadPool pool(16);
  std::atomic<size_t> sum{0};
  pool.ParallelFor(0, 3, [&](size_t i) { sum.fetch_add(i + 1); });
  EXPECT_EQ(sum.load(), 6u);
}

TEST(ThreadPoolTest, GlobalPoolIsSingleton) {
  ThreadPool& a = GlobalThreadPool();
  ThreadPool& b = GlobalThreadPool();
  EXPECT_EQ(&a, &b);
}

TEST(ThreadPoolTest, LargeRangeStress) {
  ThreadPool pool(4);
  std::atomic<uint64_t> sum{0};
  const size_t n = 200000;
  pool.ParallelFor(0, n, [&](size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), static_cast<uint64_t>(n) * (n - 1) / 2);
}

// ------------------------------------------------------------ width cap

/// (thread, slot) of every iteration of a capped ParallelForSlotted over
/// `n` iterations.
std::vector<std::pair<std::thread::id, size_t>> RecordThreads(
    ThreadPool& pool, size_t n, size_t max_threads) {
  std::mutex mu;
  std::vector<std::pair<std::thread::id, size_t>> seen;
  pool.ParallelForSlotted(
      0, n,
      [&](size_t slot, size_t) {
        std::lock_guard<std::mutex> lock(mu);
        seen.emplace_back(std::this_thread::get_id(), slot);
      },
      max_threads);
  return seen;
}

/// Distinct threads in `seen`; each must keep one slot and no two may
/// share a slot.
size_t DistinctThreadsWithDistinctSlots(
    const std::vector<std::pair<std::thread::id, size_t>>& seen) {
  std::map<std::thread::id, size_t> slot_of;
  std::map<size_t, std::thread::id> thread_of;
  for (const auto& [thread, slot] : seen) {
    EXPECT_EQ(slot_of.emplace(thread, slot).first->second, slot);
    EXPECT_EQ(thread_of.emplace(slot, thread).first->second, thread);
  }
  return slot_of.size();
}

TEST(ThreadPoolTest, MaxThreadsOneRunsOnCaller) {
  ThreadPool pool(4);
  const auto seen = RecordThreads(pool, 1000, 1);
  ASSERT_EQ(seen.size(), 1000u);
  for (const auto& [thread, slot] : seen) {
    EXPECT_EQ(thread, std::this_thread::get_id());
    EXPECT_EQ(slot, pool.num_threads());  // the non-worker caller slot
  }
  EXPECT_EQ(pool.Width(1), 1u);
}

TEST(ThreadPoolTest, MaxThreadsTwoUsesAtMostTwoThreads) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; round++) {
    const auto seen = RecordThreads(pool, 1000, 2);
    ASSERT_EQ(seen.size(), 1000u);
    EXPECT_LE(DistinctThreadsWithDistinctSlots(seen), 2u) << round;
  }
  EXPECT_EQ(pool.Width(2), 2u);
}

TEST(ThreadPoolTest, MaxThreadsAboveSlotsClampsToSlots) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.Width(64), pool.num_slots());
  EXPECT_EQ(pool.Width(0), pool.num_slots());
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, 1000, [&](size_t i) { hits[i].fetch_add(1); }, 64);
  for (size_t i = 0; i < hits.size(); i++) EXPECT_EQ(hits[i].load(), 1) << i;
  const auto seen = RecordThreads(pool, 1000, 64);
  EXPECT_LE(DistinctThreadsWithDistinctSlots(seen), pool.num_slots());
  for (const auto& entry : seen) EXPECT_LT(entry.second, pool.num_slots());
}

// --------------------------------------------------- streaming primitives
//
// Stress tests for the primitives the streaming sharded pipeline leans
// on: fire-and-forget Submit, nested ParallelFor from submitted tasks,
// and pool producers feeding a bounded queue — all under deliberately
// high contention (tiny work items). Run natively and under the TSan CI
// job, where these are the main race workload.

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  constexpr int kTasks = 2000;
  std::atomic<int> done{0};
  {
    // Pool declared after (destroyed before) the state its tasks touch:
    // the destructor drains the queue and joins, so no task outlives
    // `done`.
    ThreadPool pool(3);
    for (int t = 0; t < kTasks; t++) {
      pool.Submit([&] { done.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPoolTest, SubmittedTasksCanNestParallelFor) {
  // Every submitted task runs its own ParallelFor on the same pool; the
  // re-entrant caller-drains-its-own-batch rule must keep this from
  // deadlocking even on a single-worker pool.
  for (size_t workers : {size_t{1}, size_t{4}}) {
    constexpr int kTasks = 32;
    constexpr size_t kInner = 64;
    std::atomic<size_t> total{0};
    {
      ThreadPool pool(workers);
      for (int t = 0; t < kTasks; t++) {
        pool.Submit([&] {
          pool.ParallelFor(0, kInner, [&](size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
          });
        });
      }
    }
    EXPECT_EQ(total.load(), kTasks * kInner) << "workers=" << workers;
  }
}

TEST(ThreadPoolTest, NestedParallelForFromParallelFor) {
  // sharded-search shape: outer loop over shards, inner loop over
  // queries, one shared pool.
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  pool.ParallelFor(0, 8, [&](size_t) {
    pool.ParallelFor(0, 100, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 800u);
}

TEST(ThreadPoolTest, SubmitProducersQueueConsumerUnderContention) {
  // The full pipeline shape under maximum contention: many tiny
  // producer tasks (1-item "chunks"), each running a nested ParallelFor
  // (1-row "queries") before publishing into a small bounded queue the
  // caller drains — Submit, re-entrant ParallelFor, latch-style
  // counters, and MpscBoundedQueue all interleaved.
  constexpr int kChunks = 300;
  MpscBoundedQueue<int> ready(4);
  std::vector<std::atomic<int>> work(kChunks);
  for (auto& w : work) w.store(0);
  ThreadPool pool(4);  // destroyed (joined) before the queue it feeds
  for (int c = 0; c < kChunks; c++) {
    pool.Submit([&, c] {
      pool.ParallelFor(0, 1, [&](size_t) { work[c].fetch_add(1); });
      ready.Push(c);
    });
  }
  std::vector<bool> seen(kChunks, false);
  for (int i = 0; i < kChunks; i++) {
    auto c = ready.Pop();
    ASSERT_TRUE(c.has_value());
    ASSERT_FALSE(seen[*c]);
    seen[*c] = true;
    EXPECT_EQ(work[*c].load(), 1);
  }
}

}  // namespace
}  // namespace cagra
