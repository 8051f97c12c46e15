// Tests for the bounded MPSC queue — the hand-off channel of sharded
// search and the serving scheduler's request intake. Runs natively and
// under the TSan CI job.
#include <atomic>
#include <algorithm>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/mpsc_queue.h"
#include "util/thread_pool.h"

namespace cagra {
namespace {

TEST(MpscQueueTest, FifoSingleThread) {
  MpscBoundedQueue<int> q(4);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_TRUE(q.Push(3));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_EQ(q.Pop().value(), 3);
  EXPECT_EQ(q.size(), 0u);
}

TEST(MpscQueueTest, ZeroCapacityClampsToOne) {
  MpscBoundedQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.TryPush(7));
  EXPECT_FALSE(q.TryPush(8));  // full
  EXPECT_EQ(q.Pop().value(), 7);
}

TEST(MpscQueueTest, TryPushFailsWhenFull) {
  MpscBoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_TRUE(q.TryPush(3));
}

TEST(MpscQueueTest, TryPopNeverWaits) {
  MpscBoundedQueue<int> q(2);
  EXPECT_FALSE(q.TryPop().has_value());  // empty: returns at once
  ASSERT_TRUE(q.TryPush(1));
  ASSERT_TRUE(q.TryPush(2));
  EXPECT_EQ(q.TryPop().value(), 1);
  EXPECT_TRUE(q.TryPush(3));  // the pop freed a slot
  q.Close();
  // Items pushed before Close still drain, then it reports empty.
  EXPECT_EQ(q.TryPop().value(), 2);
  EXPECT_EQ(q.TryPop().value(), 3);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(MpscQueueTest, PushBlocksUntilPopFreesSpace) {
  MpscBoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    q.Push(2);  // blocks until the consumer pops
    second_pushed.store(true);
  });
  // The producer cannot complete while the queue is full. (A sleep-based
  // non-assertion would be flaky; instead just verify the handoff order
  // is preserved and the producer finishes once space frees.)
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
}

TEST(MpscQueueTest, CloseWakesBlockedConsumer) {
  MpscBoundedQueue<int> q(2);
  std::thread consumer([&] { EXPECT_FALSE(q.Pop().has_value()); });
  q.Close();
  consumer.join();
}

TEST(MpscQueueTest, CloseDrainsPendingItemsFirst) {
  MpscBoundedQueue<int> q(4);
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_FALSE(q.Push(3));  // rejected after close
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(MpscQueueTest, CloseWakesBlockedProducer) {
  MpscBoundedQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> push_result{true};
  std::thread producer([&] { push_result.store(q.Push(2)); });
  q.Close();
  producer.join();
  EXPECT_FALSE(push_result.load());  // dropped, not delivered
  EXPECT_EQ(q.Pop().value(), 1);     // pre-close item still drains
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(MpscQueueTest, MultiProducerDeliversEverythingExactlyOnce) {
  // 4 producer threads x 2000 items through a deliberately tiny queue:
  // heavy Push contention and constant full/empty transitions.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  MpscBoundedQueue<int> q(3);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; p++) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; i++) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  std::vector<int> seen;
  seen.reserve(kProducers * kPerProducer);
  for (int i = 0; i < kProducers * kPerProducer; i++) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    seen.push_back(*v);
  }
  for (auto& t : producers) t.join();
  std::sort(seen.begin(), seen.end());
  for (int i = 0; i < kProducers * kPerProducer; i++) {
    ASSERT_EQ(seen[i], i);  // every item exactly once
  }
}

TEST(MpscQueueTest, PoolWorkersAsProducers) {
  // The pipeline's actual shape: pool tasks produce, the caller
  // consumes, with the queue bound far below the task count.
  ThreadPool pool(3);
  constexpr int kTasks = 500;
  MpscBoundedQueue<int> q(2);
  for (int t = 0; t < kTasks; t++) {
    pool.Submit([&q, t] { q.Push(t); });
  }
  std::vector<int> seen;
  for (int i = 0; i < kTasks; i++) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    seen.push_back(*v);
  }
  std::sort(seen.begin(), seen.end());
  for (int i = 0; i < kTasks; i++) ASSERT_EQ(seen[i], i);
}

}  // namespace
}  // namespace cagra
