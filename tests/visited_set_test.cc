#include <unordered_set>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/visited_set.h"

namespace cagra {
namespace {

TEST(VisitedSetTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(VisitedSet(1).capacity(), 16u);
  EXPECT_EQ(VisitedSet(16).capacity(), 16u);
  EXPECT_EQ(VisitedSet(17).capacity(), 32u);
  EXPECT_EQ(VisitedSet(1000).capacity(), 1024u);
}

TEST(VisitedSetTest, InsertThenContains) {
  VisitedSet set(64);
  EXPECT_FALSE(set.Contains(5));
  EXPECT_TRUE(set.InsertIfAbsent(5));
  EXPECT_TRUE(set.Contains(5));
  EXPECT_FALSE(set.InsertIfAbsent(5));  // duplicate rejected
  EXPECT_EQ(set.size(), 1u);
}

TEST(VisitedSetTest, ResetForgetsEverything) {
  VisitedSet set(64);
  for (uint32_t i = 0; i < 20; i++) set.InsertIfAbsent(i);
  EXPECT_EQ(set.size(), 20u);
  set.Reset();
  EXPECT_EQ(set.size(), 0u);
  for (uint32_t i = 0; i < 20; i++) {
    EXPECT_FALSE(set.Contains(i)) << i;
    EXPECT_TRUE(set.InsertIfAbsent(i)) << i;
  }
  EXPECT_EQ(set.size(), 20u);
}

TEST(VisitedSetTest, FullTableTreatsAbsentKeysAsUnvisited) {
  VisitedSet set(16);  // exact capacity 16
  for (uint32_t i = 0; i < 16; i++) {
    EXPECT_TRUE(set.InsertIfAbsent(i * 1000 + 1));
  }
  // Table is full: the kernel behaviour is "recompute rather than fail".
  // The overflowing key is not stored, so it stays unvisited.
  EXPECT_TRUE(set.InsertIfAbsent(999999));
  EXPECT_FALSE(set.Contains(999999));
  EXPECT_TRUE(set.InsertIfAbsent(999999));
  EXPECT_EQ(set.size(), set.capacity());
}

TEST(VisitedSetTest, FullTableStillRejectsPresentKeys) {
  // Regression: once the table was full, InsertIfAbsent reported *every*
  // key as newly unvisited without probing — present keys included —
  // inflating recomputation.
  VisitedSet set(16);
  for (uint32_t i = 0; i < 16; i++) {
    ASSERT_TRUE(set.InsertIfAbsent(i * 1000 + 1));
  }
  for (uint32_t i = 0; i < 16; i++) {
    EXPECT_FALSE(set.InsertIfAbsent(i * 1000 + 1)) << i;
    EXPECT_TRUE(set.Contains(i * 1000 + 1)) << i;
  }
  // Absent keys on a full table are the only overflow case: reported
  // unvisited and left unstored.
  const size_t probes_before = set.probes();
  EXPECT_TRUE(set.InsertIfAbsent(999999));
  EXPECT_TRUE(set.InsertIfAbsent(424242));
  EXPECT_FALSE(set.Contains(999999));
  EXPECT_FALSE(set.Contains(424242));
  // The full-table probe is bounded by the capacity (no infinite loop
  // on a table with no empty stop slot).
  EXPECT_LE(set.probes() - probes_before, 2 * set.capacity());
  EXPECT_EQ(set.size(), set.capacity());
}

TEST(VisitedSetTest, InsertReportsFreshnessAndCountsProbes) {
  VisitedSet set(64);
  EXPECT_TRUE(set.InsertIfAbsent(1));
  EXPECT_FALSE(set.InsertIfAbsent(1));
  EXPECT_TRUE(set.InsertIfAbsent(2));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_GE(set.probes(), 3u);
}

TEST(VisitedSetTest, MemoryBytesMatchesSlots) {
  VisitedSet set(100);
  EXPECT_EQ(set.MemoryBytes(), set.capacity() * sizeof(uint32_t));
}

TEST(VisitedSetTest, CollidingKeysBothStored) {
  VisitedSet set(16);
  // Any two keys must coexist regardless of hash collisions.
  for (uint32_t a = 0; a < 8; a++) {
    VisitedSet s(16);
    EXPECT_TRUE(s.InsertIfAbsent(a));
    EXPECT_TRUE(s.InsertIfAbsent(a + 16));
    EXPECT_TRUE(s.Contains(a));
    EXPECT_TRUE(s.Contains(a + 16));
  }
}

// Property check against std::unordered_set across random workloads.
class VisitedSetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VisitedSetPropertyTest, MatchesReferenceSet) {
  Pcg32 rng(GetParam());
  VisitedSet set(2048);
  std::unordered_set<uint32_t> reference;
  for (int op = 0; op < 1500; op++) {
    const uint32_t key = rng.NextBounded(4000);
    const bool fresh_expected = reference.insert(key).second;
    if (reference.size() > set.capacity()) break;  // avoid overflow regime
    EXPECT_EQ(set.InsertIfAbsent(key), fresh_expected) << "op " << op;
  }
  for (uint32_t key = 0; key < 4000; key += 13) {
    EXPECT_EQ(set.Contains(key), reference.count(key) > 0) << key;
  }
}

TEST_P(VisitedSetPropertyTest, ResetCycleMatchesReference) {
  Pcg32 rng(GetParam() ^ 0xdead);
  VisitedSet set(256);
  std::unordered_set<uint32_t> reference;
  for (int cycle = 0; cycle < 10; cycle++) {
    for (int op = 0; op < 100; op++) {
      const uint32_t key = rng.NextBounded(220);
      EXPECT_EQ(set.InsertIfAbsent(key), reference.insert(key).second);
    }
    set.Reset();
    reference.clear();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VisitedSetPropertyTest,
                         ::testing::Values(1, 2, 3, 42, 1337));

}  // namespace
}  // namespace cagra
