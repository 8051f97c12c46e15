// The mutable-index contract: every search consumes one immutable
// IndexSnapshot pinned at call entry, writers (Add / Remove / Compact /
// background compaction) publish successor snapshots without disturbing
// readers. Pinned here:
//  - Add links new rows into the graph (retrievable at top-1 by their
//    own vector) and assigns monotone external ids; Add on an
//    out-of-core index is kFailedPrecondition.
//  - Remove is lazy (tombstones filtered at emission, never returned),
//    validates all-or-nothing, and auto-schedules background compaction
//    past the configured dead fraction.
//  - Compact drops tombstones, renumbers internally, and preserves
//    external ids; recall@10 on a 50%-churned DEEP-synthetic set stays
//    >= 0.80 after compaction (the acceptance floor).
//  - Save on a tombstoned index writes its compacted form: loading it
//    EXPECT_EQ-matches the in-memory index after Compact().
//  - Concurrent writer + reader threads stay well-formed (this suite
//    runs under TSan in CI).
#include <atomic>
#include <cstdio>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/search.h"
#include "core/searcher.h"
#include "core/sharded.h"
#include "dataset/profile.h"
#include "dataset/recall.h"
#include "dataset/synthetic.h"
#include "knn/bruteforce.h"
#include "serving/serving.h"

namespace cagra {
namespace {

constexpr uint32_t kInvalid = 0xffffffffu;

SyntheticData DeepData(size_t n, size_t num_queries = 8,
                       uint64_t seed = 77) {
  return GenerateDataset(*FindProfile("DEEP-1M"), n, num_queries, seed);
}

CagraIndex BuildIndex(const Matrix<float>& base, size_t degree = 16) {
  BuildParams bp;
  bp.graph_degree = degree;
  auto built = CagraIndex::Build(base, bp);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built.value());
}

SearchParams Params(size_t k, size_t itopk = 64) {
  SearchParams sp;
  sp.k = k;
  sp.itopk = itopk;
  return sp;
}

/// Top-1 external id for the query vector, fp32 single query.
uint32_t Top1(const CagraIndex& index, const float* query) {
  Matrix<float> q(1, index.dim());
  std::copy(query, query + index.dim(), q.MutableRow(0));
  auto r = Search(index, q, Params(1));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r->neighbors.ids[0];
}

/// Returns true iff `id` appears in query row `q` of `n`.
bool Contains(const NeighborList& n, size_t q, uint32_t id) {
  for (size_t i = 0; i < n.k; i++) {
    if (n.ids[q * n.k + i] == id) return true;
  }
  return false;
}

TEST(MutableIndexTest, AddExtendsSearchableSet) {
  auto data = DeepData(340);
  const Matrix<float> base = SliceQueries(data.base, 0, 300);
  const Matrix<float> extra = SliceQueries(data.base, 300, 40);
  CagraIndex index = BuildIndex(base);

  std::vector<uint32_t> ids;
  ASSERT_TRUE(index.Add(extra, &ids).ok());
  ASSERT_EQ(ids.size(), 40u);
  for (size_t i = 0; i < ids.size(); i++) {
    EXPECT_EQ(ids[i], 300u + i);  // monotone, continuing the build's ids
  }
  EXPECT_EQ(index.size(), 340u);
  EXPECT_EQ(index.live_size(), 340u);

  // Every inserted vector retrieves itself: the greedy insert linked it
  // into the graph (forward + reverse edges).
  for (size_t i = 0; i < 40; i++) {
    EXPECT_EQ(Top1(index, extra.Row(i)), 300u + i) << "row " << i;
  }
  // And pre-existing rows are still reachable.
  for (size_t i = 0; i < 300; i += 37) {
    EXPECT_EQ(Top1(index, base.Row(i)), static_cast<uint32_t>(i));
  }
}

TEST(MutableIndexTest, AddValidates) {
  CagraIndex unbuilt;
  Matrix<float> rows(1, 8);
  EXPECT_EQ(unbuilt.Add(rows).code(), StatusCode::kFailedPrecondition);

  auto data = DeepData(120);
  CagraIndex index = BuildIndex(data.base, 8);
  Matrix<float> wrong_dim(1, index.dim() + 1);
  EXPECT_EQ(index.Add(wrong_dim).code(), StatusCode::kInvalidArgument);

  Matrix<float> empty;
  EXPECT_TRUE(index.Add(empty).ok());
  EXPECT_EQ(index.size(), 120u);
}

TEST(MutableIndexTest, AddOnOutOfCoreIsRejected) {
  auto data = DeepData(150);
  CagraIndex index = BuildIndex(data.base, 8);
  const std::string path = ::testing::TempDir() + "/mutable_ooc.cagra";
  ASSERT_TRUE(index.Save(path).ok());
  auto mapped = CagraIndex::LoadOutOfCore(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  Matrix<float> rows = SliceQueries(data.base, 0, 1);
  const Status s = mapped->Add(rows);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s.message().find("out-of-core"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(mapped->size(), 150u);  // nothing published
  std::remove(path.c_str());
}

TEST(MutableIndexTest, RemoveFiltersResultsLazily) {
  auto data = DeepData(300);
  CagraIndex index = BuildIndex(data.base);

  const uint32_t victim = Top1(index, data.base.Row(17));
  ASSERT_EQ(victim, 17u);
  ASSERT_TRUE(index.Remove(std::vector<uint32_t>{17}).ok());
  EXPECT_EQ(index.live_size(), 299u);
  EXPECT_EQ(index.tombstone_count(), 1u);
  // The graph still holds the row (lazy deletion)...
  EXPECT_EQ(index.size(), 300u);

  // ...but no search can return it, at any k.
  Matrix<float> q(1, index.dim());
  std::copy(data.base.Row(17), data.base.Row(17) + index.dim(),
            q.MutableRow(0));
  for (size_t k : {1, 10, 50}) {
    auto r = Search(index, q, Params(k));
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(Contains(r->neighbors, 0, 17u)) << "k=" << k;
  }
}

TEST(MutableIndexTest, RemoveValidatesAllOrNothing) {
  auto data = DeepData(200);
  CagraIndex index = BuildIndex(data.base, 8);

  EXPECT_EQ(index.Remove(std::vector<uint32_t>{9999}).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(index.Remove(std::vector<uint32_t>{5}).ok());
  EXPECT_EQ(index.Remove(std::vector<uint32_t>{5}).code(),
            StatusCode::kNotFound);

  // A batch with one bad id mutates nothing: 7 stays live.
  EXPECT_EQ(index.Remove(std::vector<uint32_t>{7, 5}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(index.tombstone_count(), 1u);
  EXPECT_EQ(Top1(index, data.base.Row(7)), 7u);

  // Duplicates within one valid batch count once.
  ASSERT_TRUE(index.Remove(std::vector<uint32_t>{7, 7}).ok());
  EXPECT_EQ(index.tombstone_count(), 2u);
}

TEST(MutableIndexTest, AddAfterRemoveLinksRowsPastTheOldBitmap) {
  // Add's greedy searches reach new ids past the pre-insert tombstone
  // bitmap (1000 rows: 16 words, ids < 1024), so the bitmap must grow
  // before the insert loop. Near-identical new rows make the later ones
  // link to each other, past id 1024.
  auto data = DeepData(1000);
  CagraIndex index = BuildIndex(data.base);
  ASSERT_TRUE(index.Remove(std::vector<uint32_t>{3, 500, 999}).ok());

  Matrix<float> rows(200, index.dim());
  for (size_t i = 0; i < rows.rows(); i++) {
    for (size_t d = 0; d < index.dim(); d++) {
      rows.MutableRow(i)[d] =
          data.base.Row(0)[d] + 1e-4f * static_cast<float>(i);
    }
  }
  ASSERT_TRUE(index.Add(rows).ok());
  EXPECT_EQ(index.size(), 1200u);
  EXPECT_EQ(index.live_size(), 1197u);
  EXPECT_EQ(index.tombstone_count(), 3u);

  const auto snap = index.snapshot();
  const FixedDegreeGraph& g = snap->GraphRef();
  bool linked_past_bitmap = false;
  for (size_t j = 0; j < g.degree(); j++) {
    const uint32_t v = g.Neighbors(1199)[j];
    linked_past_bitmap |= v != FixedDegreeGraph::kInvalid && v >= 1024;
  }
  EXPECT_TRUE(linked_past_bitmap);
  for (uint32_t dead : {3u, 500u, 999u}) EXPECT_TRUE(snap->Deleted(dead));
  for (uint32_t u = 1000; u < 1200; u++) EXPECT_FALSE(snap->Deleted(u));

  auto r = Search(index, rows, Params(10));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (size_t q = 0; q < rows.rows(); q++) {
    for (uint32_t dead : {3u, 500u, 999u}) {
      EXPECT_FALSE(Contains(r->neighbors, q, dead)) << "query " << q;
    }
  }
}

TEST(MutableIndexTest, CompactPreservesExternalIds) {
  auto data = DeepData(400);
  CagraIndex index = BuildIndex(data.base);
  std::vector<uint32_t> dead;
  for (uint32_t id = 0; id < 400; id += 4) dead.push_back(id);
  ASSERT_TRUE(index.Remove(dead).ok());
  ASSERT_TRUE(index.Compact().ok());

  EXPECT_EQ(index.tombstone_count(), 0u);
  EXPECT_EQ(index.size(), 300u);       // internally dense again
  EXPECT_EQ(index.live_size(), 300u);

  // Survivors keep their external ids across the internal renumbering.
  for (uint32_t id = 1; id < 400; id += 13) {
    if (id % 4 == 0) continue;
    EXPECT_EQ(Top1(index, data.base.Row(id)), id) << "external id " << id;
  }
  // Removed ids stay gone (and are not resurrected by compaction).
  Matrix<float> q(1, index.dim());
  std::copy(data.base.Row(8), data.base.Row(8) + index.dim(),
            q.MutableRow(0));
  auto r = Search(index, q, Params(10));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(Contains(r->neighbors, 0, 8u));
}

// The acceptance floor: build on 2/3 of a DEEP-synthetic set, insert
// the remaining 1/3, remove every other row (50% churn over the full
// set), compact, and recall@10 against the exact scan of the same
// snapshot must stay >= 0.80.
TEST(MutableIndexTest, ChurnedRecallAfterCompaction) {
  auto data = DeepData(1200, 32);
  const Matrix<float> seed_rows = SliceQueries(data.base, 0, 800);
  const Matrix<float> grow_rows = SliceQueries(data.base, 800, 400);
  CagraIndex index = BuildIndex(seed_rows, 16);
  ASSERT_TRUE(index.Add(grow_rows).ok());

  std::vector<uint32_t> dead;
  for (uint32_t id = 0; id < 1200; id += 2) dead.push_back(id);
  ASSERT_TRUE(index.Remove(dead).ok());
  index.WaitForCompaction();  // auto-compaction may already have run
  ASSERT_TRUE(index.Compact().ok());
  ASSERT_EQ(index.live_size(), 600u);
  ASSERT_EQ(index.tombstone_count(), 0u);

  const auto snap = index.snapshot();
  const NeighborList exact = ExactSearch(*snap, data.queries, 10);
  Matrix<uint32_t> gt(data.queries.rows(), 10);
  std::copy(exact.ids.begin(), exact.ids.end(), gt.mutable_data()->begin());

  auto r = Search(index, data.queries, Params(10, 128));
  ASSERT_TRUE(r.ok());
  const double recall = ComputeRecall(r->neighbors, gt);
  EXPECT_GE(recall, 0.80) << "recall@10 after 50% churn + compaction";
}

TEST(MutableIndexTest, SaveCompactsAndRoundTrips) {
  auto data = DeepData(360);
  const Matrix<float> base = SliceQueries(data.base, 0, 320);
  const Matrix<float> extra = SliceQueries(data.base, 320, 40);
  CagraIndex index = BuildIndex(base);
  ASSERT_TRUE(index.Add(extra).ok());
  std::vector<uint32_t> dead;
  for (uint32_t id = 3; id < 360; id += 5) dead.push_back(id);
  ASSERT_TRUE(index.Remove(dead).ok());
  index.WaitForCompaction();

  // Reference: what an in-memory Compact() of this exact version
  // searches like.
  CagraIndex reference = index;  // shares the snapshot, independent state
  ASSERT_TRUE(reference.Compact().ok());
  auto ref = Search(reference, data.queries, Params(10));
  ASSERT_TRUE(ref.ok());

  // Compact-on-save: the still-tombstoned index serializes its
  // compacted form; the loaded index must match the reference exactly.
  const std::string path = ::testing::TempDir() + "/mutable_rt.cagra";
  ASSERT_TRUE(index.Save(path).ok());
  auto loaded = CagraIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->tombstone_count(), 0u);
  EXPECT_EQ(loaded->live_size(), index.live_size());

  auto got = Search(loaded.value(), data.queries, Params(10));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->neighbors.ids, ref->neighbors.ids);
  EXPECT_EQ(got->neighbors.distances, ref->neighbors.distances);

  // New external ids continue after the highest ever assigned (never
  // reused), even though smaller ids are free again.
  std::vector<uint32_t> new_ids;
  ASSERT_TRUE(loaded->Add(SliceQueries(data.base, 0, 1), &new_ids).ok());
  ASSERT_EQ(new_ids.size(), 1u);
  EXPECT_EQ(new_ids[0], 360u);
  std::remove(path.c_str());
}

TEST(MutableIndexTest, BackgroundCompactionTriggers) {
  auto data = DeepData(300);
  CagraIndex index = BuildIndex(data.base, 8);
  CompactionOptions opt;
  opt.trigger_fraction = 0.1;
  opt.min_dead_rows = 1;
  index.SetCompactionOptions(opt);

  std::vector<uint32_t> dead;
  for (uint32_t id = 0; id < 60; id++) dead.push_back(id);
  ASSERT_TRUE(index.Remove(dead).ok());
  index.WaitForCompaction();

  EXPECT_EQ(index.tombstone_count(), 0u);
  EXPECT_EQ(index.size(), 240u);
  EXPECT_EQ(Top1(index, data.base.Row(100)), 100u);
}

TEST(MutableIndexTest, OutOfCoreTombstoneAndCompactOnSave) {
  auto data = DeepData(300);
  CagraIndex resident = BuildIndex(data.base, 8);
  const std::string path = ::testing::TempDir() + "/mutable_ooc2.cagra";
  const std::string path2 = ::testing::TempDir() + "/mutable_ooc3.cagra";
  ASSERT_TRUE(resident.Save(path).ok());

  auto ooc = CagraIndex::LoadOutOfCore(path);
  ASSERT_TRUE(ooc.ok()) << ooc.status().ToString();
  // Removes tombstone only (no in-place compaction of the mapped tier)…
  std::vector<uint32_t> dead;
  for (uint32_t id = 0; id < 50; id++) dead.push_back(id);
  ASSERT_TRUE(ooc->Remove(dead).ok());
  EXPECT_EQ(ooc->tombstone_count(), 50u);
  EXPECT_EQ(ooc->Compact().code(), StatusCode::kFailedPrecondition);
  // …and searches filter them.
  Matrix<float> q(1, ooc->dim());
  std::copy(data.base.Row(3), data.base.Row(3) + ooc->dim(),
            q.MutableRow(0));
  auto r = Search(ooc.value(), q, Params(5));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(Contains(r->neighbors, 0, 3u));

  // Save gathers live fp32 rows through the map and writes the
  // compacted file; the reloaded index is dense with stable ids.
  ASSERT_TRUE(ooc->Save(path2).ok());
  auto loaded = CagraIndex::Load(path2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->live_size(), 250u);
  EXPECT_EQ(loaded->tombstone_count(), 0u);
  EXPECT_EQ(Top1(loaded.value(), data.base.Row(123)), 123u);
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

// Mutations propagate into every storage tier: after Add + Remove, each
// precision and both execution modes filter the dead rows and can reach
// the new ones, deterministically.
TEST(MutableIndexTest, MutationsReachAllDispatchTiers) {
  auto data = DeepData(330, 6);
  const Matrix<float> base = SliceQueries(data.base, 0, 300);
  const Matrix<float> extra = SliceQueries(data.base, 300, 30);
  CagraIndex index = BuildIndex(base);
  index.EnableHalfPrecision();
  index.EnableInt8Quantization();
  PqTrainParams pq;
  pq.kmeans_iterations = 3;
  pq.sample_size = 256;
  index.EnablePq(pq);

  ASSERT_TRUE(index.Add(extra).ok());
  std::vector<uint32_t> dead;
  for (uint32_t id = 0; id < 330; id += 3) dead.push_back(id);
  ASSERT_TRUE(index.Remove(dead).ok());

  for (Precision precision : {Precision::kFp32, Precision::kFp16,
                              Precision::kInt8, Precision::kPq}) {
    for (SearchAlgo algo : {SearchAlgo::kSingleCta, SearchAlgo::kMultiCta}) {
      SearchParams sp = Params(10);
      sp.precision = precision;
      sp.algo = algo;
      auto r1 = Search(index, data.queries, sp);
      ASSERT_TRUE(r1.ok()) << r1.status().ToString();
      // No tombstoned id is ever emitted.
      for (uint32_t id : r1->neighbors.ids) {
        if (id == kInvalid) continue;
        EXPECT_NE(id % 3, 0u) << "dead id emitted";
        EXPECT_LT(id, 330u);
      }
      // Deterministic under repetition (same snapshot, same seeds).
      auto r2 = Search(index, data.queries, sp);
      ASSERT_TRUE(r2.ok());
      EXPECT_EQ(r1->neighbors.ids, r2->neighbors.ids);
    }
  }
}

TEST(MutableIndexTest, CopiesMutateIndependently) {
  auto data = DeepData(200);
  CagraIndex index = BuildIndex(data.base, 8);
  CagraIndex copy = index;
  ASSERT_TRUE(index.Remove(std::vector<uint32_t>{42}).ok());
  EXPECT_EQ(index.tombstone_count(), 1u);
  EXPECT_EQ(copy.tombstone_count(), 0u);
  EXPECT_EQ(Top1(copy, data.base.Row(42)), 42u);
}

// Writer + readers race on one index; runs under TSan in CI. Readers
// only assert well-formedness (sorted distances, no padding gaps) —
// each search answers against whichever snapshot it pinned.
TEST(MutableIndexTest, ConcurrentWriterAndReaders) {
  auto data = DeepData(460, 4);
  const Matrix<float> base = SliceQueries(data.base, 0, 400);
  const Matrix<float> pool = SliceQueries(data.base, 400, 60);
  CagraIndex index = BuildIndex(base, 8);
  CompactionOptions opt;
  opt.trigger_fraction = 0.05;
  opt.min_dead_rows = 8;
  index.SetCompactionOptions(opt);

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    uint32_t next_dead = 1;
    for (size_t i = 0; i < 60; i++) {
      if (!index.Add(SliceQueries(pool, i, 1)).ok()) failures++;
      if (!index.Remove(std::vector<uint32_t>{next_dead}).ok()) failures++;
      next_dead += 5;
      if (i % 20 == 19 && !index.Compact().ok()) failures++;
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; t++) {
    readers.emplace_back([&] {
      while (!done.load()) {
        auto r = Search(index, data.queries, Params(10));
        if (!r.ok()) {
          failures++;
          continue;
        }
        const NeighborList& n = r->neighbors;
        for (size_t q = 0; q < n.num_queries(); q++) {
          bool padded = false;
          for (size_t i = 0; i < n.k; i++) {
            const size_t at = q * n.k + i;
            if (n.ids[at] == kInvalid) {
              padded = true;
              continue;
            }
            if (padded) failures++;  // valid entry after padding
            if (i > 0 && n.ids[q * n.k + i - 1] != kInvalid &&
                n.distances[at] < n.distances[at - 1]) {
              failures++;  // unsorted
            }
          }
        }
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  index.WaitForCompaction();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(index.live_size(), 400u);  // 60 added, 60 removed
}

// The serving scheduler over a concurrently mutated index: every
// micro-batch answers against one pinned snapshot, so all futures
// resolve with well-formed responses while the writer churns.
TEST(MutableIndexTest, ServingUnderConcurrentWrites) {
  auto data = DeepData(340, 16);
  const Matrix<float> base = SliceQueries(data.base, 0, 300);
  const Matrix<float> pool = SliceQueries(data.base, 300, 40);
  CagraIndex index = BuildIndex(base, 8);

  ServingOptions opts;
  opts.num_workers = 2;
  opts.params = Params(5);
  IndexSearcher searcher(index);
  ServingScheduler scheduler(searcher, opts);

  std::thread writer([&] {
    for (size_t i = 0; i < 40; i++) {
      ASSERT_TRUE(index.Add(SliceQueries(pool, i, 1)).ok());
      ASSERT_TRUE(
          index.Remove(std::vector<uint32_t>{static_cast<uint32_t>(i)}).ok());
    }
  });

  std::vector<std::future<Result<QueryResponse>>> futures;
  for (size_t i = 0; i < 200; i++) {
    futures.push_back(
        scheduler.Submit(data.queries.Row(i % data.queries.rows()), 5));
  }
  size_t ok = 0;
  for (auto& f : futures) {
    auto r = f.get();
    if (r.ok()) {
      ok++;
      EXPECT_EQ(r->ids.size(), 5u);
    } else {
      // Only admission shedding is acceptable; search failures are not.
      EXPECT_EQ(r.status().code(), StatusCode::kUnavailable)
          << r.status().ToString();
    }
  }
  writer.join();
  scheduler.Shutdown();
  EXPECT_GT(ok, 0u);
  index.WaitForCompaction();
}

// Sharded mutators: round-robin id continuation, per-shard tombstoning,
// all-or-nothing cross-shard validation.
TEST(MutableIndexTest, ShardedAddRemove) {
  auto data = DeepData(340, 6);
  const Matrix<float> base = SliceQueries(data.base, 0, 300);
  const Matrix<float> extra = SliceQueries(data.base, 300, 40);
  BuildParams bp;
  bp.graph_degree = 8;
  auto built = ShardedCagraIndex::Build(base, bp, 3);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ShardedCagraIndex index = std::move(built.value());

  std::vector<uint32_t> ids;
  ASSERT_TRUE(index.Add(extra, &ids).ok());
  ASSERT_EQ(ids.size(), 40u);
  for (size_t i = 0; i < ids.size(); i++) EXPECT_EQ(ids[i], 300u + i);
  EXPECT_EQ(index.live_size(), 340u);

  // Inserted rows come back with their *global* ids.
  for (size_t i = 0; i < 40; i += 7) {
    Matrix<float> q(1, index.dim());
    std::copy(extra.Row(i), extra.Row(i) + index.dim(), q.MutableRow(0));
    auto r = index.Search(q, Params(1));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->neighbors.ids[0], 300u + i);
  }

  // Remove across shards, all-or-nothing.
  EXPECT_EQ(index.Remove(std::vector<uint32_t>{1, 2, 99999}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(index.tombstone_count(), 0u);
  ASSERT_TRUE(index.Remove(std::vector<uint32_t>{1, 2, 3, 301}).ok());
  EXPECT_EQ(index.tombstone_count(), 4u);
  EXPECT_EQ(index.live_size(), 336u);

  Matrix<float> q(1, index.dim());
  std::copy(data.base.Row(301), data.base.Row(301) + index.dim(),
            q.MutableRow(0));
  auto r = index.Search(q, Params(10));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(Contains(r->neighbors, 0, 301u));

  ASSERT_TRUE(index.Compact().ok());
  EXPECT_EQ(index.tombstone_count(), 0u);
  auto r2 = index.Search(q, Params(10));
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(Contains(r2->neighbors, 0, 301u));
  index.WaitForCompaction();
}

}  // namespace
}  // namespace cagra
