#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/sharded.h"
#include "dataset/profile.h"
#include "dataset/synthetic.h"
#include "knn/bruteforce.h"

namespace cagra {
namespace {

class ShardedTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const DatasetProfile* p = FindProfile("DEEP-1M");
    data_ = new SyntheticData(GenerateDataset(*p, 4000, 32, 777));
    gt_ = new Matrix<uint32_t>(
        ComputeGroundTruth(data_->base, data_->queries, 10, p->metric));
  }
  static void TearDownTestSuite() {
    delete data_;
    delete gt_;
  }
  static SyntheticData* data_;
  static Matrix<uint32_t>* gt_;
};

SyntheticData* ShardedTest::data_ = nullptr;
Matrix<uint32_t>* ShardedTest::gt_ = nullptr;

TEST_F(ShardedTest, BuildSplitsAllRows) {
  BuildParams bp;
  bp.graph_degree = 16;
  ShardedBuildStats stats;
  auto index = ShardedCagraIndex::Build(data_->base, bp, 4, &stats);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->num_shards(), 4u);
  size_t total = 0;
  for (size_t s = 0; s < 4; s++) total += index->shard(s).size();
  EXPECT_EQ(total, data_->base.rows());
  EXPECT_EQ(stats.per_shard.size(), 4u);
  EXPECT_GT(stats.total_seconds, 0.0);
}

TEST_F(ShardedTest, RejectsZeroShards) {
  BuildParams bp;
  auto index = ShardedCagraIndex::Build(data_->base, bp, 0);
  EXPECT_FALSE(index.ok());
}

TEST_F(ShardedTest, RejectsTooManyShards) {
  BuildParams bp;
  bp.graph_degree = 32;
  auto index = ShardedCagraIndex::Build(data_->base, bp, 1000);
  EXPECT_FALSE(index.ok());
}

TEST_F(ShardedTest, SearchReturnsGlobalIds) {
  BuildParams bp;
  bp.graph_degree = 16;
  auto index = ShardedCagraIndex::Build(data_->base, bp, 4);
  ASSERT_TRUE(index.ok());
  SearchParams sp;
  sp.k = 10;
  sp.itopk = 64;
  auto r = index->Search(data_->queries, sp);
  ASSERT_TRUE(r.ok());
  for (size_t q = 0; q < data_->queries.rows(); q++) {
    std::set<uint32_t> seen;
    for (size_t i = 0; i < 10; i++) {
      const uint32_t id = r->neighbors.ids[q * 10 + i];
      EXPECT_LT(id, data_->base.rows());
      EXPECT_TRUE(seen.insert(id).second) << "dup global id, query " << q;
      // Distances must match the global dataset row.
      const float true_dist =
          ComputeDistance(Metric::kL2, data_->queries.Row(q),
                          data_->base.Row(id), data_->base.dim());
      EXPECT_NEAR(r->neighbors.distances[q * 10 + i], true_dist,
                  1e-3f * std::max(1.0f, std::abs(true_dist)));
    }
  }
}

TEST_F(ShardedTest, RecallComparableToSingleIndex) {
  BuildParams bp;
  bp.graph_degree = 16;
  auto sharded = ShardedCagraIndex::Build(data_->base, bp, 4);
  auto single = CagraIndex::Build(data_->base, bp);
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE(single.ok());
  SearchParams sp;
  sp.k = 10;
  sp.itopk = 64;
  auto rs = sharded->Search(data_->queries, sp);
  auto r1 = Search(*single, data_->queries, sp);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(r1.ok());
  const double sharded_recall = ComputeRecall(rs->neighbors, *gt_);
  const double single_recall = ComputeRecall(r1->neighbors, *gt_);
  // Each shard searches a quarter of the data with the full breadth, so
  // sharded recall should be at least comparable.
  EXPECT_GT(sharded_recall, single_recall - 0.05);
  EXPECT_GT(sharded_recall, 0.9);
}

TEST_F(ShardedTest, SingleShardMatchesPlainIndexResults) {
  BuildParams bp;
  bp.graph_degree = 16;
  auto sharded = ShardedCagraIndex::Build(data_->base, bp, 1);
  auto single = CagraIndex::Build(data_->base, bp);
  ASSERT_TRUE(sharded.ok());
  ASSERT_TRUE(single.ok());
  SearchParams sp;
  sp.k = 10;
  sp.itopk = 64;
  auto rs = sharded->Search(data_->queries, sp);
  auto r1 = Search(*single, data_->queries, sp);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(r1.ok());
  // Round-robin with one shard is the identity mapping.
  EXPECT_EQ(rs->neighbors.ids, r1->neighbors.ids);
}

TEST_F(ShardedTest, RejectsZeroK) {
  BuildParams bp;
  bp.graph_degree = 16;
  auto index = ShardedCagraIndex::Build(data_->base, bp, 2);
  ASSERT_TRUE(index.ok());
  SearchParams sp;
  sp.k = 0;
  auto r = index->Search(data_->queries, sp);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ShardedTest, MetadataAggregatesOverShards) {
  // Regression: cost, launch, and host_threads used to be copied from
  // shard 0 alone. They must reflect the aggregate run: counters sum,
  // host_threads is the widest shard, and the modeled cost is the
  // slowest shard's breakdown (what the parallel execution waits for).
  // Each shard runs the whole batch in one launch, exactly as a
  // standalone search of that shard, so the aggregation pins exactly.
  BuildParams bp;
  bp.graph_degree = 16;
  auto index = ShardedCagraIndex::Build(data_->base, bp, 4);
  ASSERT_TRUE(index.ok());
  SearchParams sp;
  sp.k = 10;
  sp.itopk = 64;
  auto sharded = index->Search(data_->queries, sp);
  ASSERT_TRUE(sharded.ok());

  // Re-run each shard individually (deterministic, identical inputs).
  double max_cost = 0.0;
  size_t max_threads = 0;
  size_t sum_distances = 0;
  for (size_t s = 0; s < index->num_shards(); s++) {
    auto one = Search(index->shard(s), data_->queries, sp);
    ASSERT_TRUE(one.ok());
    max_cost = std::max(max_cost, one->cost.total);
    max_threads = std::max(max_threads, one->host_threads);
    sum_distances += one->counters.distance_computations;
  }
  EXPECT_DOUBLE_EQ(sharded->cost.total, max_cost);
  EXPECT_EQ(sharded->host_threads, max_threads);
  EXPECT_EQ(sharded->counters.distance_computations, sum_distances);
  // The launch config must belong to the slowest shard (whose cost was
  // reported), i.e. describe the same batch every shard ran.
  EXPECT_EQ(sharded->launch.batch, data_->queries.rows());
  // The modeled time waits for the slowest shard, then pays the host
  // merge of every (query, shard) list at 200ns each.
  EXPECT_DOUBLE_EQ(sharded->modeled_seconds,
                   max_cost + 2e-7 * static_cast<double>(
                                         data_->queries.rows() *
                                         index->num_shards()));
}

TEST_F(ShardedTest, ParallelBuildMatchesSequentialReference) {
  // Shard builds run in parallel on the pool; graphs and deterministic
  // BuildStats must be identical to building each shard sequentially
  // from the same round-robin split.
  const size_t num_shards = 3;
  BuildParams bp;
  bp.graph_degree = 8;
  ShardedBuildStats stats;
  auto index = ShardedCagraIndex::Build(data_->base, bp, num_shards, &stats);
  ASSERT_TRUE(index.ok());
  ASSERT_EQ(stats.per_shard.size(), num_shards);

  // Replicate the split and build sequentially.
  std::vector<std::vector<uint32_t>> ids(num_shards);
  for (size_t i = 0; i < data_->base.rows(); i++) {
    ids[i % num_shards].push_back(static_cast<uint32_t>(i));
  }
  for (size_t s = 0; s < num_shards; s++) {
    Matrix<float> shard_data(ids[s].size(), data_->base.dim());
    for (size_t r = 0; r < ids[s].size(); r++) {
      std::copy(data_->base.Row(ids[s][r]),
                data_->base.Row(ids[s][r]) + data_->base.dim(),
                shard_data.MutableRow(r));
    }
    BuildStats ref_stats;
    auto ref = CagraIndex::Build(shard_data, bp, &ref_stats);
    ASSERT_TRUE(ref.ok());
    const auto got_snap = index->shard(s).snapshot();
    const auto want_snap = ref->snapshot();
    const FixedDegreeGraph& got = got_snap->GraphRef();
    const FixedDegreeGraph& want = want_snap->GraphRef();
    ASSERT_EQ(got.num_nodes(), want.num_nodes()) << "shard " << s;
    ASSERT_EQ(got.degree(), want.degree()) << "shard " << s;
    for (size_t v = 0; v < got.num_nodes(); v++) {
      for (size_t j = 0; j < got.degree(); j++) {
        ASSERT_EQ(got.Neighbors(v)[j], want.Neighbors(v)[j])
            << "shard " << s << " node " << v << " edge " << j;
      }
    }
    // Deterministic stats fields (not wall times) must match too.
    EXPECT_EQ(stats.per_shard[s].knn.iterations, ref_stats.knn.iterations);
    EXPECT_EQ(stats.per_shard[s].knn.distance_computations,
              ref_stats.knn.distance_computations);
    EXPECT_EQ(stats.per_shard[s].optimize.distance_computations,
              ref_stats.optimize.distance_computations);
  }
}

TEST_F(ShardedTest, KLargerThanShardRowsMergesAcrossShards) {
  // Each shard holds 6 rows; k = 8 forces every per-shard result list to
  // carry 0xffffffff padding entries that the merge must filter while
  // still assembling a full global top-k from the union.
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto small = GenerateDataset(*p, 12, 4, 99);
  BuildParams bp;
  bp.graph_degree = 4;
  auto index = ShardedCagraIndex::Build(small.base, bp, 2);
  ASSERT_TRUE(index.ok());
  SearchParams sp;
  sp.k = 8;
  sp.itopk = 16;
  auto r = index->Search(small.queries, sp);
  ASSERT_TRUE(r.ok());
  for (size_t q = 0; q < small.queries.rows(); q++) {
    std::set<uint32_t> seen;
    for (size_t i = 0; i < 8; i++) {
      const uint32_t id = r->neighbors.ids[q * 8 + i];
      // 12 total rows > k = 8: the merged list must be fully populated
      // with valid global ids — no padding may leak through.
      ASSERT_NE(id, 0xffffffffu) << "q=" << q << " i=" << i;
      EXPECT_LT(id, small.base.rows());
      EXPECT_TRUE(seen.insert(id).second) << "dup id, q=" << q;
      EXPECT_TRUE(std::isfinite(r->neighbors.distances[q * 8 + i]));
    }
  }
}

TEST_F(ShardedTest, PaddingFilteredWhenKExceedsDataset) {
  // k = 10 > 8 total rows: even the merged global list cannot fill k,
  // and the tail must be the canonical 0xffffffff/inf padding.
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto tiny = GenerateDataset(*p, 8, 3, 101);
  BuildParams bp;
  bp.graph_degree = 2;
  auto index = ShardedCagraIndex::Build(tiny.base, bp, 2);
  ASSERT_TRUE(index.ok());
  SearchParams sp;
  sp.k = 10;
  sp.itopk = 16;
  auto r = index->Search(tiny.queries, sp);
  ASSERT_TRUE(r.ok());
  for (size_t q = 0; q < tiny.queries.rows(); q++) {
    size_t valid = 0;
    for (size_t i = 0; i < 10; i++) {
      const uint32_t id = r->neighbors.ids[q * 10 + i];
      if (id != 0xffffffffu) {
        EXPECT_LT(id, tiny.base.rows());
        valid++;
      } else {
        EXPECT_TRUE(std::isinf(r->neighbors.distances[q * 10 + i]));
      }
    }
    // All 8 real rows are reachable by the union of the two shards'
    // exhaustive-breadth searches.
    EXPECT_EQ(valid, tiny.base.rows()) << "q=" << q;
  }
}

TEST_F(ShardedTest, ModeledTimeIsMaxShardNotSum) {
  BuildParams bp;
  bp.graph_degree = 16;
  auto index = ShardedCagraIndex::Build(data_->base, bp, 4);
  ASSERT_TRUE(index.ok());
  SearchParams sp;
  sp.k = 10;
  sp.itopk = 64;
  auto sharded = index->Search(data_->queries, sp);
  ASSERT_TRUE(sharded.ok());
  // One shard alone, searched as a plain index, should cost roughly the
  // same as the whole sharded search (shards run in parallel).
  auto one = Search(index->shard(0), data_->queries, sp);
  ASSERT_TRUE(one.ok());
  EXPECT_LT(sharded->modeled_seconds, 2.0 * one->modeled_seconds);
}

}  // namespace
}  // namespace cagra
