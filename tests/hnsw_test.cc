#include <gtest/gtest.h>

#include "baselines/hnsw/hnsw.h"
#include "dataset/profile.h"
#include "dataset/synthetic.h"
#include "knn/bruteforce.h"

namespace cagra {
namespace {

class HnswTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const DatasetProfile* p = FindProfile("DEEP-1M");
    data_ = new SyntheticData(GenerateDataset(*p, 2000, 32, 321));
    HnswParams params;
    params.m = 12;
    params.ef_construction = 100;
    params.metric = p->metric;
    stats_ = new HnswBuildStats;
    index_ = new HnswIndex(HnswIndex::Build(data_->base, params, stats_));
    gt_ = new Matrix<uint32_t>(
        ComputeGroundTruth(data_->base, data_->queries, 10, p->metric));
  }
  static void TearDownTestSuite() {
    delete data_;
    delete index_;
    delete gt_;
    delete stats_;
  }

  static SyntheticData* data_;
  static HnswIndex* index_;
  static Matrix<uint32_t>* gt_;
  static HnswBuildStats* stats_;
};

SyntheticData* HnswTest::data_ = nullptr;
HnswIndex* HnswTest::index_ = nullptr;
Matrix<uint32_t>* HnswTest::gt_ = nullptr;
HnswBuildStats* HnswTest::stats_ = nullptr;

TEST_F(HnswTest, BuildStatsPopulated) {
  EXPECT_GT(stats_->seconds, 0.0);
  EXPECT_GT(stats_->distance_computations, 0u);
}

TEST_F(HnswTest, HighRecallAtModestEf) {
  const NeighborList r = index_->Search(data_->queries, 10, 64);
  EXPECT_GT(ComputeRecall(r, *gt_), 0.9);
}

TEST_F(HnswTest, RecallGrowsWithEf) {
  const double low =
      ComputeRecall(index_->Search(data_->queries, 10, 16), *gt_);
  const double high =
      ComputeRecall(index_->Search(data_->queries, 10, 128), *gt_);
  EXPECT_GE(high + 1e-9, low);
  EXPECT_GT(high, 0.93);
}

TEST_F(HnswTest, ResultsAscendingAndValid) {
  const NeighborList r = index_->Search(data_->queries, 10, 64);
  for (size_t q = 0; q < data_->queries.rows(); q++) {
    for (size_t i = 0; i < 10; i++) {
      EXPECT_LT(r.ids[q * 10 + i], 2000u);
      if (i > 0) {
        EXPECT_LE(r.distances[q * 10 + i - 1], r.distances[q * 10 + i]);
      }
    }
  }
}

TEST_F(HnswTest, BottomLayerDegreesBounded) {
  const auto& bottom = index_->BottomLayer();
  for (size_t v = 0; v < bottom.num_nodes(); v++) {
    EXPECT_LE(bottom.Neighbors(v).size(), 24u);  // m0 = 2m
  }
  EXPECT_GT(index_->AverageBottomDegree(), 4.0);
}

TEST_F(HnswTest, HierarchyExists) {
  // With 2000 nodes and mL = 1/ln(12), several levels are expected.
  EXPECT_GE(index_->max_level(), 1u);
  EXPECT_EQ(stats_->max_level, index_->max_level());
}

TEST_F(HnswTest, SearchStatsCountWork) {
  HnswSearchStats stats;
  index_->Search(data_->queries, 10, 64, &stats);
  EXPECT_GT(stats.distance_computations, data_->queries.rows() * 10);
  EXPECT_GT(stats.hops, data_->queries.rows());
}

TEST_F(HnswTest, SingleQueryMatchesBatchRow) {
  auto one = index_->SearchOne(data_->queries.Row(3), 10, 64);
  const NeighborList batch = index_->Search(data_->queries, 10, 64);
  ASSERT_EQ(one.size(), 10u);
  for (size_t i = 0; i < 10; i++) {
    EXPECT_EQ(one[i].second, batch.ids[3 * 10 + i]);
  }
}

TEST(HnswEdgeCaseTest, EmptyIndexReturnsNothing) {
  Matrix<float> empty;
  HnswParams params;
  HnswIndex index = HnswIndex::Build(empty, params);
  float q[4] = {0, 0, 0, 0};
  EXPECT_TRUE(index.SearchOne(q, 5, 10).empty());
}

TEST(HnswEdgeCaseTest, TinyDatasetExactResults) {
  const DatasetProfile* p = FindProfile("SIFT-1M");
  auto data = GenerateDataset(*p, 20, 4, 77);
  HnswParams params;
  params.m = 8;
  HnswIndex index = HnswIndex::Build(data.base, params);
  const auto gt = ComputeGroundTruth(data.base, data.queries, 5, p->metric);
  const NeighborList r = index.Search(data.queries, 5, 20);
  EXPECT_EQ(ComputeRecall(r, gt), 1.0);
}

}  // namespace
}  // namespace cagra
