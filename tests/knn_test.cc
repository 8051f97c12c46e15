#include <algorithm>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "dataset/profile.h"
#include "dataset/synthetic.h"
#include "knn/bruteforce.h"
#include "knn/nn_descent.h"

namespace cagra {
namespace {

/// Tiny deterministic dataset: points on a line so neighbors are obvious.
Matrix<float> LineDataset(size_t n) {
  Matrix<float> m(n, 2);
  for (size_t i = 0; i < n; i++) {
    m.MutableRow(i)[0] = static_cast<float>(i);
    m.MutableRow(i)[1] = 0.0f;
  }
  return m;
}

TEST(BruteForceTest, LineNearestNeighbors) {
  Matrix<float> base = LineDataset(10);
  Matrix<float> queries(1, 2);
  queries.MutableRow(0)[0] = 4.2f;
  const NeighborList r = ExactSearch(base, queries, 3, Metric::kL2);
  EXPECT_EQ(r.Row(0)[0], 4u);
  EXPECT_EQ(r.Row(0)[1], 5u);
  EXPECT_EQ(r.Row(0)[2], 3u);
}

TEST(BruteForceTest, DistancesAscending) {
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 300, 10, 11);
  const NeighborList r = ExactSearch(data.base, data.queries, 10, p->metric);
  for (size_t q = 0; q < 10; q++) {
    for (size_t i = 1; i < 10; i++) {
      EXPECT_LE(r.distances[q * 10 + i - 1], r.distances[q * 10 + i]);
    }
  }
}

TEST(BruteForceTest, GroundTruthMatrixMatchesSearch) {
  Matrix<float> base = LineDataset(20);
  Matrix<float> queries(2, 2);
  queries.MutableRow(0)[0] = 0.1f;
  queries.MutableRow(1)[0] = 19.0f;
  const auto gt = ComputeGroundTruth(base, queries, 2, Metric::kL2);
  EXPECT_EQ(gt.Row(0)[0], 0u);
  EXPECT_EQ(gt.Row(1)[0], 19u);
}

TEST(BruteForceTest, KnnGraphExcludesSelf) {
  Matrix<float> base = LineDataset(15);
  const FixedDegreeGraph g = ExactKnnGraph(base, 4, Metric::kL2);
  for (size_t v = 0; v < 15; v++) {
    for (size_t j = 0; j < 4; j++) {
      EXPECT_NE(g.Neighbors(v)[j], static_cast<uint32_t>(v));
    }
  }
}

TEST(BruteForceTest, KnnGraphRowsSortedByDistance) {
  const DatasetProfile* p = FindProfile("SIFT-1M");
  auto data = GenerateDataset(*p, 200, 1, 13);
  const FixedDegreeGraph g = ExactKnnGraph(data.base, 8, p->metric);
  for (size_t v = 0; v < g.num_nodes(); v++) {
    float prev = -1.0f;
    for (size_t j = 0; j < g.degree(); j++) {
      const float d =
          ComputeDistance(p->metric, data.base.Row(v),
                          data.base.Row(g.Neighbors(v)[j]), data.base.dim());
      EXPECT_GE(d, prev) << v << " " << j;
      prev = d;
    }
  }
}

TEST(BruteForceTest, LineKnnGraphIsAdjacent) {
  Matrix<float> base = LineDataset(30);
  const FixedDegreeGraph g = ExactKnnGraph(base, 2, Metric::kL2);
  // Interior points: the two nearest are i-1 and i+1.
  for (size_t v = 1; v + 1 < 30; v++) {
    std::set<uint32_t> nbrs = {g.Neighbors(v)[0], g.Neighbors(v)[1]};
    EXPECT_TRUE(nbrs.count(static_cast<uint32_t>(v - 1))) << v;
    EXPECT_TRUE(nbrs.count(static_cast<uint32_t>(v + 1))) << v;
  }
}

// ---------------------------------------------------------------- NN-descent

TEST(NnDescentTest, GraphShape) {
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 500, 1, 17);
  NnDescentParams params;
  params.k = 16;
  const FixedDegreeGraph g =
      BuildKnnGraphNnDescent(data.base, params, p->metric);
  EXPECT_EQ(g.num_nodes(), 500u);
  EXPECT_EQ(g.degree(), 16u);
}

TEST(NnDescentTest, NoSelfEdgesNoDuplicates) {
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 400, 1, 19);
  NnDescentParams params;
  params.k = 12;
  const FixedDegreeGraph g =
      BuildKnnGraphNnDescent(data.base, params, p->metric);
  for (size_t v = 0; v < g.num_nodes(); v++) {
    std::set<uint32_t> seen;
    for (size_t j = 0; j < g.degree(); j++) {
      const uint32_t u = g.Neighbors(v)[j];
      if (u == FixedDegreeGraph::kInvalid) continue;
      EXPECT_NE(u, static_cast<uint32_t>(v)) << v;
      EXPECT_TRUE(seen.insert(u).second) << v << " dup " << u;
    }
  }
}

TEST(NnDescentTest, RowsSortedByDistance) {
  const DatasetProfile* p = FindProfile("SIFT-1M");
  auto data = GenerateDataset(*p, 300, 1, 23);
  NnDescentParams params;
  params.k = 10;
  const FixedDegreeGraph g =
      BuildKnnGraphNnDescent(data.base, params, p->metric);
  for (size_t v = 0; v < g.num_nodes(); v++) {
    float prev = -1.0f;
    for (size_t j = 0; j < g.degree(); j++) {
      const uint32_t u = g.Neighbors(v)[j];
      if (u == FixedDegreeGraph::kInvalid) continue;
      const float d = ComputeDistance(p->metric, data.base.Row(v),
                                      data.base.Row(u), data.base.dim());
      EXPECT_GE(d, prev);
      prev = d;
    }
  }
}

TEST(NnDescentTest, HighRecallAgainstExactGraph) {
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 600, 1, 29);
  NnDescentParams params;
  params.k = 16;
  NnDescentStats stats;
  const FixedDegreeGraph approx =
      BuildKnnGraphNnDescent(data.base, params, p->metric, &stats);
  const FixedDegreeGraph exact = ExactKnnGraph(data.base, 16, p->metric);

  size_t hits = 0, total = 0;
  for (size_t v = 0; v < 600; v++) {
    std::set<uint32_t> truth(exact.Neighbors(v), exact.Neighbors(v) + 16);
    for (size_t j = 0; j < 16; j++) {
      const uint32_t u = approx.Neighbors(v)[j];
      if (u != FixedDegreeGraph::kInvalid && truth.count(u)) hits++;
      total++;
    }
  }
  const double recall = static_cast<double>(hits) / total;
  EXPECT_GT(recall, 0.90) << "NN-descent graph recall too low";
  EXPECT_GT(stats.iterations, 0u);
  EXPECT_GT(stats.distance_computations, 0u);
}

TEST(NnDescentTest, FarCheaperThanExact) {
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 2000, 1, 31);
  NnDescentParams params;
  params.k = 16;
  NnDescentStats stats;
  BuildKnnGraphNnDescent(data.base, params, p->metric, &stats);
  // Exact graph would need n*(n-1) = ~4M distance computations.
  EXPECT_LT(stats.distance_computations, 2000ull * 1999 / 2);
}

TEST(NnDescentTest, DeterministicInSeed) {
  const DatasetProfile* p = FindProfile("SIFT-1M");
  auto data = GenerateDataset(*p, 300, 1, 37);
  NnDescentParams params;
  params.k = 8;
  params.seed = 42;
  const auto a = BuildKnnGraphNnDescent(data.base, params, p->metric);
  const auto b = BuildKnnGraphNnDescent(data.base, params, p->metric);
  EXPECT_EQ(a.edges(), b.edges());

  // Every row 4 times, so distances tie exactly all over. Builds run two
  // at a time, which interleaves the local joins' inserts differently
  // from the reference build's; the graph must not depend on that.
  const auto distinct = GenerateDataset(*p, 100, 1, 43);
  Matrix<float> tied(4 * distinct.base.rows(), distinct.base.dim());
  for (size_t r = 0; r < tied.rows(); r++) {
    const float* row = distinct.base.Row(r % distinct.base.rows());
    std::copy(row, row + tied.dim(), tied.MutableRow(r));
  }
  params.k = 16;
  const auto reference = BuildKnnGraphNnDescent(tied, params, p->metric);
  for (int round = 0; round < 4; round++) {
    FixedDegreeGraph builds[2];
    std::thread other([&] {
      builds[1] = BuildKnnGraphNnDescent(tied, params, p->metric);
    });
    builds[0] = BuildKnnGraphNnDescent(tied, params, p->metric);
    other.join();
    for (const FixedDegreeGraph& g : builds) {
      EXPECT_EQ(g.edges(), reference.edges()) << "round " << round;
    }
  }
}

TEST(NnDescentTest, TinyDatasetDegreeClamped) {
  Matrix<float> base = LineDataset(5);
  NnDescentParams params;
  params.k = 10;  // more than n-1
  const FixedDegreeGraph g =
      BuildKnnGraphNnDescent(base, params, Metric::kL2);
  EXPECT_EQ(g.num_nodes(), 5u);
  // Each node can have at most 4 valid neighbors; the rest is padding.
  for (size_t v = 0; v < 5; v++) {
    size_t valid = 0;
    for (size_t j = 0; j < g.degree(); j++) {
      if (g.Neighbors(v)[j] != FixedDegreeGraph::kInvalid) valid++;
    }
    EXPECT_LE(valid, 4u);
    EXPECT_GE(valid, 1u);
  }
}

}  // namespace
}  // namespace cagra
