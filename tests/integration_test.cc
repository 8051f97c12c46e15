#include <gtest/gtest.h>

#include "baselines/ganns/ganns.h"
#include "baselines/ggnn/ggnn.h"
#include "baselines/hnsw/hnsw.h"
#include "baselines/nssg/nssg.h"
#include "core/search.h"
#include "dataset/profile.h"
#include "dataset/synthetic.h"
#include "graph/analysis.h"
#include "knn/bruteforce.h"

namespace cagra {
namespace {

/// End-to-end comparison fixture: one dataset, every method, shared
/// ground truth — a miniature of the paper's §V setup.
class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const DatasetProfile* p = FindProfile("DEEP-1M");
    data_ = new SyntheticData(GenerateDataset(*p, 2500, 50, 2024));
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

SyntheticData* IntegrationTest::data_ = nullptr;
Matrix<uint32_t>* IntegrationTest::gt_ = nullptr;

TEST_F(IntegrationTest, AllMethodsReachNinetyPercentRecall) {
  // CAGRA.
  BuildParams bp;
  bp.graph_degree = 16;
  auto cagra_index = CagraIndex::Build(data_->base, bp);
  ASSERT_TRUE(cagra_index.ok());
  SearchParams sp;
  sp.k = 10;
  sp.itopk = 96;
  auto cagra_result = Search(*cagra_index, data_->queries, sp);
  ASSERT_TRUE(cagra_result.ok());
  EXPECT_GT(ComputeRecall(cagra_result->neighbors, *gt_), 0.9) << "CAGRA";

  // HNSW.
  HnswParams hp;
  hp.m = 12;
  HnswIndex hnsw = HnswIndex::Build(data_->base, hp);
  EXPECT_GT(ComputeRecall(hnsw.Search(data_->queries, 10, 96), *gt_), 0.9)
      << "HNSW";

  // NSSG.
  NssgParams np;
  np.degree = 24;
  np.knn_k = 24;
  NssgIndex nssg = NssgIndex::Build(data_->base, np);
  EXPECT_GT(ComputeRecall(nssg.Search(data_->queries, 10, 120), *gt_), 0.85)
      << "NSSG";

  // GGNN.
  GgnnParams gp;
  gp.degree = 20;
  GgnnIndex ggnn = GgnnIndex::Build(data_->base, gp);
  KernelCounters gc;
  EXPECT_GT(ComputeRecall(ggnn.Search(data_->queries, 10, 120, &gc), *gt_),
            0.85)
      << "GGNN";

  // GANNS.
  GannsParams ap;
  ap.m = 16;
  GannsIndex ganns = GannsIndex::Build(data_->base, ap);
  KernelCounters ac;
  EXPECT_GT(ComputeRecall(ganns.Search(data_->queries, 10, 120, &ac), *gt_),
            0.85)
      << "GANNS";
}

TEST_F(IntegrationTest, CagraGraphBeatsRawKnnGraphUnderSameSearch) {
  // Fig. 12 in miniature: same search implementation (NSSG's), two
  // graphs — the optimized CAGRA graph must dominate the raw kNN graph
  // truncated to equal degree.
  BuildParams bp;
  bp.graph_degree = 16;
  auto cagra_index = CagraIndex::Build(data_->base, bp);
  ASSERT_TRUE(cagra_index.ok());
  const FixedDegreeGraph knn = ExactKnnGraph(data_->base, 16, Metric::kL2);

  auto recall_with = [&](const AdjacencyGraph& graph) {
    size_t hits = 0;
    for (size_t q = 0; q < data_->queries.rows(); q++) {
      auto r = NssgIndex::SearchGraph(data_->base, Metric::kL2, graph,
                                      data_->queries.Row(q), 10, 50, q);
      for (const auto& [d, id] : r) {
        const uint32_t* row = gt_->Row(q);
        for (size_t i = 0; i < 10; i++) {
          if (row[i] == id) {
            hits++;
            break;
          }
        }
      }
    }
    return static_cast<double>(hits) /
           static_cast<double>(10 * data_->queries.rows());
  };

  const auto snap = cagra_index->snapshot();
  const double cagra_recall = recall_with(ToAdjacency(snap->GraphRef()));
  const double knn_recall = recall_with(ToAdjacency(knn));
  EXPECT_GT(cagra_recall, knn_recall)
      << "optimized graph must beat raw kNN graph (Fig. 12)";
}

TEST_F(IntegrationTest, CagraModeledQpsBeatsGpuBaselinesAtLargeBatch) {
  // Fig. 13 in miniature: at matched recall targets, CAGRA's modeled
  // large-batch QPS should exceed the GGNN/GANNS-style baselines.
  BuildParams bp;
  bp.graph_degree = 16;
  auto cagra_index = CagraIndex::Build(data_->base, bp);
  ASSERT_TRUE(cagra_index.ok());
  SearchParams sp;
  sp.k = 10;
  sp.itopk = 64;
  sp.algo = SearchAlgo::kSingleCta;
  auto cagra_result = Search(*cagra_index, data_->queries, sp);
  ASSERT_TRUE(cagra_result.ok());

  GgnnParams gp;
  gp.degree = 20;
  GgnnIndex ggnn = GgnnIndex::Build(data_->base, gp);
  KernelCounters ggnn_counters;
  ggnn.Search(data_->queries, 10, 64, &ggnn_counters);
  DeviceSpec dev;
  const double ggnn_qps =
      EstimateQps(dev, ggnn.LaunchConfig(data_->queries.rows()),
                  ggnn_counters);
  EXPECT_GT(cagra_result->modeled_qps, ggnn_qps);
}

TEST_F(IntegrationTest, StrongConnectivityOrdering) {
  // The optimized CAGRA graph should have no more strong components
  // than the degree-matched kNN graph (Fig. 3's right panel).
  BuildParams bp;
  bp.graph_degree = 16;
  auto cagra_index = CagraIndex::Build(data_->base, bp);
  ASSERT_TRUE(cagra_index.ok());
  const FixedDegreeGraph knn = ExactKnnGraph(data_->base, 16, Metric::kL2);
  const auto snap = cagra_index->snapshot();
  EXPECT_LE(CountStrongComponents(snap->GraphRef()),
            CountStrongComponents(knn));
}

TEST_F(IntegrationTest, BuildStatsCoverAllPhases) {
  BuildParams bp;
  bp.graph_degree = 16;
  BuildStats stats;
  auto index = CagraIndex::Build(data_->base, bp, &stats);
  ASSERT_TRUE(index.ok());
  EXPECT_GT(stats.knn.seconds, 0.0);
  EXPECT_GT(stats.optimize.total_seconds, 0.0);
  EXPECT_GE(stats.total_seconds,
            stats.knn.seconds + stats.optimize.total_seconds);
}

}  // namespace
}  // namespace cagra
