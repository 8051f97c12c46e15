#include <set>

#include <gtest/gtest.h>

#include "core/search.h"
#include "dataset/profile.h"
#include "dataset/synthetic.h"
#include "knn/bruteforce.h"
#include "util/sort.h"

namespace cagra {
namespace {

/// Shared fixture: one small clustered dataset + built index, reused by
/// all tests in this file (building is the slow part).
class CagraSearchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const DatasetProfile* p = FindProfile("DEEP-1M");
    data_ = new SyntheticData(GenerateDataset(*p, 3000, 64, 123));
    BuildParams params;
    params.graph_degree = 16;
    params.metric = p->metric;
    auto built = CagraIndex::Build(data_->base, params);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    index_ = new CagraIndex(std::move(built.value()));
    index_->EnableHalfPrecision();
    gt_ = new Matrix<uint32_t>(
        ComputeGroundTruth(data_->base, data_->queries, 10, p->metric));
  }
  static void TearDownTestSuite() {
    delete data_;
    delete index_;
    delete gt_;
    data_ = nullptr;
    index_ = nullptr;
    gt_ = nullptr;
  }

  static SyntheticData* data_;
  static CagraIndex* index_;
  static Matrix<uint32_t>* gt_;
};

SyntheticData* CagraSearchTest::data_ = nullptr;
CagraIndex* CagraSearchTest::index_ = nullptr;
Matrix<uint32_t>* CagraSearchTest::gt_ = nullptr;

TEST_F(CagraSearchTest, SingleCtaHighRecall) {
  SearchParams params;
  params.k = 10;
  params.itopk = 64;
  params.algo = SearchAlgo::kSingleCta;
  auto r = Search(*index_, data_->queries, params);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(ComputeRecall(r->neighbors, *gt_), 0.9);
}

TEST_F(CagraSearchTest, MultiCtaHighRecall) {
  SearchParams params;
  params.k = 10;
  params.itopk = 64;
  params.algo = SearchAlgo::kMultiCta;
  auto r = Search(*index_, data_->queries, params);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(ComputeRecall(r->neighbors, *gt_), 0.9);
}

TEST_F(CagraSearchTest, ResultsSortedAscending) {
  SearchParams params;
  params.k = 10;
  params.itopk = 64;
  for (SearchAlgo algo : {SearchAlgo::kSingleCta, SearchAlgo::kMultiCta}) {
    params.algo = algo;
    auto r = Search(*index_, data_->queries, params);
    ASSERT_TRUE(r.ok());
    for (size_t q = 0; q < data_->queries.rows(); q++) {
      for (size_t i = 1; i < 10; i++) {
        EXPECT_LE(r->neighbors.distances[q * 10 + i - 1],
                  r->neighbors.distances[q * 10 + i]);
      }
    }
  }
}

TEST_F(CagraSearchTest, NoDuplicateOrInvalidIds) {
  SearchParams params;
  params.k = 10;
  params.itopk = 64;
  for (SearchAlgo algo : {SearchAlgo::kSingleCta, SearchAlgo::kMultiCta}) {
    params.algo = algo;
    auto r = Search(*index_, data_->queries, params);
    ASSERT_TRUE(r.ok());
    for (size_t q = 0; q < data_->queries.rows(); q++) {
      std::set<uint32_t> seen;
      for (size_t i = 0; i < 10; i++) {
        const uint32_t id = r->neighbors.ids[q * 10 + i];
        // MSB must be stripped and the id in range.
        EXPECT_LT(id, index_->size()) << q << " " << i;
        EXPECT_TRUE(seen.insert(id).second) << "dup in query " << q;
      }
    }
  }
}

TEST_F(CagraSearchTest, DeterministicForSameSeed) {
  SearchParams params;
  params.k = 10;
  params.itopk = 64;
  params.seed = 99;
  auto a = Search(*index_, data_->queries, params);
  auto b = Search(*index_, data_->queries, params);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->neighbors.ids, b->neighbors.ids);
}

TEST_F(CagraSearchTest, RecallGrowsWithItopk) {
  SearchParams params;
  params.k = 10;
  params.algo = SearchAlgo::kSingleCta;
  params.itopk = 16;
  auto low = Search(*index_, data_->queries, params);
  params.itopk = 128;
  auto high = Search(*index_, data_->queries, params);
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  EXPECT_GE(ComputeRecall(high->neighbors, *gt_) + 1e-9,
            ComputeRecall(low->neighbors, *gt_));
}

TEST_F(CagraSearchTest, Fp16RecallMatchesFp32) {
  SearchParams params;
  params.k = 10;
  params.itopk = 64;
  params.algo = SearchAlgo::kSingleCta;
  auto fp32 = Search(*index_, data_->queries, params);
  params.precision = Precision::kFp16;
  auto fp16 = Search(*index_, data_->queries, params);
  ASSERT_TRUE(fp32.ok());
  ASSERT_TRUE(fp16.ok());
  const double r32 = ComputeRecall(fp32->neighbors, *gt_);
  const double r16 = ComputeRecall(fp16->neighbors, *gt_);
  EXPECT_NEAR(r16, r32, 0.05) << "fp16 must not degrade recall (§V-C)";
  // And the modeled memory traffic must be halved.
  EXPECT_LT(fp16->counters.device_vector_bytes,
            fp32->counters.device_vector_bytes);
}

TEST_F(CagraSearchTest, ForgettableHashKeepsRecall) {
  SearchParams params;
  params.k = 10;
  params.itopk = 64;
  params.algo = SearchAlgo::kSingleCta;
  params.hash_mode = HashMode::kStandard;
  auto standard = Search(*index_, data_->queries, params);
  params.hash_mode = HashMode::kForgettable;
  params.hash_bits = 9;  // force a small table with resets
  params.hash_reset_interval = 1;
  auto forgettable = Search(*index_, data_->queries, params);
  ASSERT_TRUE(standard.ok());
  ASSERT_TRUE(forgettable.ok());
  const double rs = ComputeRecall(standard->neighbors, *gt_);
  const double rf = ComputeRecall(forgettable->neighbors, *gt_);
  EXPECT_GT(rf, rs - 0.05)
      << "forgettable hash must not catastrophically degrade recall";
  EXPECT_GT(forgettable->counters.hash_resets, 0u);
  // Resets may force recomputation: distance count can only grow.
  EXPECT_GE(forgettable->counters.distance_computations,
            standard->counters.distance_computations);
}

TEST_F(CagraSearchTest, HashPlacementFollowsTableTwo) {
  SearchParams params;
  params.k = 10;
  params.itopk = 64;
  params.algo = SearchAlgo::kSingleCta;
  auto single = Search(*index_, data_->queries, params);
  ASSERT_TRUE(single.ok());
  EXPECT_GT(single->counters.hash_probes_shared, 0u);
  EXPECT_EQ(single->counters.hash_probes_device, 0u);

  params.algo = SearchAlgo::kMultiCta;
  auto multi = Search(*index_, data_->queries, params);
  ASSERT_TRUE(multi.ok());
  EXPECT_GT(multi->counters.hash_probes_device, 0u);
  EXPECT_EQ(multi->counters.hash_probes_shared, 0u);
}

TEST_F(CagraSearchTest, AutoModePicksMultiForSmallBatch) {
  SearchParams params;
  params.k = 10;
  params.itopk = 64;
  auto r = Search(*index_, data_->queries, params);  // 64 queries < 108 SMs
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->algo_used, SearchAlgo::kMultiCta);
}

TEST_F(CagraSearchTest, AutoModeRespectsItopkThreshold) {
  // Fig. 7: large itopk forces multi-CTA even at large batch.
  EXPECT_EQ(ChooseAlgo(10000, 1024), SearchAlgo::kMultiCta);
  EXPECT_EQ(ChooseAlgo(10000, 64), SearchAlgo::kSingleCta);
  EXPECT_EQ(ChooseAlgo(4, 64), SearchAlgo::kMultiCta);
}

TEST_F(CagraSearchTest, CountersAreConsistent) {
  SearchParams params;
  params.k = 10;
  params.itopk = 64;
  params.algo = SearchAlgo::kSingleCta;
  auto r = Search(*index_, data_->queries, params);
  ASSERT_TRUE(r.ok());
  const auto& c = r->counters;
  EXPECT_EQ(c.queries, data_->queries.rows());
  // Every distance loads exactly one dataset row.
  EXPECT_EQ(c.device_vector_bytes,
            c.distance_computations * index_->dim() * sizeof(float));
  EXPECT_EQ(c.distance_elements, c.distance_computations * index_->dim());
  // Distances are capped by visits: at most one per hash insert.
  EXPECT_LE(c.distance_computations,
            c.hash_probes_shared + c.hash_probes_device);
  EXPECT_GT(c.iterations, 0u);
  EXPECT_LE(c.max_iterations, 1024u);
  EXPECT_GT(c.sort_exchanges, 0u);
}

TEST_F(CagraSearchTest, SortChargesFollowTheSearchShape) {
  // Single-CTA charges one seeding sort of the whole buffer per query
  // and one candidate sort plus top-M merge per iteration, whatever the
  // graph does: the §IV-B2 counts depend on lengths alone.
  for (const auto& [itopk, width] : {std::pair<size_t, size_t>{64, 1},
                                     std::pair<size_t, size_t>{32, 2}}) {
    SearchParams params;
    params.k = 10;
    params.itopk = itopk;
    params.search_width = width;
    params.algo = SearchAlgo::kSingleCta;
    auto r = Search(*index_, data_->queries, params);
    ASSERT_TRUE(r.ok());
    const size_t candidates = width * index_->degree();
    const KernelCounters& c = r->counters;
    EXPECT_EQ(c.sort_exchanges,
              c.queries * BitonicSortExchanges(itopk + candidates) +
                  c.iterations * (BitonicSortExchanges(candidates) +
                                  BitonicMergeExchanges(itopk, candidates)))
        << itopk << " " << width;
    EXPECT_EQ(c.radix_scatters, 0u);
  }
}

TEST_F(CagraSearchTest, ModeledCostPopulated) {
  SearchParams params;
  params.k = 10;
  params.itopk = 64;
  auto r = Search(*index_, data_->queries, params);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->modeled_seconds, 0.0);
  EXPECT_GT(r->modeled_qps, 0.0);
  EXPECT_GT(r->team_size_used, 0u);
  EXPECT_GT(r->launch.shared_mem_per_cta, 0u);
}

TEST_F(CagraSearchTest, SingleQueryMultiCtaBeatsSingleCtaQps) {
  // Fig. 10 top row: for batch = 1 at a wide internal list (the
  // high-recall regime the mode targets), the multi-CTA mapping wins —
  // its lockstep iterations cover 64x more nodes per step, so the
  // dependent-iteration chain is far shorter.
  Matrix<float> one(1, data_->queries.dim());
  std::copy(data_->queries.Row(0), data_->queries.Row(0) + one.dim(),
            one.MutableRow(0));
  SearchParams params;
  params.k = 10;
  params.itopk = 256;
  params.algo = SearchAlgo::kSingleCta;
  auto single = Search(*index_, one, params);
  params.algo = SearchAlgo::kMultiCta;
  auto multi = Search(*index_, one, params);
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(multi.ok());
  EXPECT_GT(multi->modeled_qps, single->modeled_qps);
}

TEST(CagraSearchTieTest, EqualDistancesComeOutInIdOrder) {
  // Every row appears 4 times, so each query meets exact distance ties.
  // Both modes must return each row in (distance, id) order, the order
  // the rerank and the shard merge already emit.
  const DatasetProfile* p = FindProfile("DEEP-1M");
  const SyntheticData data = GenerateDataset(*p, 400, 64, 41);
  const size_t copies = 4;
  const size_t distinct = data.base.rows();
  Matrix<float> base(distinct * copies, data.base.dim());
  for (size_t r = 0; r < base.rows(); r++) {
    std::copy(data.base.Row(r % distinct),
              data.base.Row(r % distinct) + base.dim(), base.MutableRow(r));
  }
  BuildParams bp;
  bp.graph_degree = 16;
  bp.metric = p->metric;
  auto built = CagraIndex::Build(base, bp);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  for (SearchAlgo algo : {SearchAlgo::kSingleCta, SearchAlgo::kMultiCta}) {
    SearchParams params;
    params.k = 10;
    params.itopk = 64;
    params.algo = algo;
    auto r = Search(*built, data.queries, params);
    ASSERT_TRUE(r.ok());
    size_t broken_rows = 0;
    for (size_t q = 0; q < data.queries.rows(); q++) {
      const uint32_t* ids = r->neighbors.ids.data() + q * params.k;
      const float* dists = r->neighbors.distances.data() + q * params.k;
      for (size_t i = 1; i < params.k; i++) {
        if (!(dists[i - 1] < dists[i] ||
              (dists[i - 1] == dists[i] && ids[i - 1] < ids[i]))) {
          broken_rows++;
          break;
        }
      }
    }
    EXPECT_EQ(broken_rows, 0u) << "algo " << static_cast<int>(algo);
  }
}

// ---------------------------------------------------------- validation

TEST_F(CagraSearchTest, RejectsDimMismatch) {
  Matrix<float> bad(2, index_->dim() + 1);
  SearchParams params;
  auto r = Search(*index_, bad, params);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CagraSearchTest, RejectsZeroK) {
  SearchParams params;
  params.k = 0;
  auto r = Search(*index_, data_->queries, params);
  EXPECT_FALSE(r.ok());
}

TEST_F(CagraSearchTest, RejectsFp16WithoutEnable) {
  BuildParams bp;
  bp.graph_degree = 8;
  auto plain = CagraIndex::Build(data_->base, bp);
  ASSERT_TRUE(plain.ok());
  SearchParams params;
  params.k = 5;
  params.precision = Precision::kFp16;
  auto r = Search(*plain, data_->queries, params);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CagraSearchTest, RejectsExplicitItopkBelowK) {
  // The header has always documented "Requires: params.k <= params.itopk",
  // but the old check compared k against max(itopk, k) and could never
  // fire — a degenerate request was silently reshaped instead of
  // rejected.
  SearchParams params;
  params.k = 32;
  params.itopk = 8;
  auto r = Search(*index_, data_->queries, params);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CagraSearchTest, AutoItopkZeroWidensToK) {
  SearchParams params;
  params.k = 32;
  params.itopk = 0;  // auto: resolves to max(64, k)
  auto r = Search(*index_, data_->queries, params);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->neighbors.k, 32u);
}

TEST_F(CagraSearchTest, DefaultParamsAcceptLargeK) {
  // Untouched SearchParams must keep working for k beyond the old
  // default itopk of 64 (the auto default widens, never rejects).
  SearchParams params;
  params.k = 100;
  auto r = Search(*index_, data_->queries, params);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->neighbors.k, 100u);
}

// ---------------------------------------------------------- team size

TEST(TeamSizeTest, AutoPickMatchesPaperRegimes) {
  DeviceSpec dev;
  // dim 96 fp32: small vectors want split warps (4 or 8).
  const size_t small_dim = PickTeamSize(dev, 96, 4, 256, 32);
  EXPECT_GE(small_dim, 4u);
  EXPECT_LE(small_dim, 8u);
  // dim 960 fp32: full warp.
  const size_t large_dim = PickTeamSize(dev, 960, 4, 256, 48);
  EXPECT_GE(large_dim, 16u);
}

}  // namespace
}  // namespace cagra
