#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/search.h"
#include "core/search_internal.h"
#include "dataset/profile.h"
#include "dataset/synthetic.h"
#include "knn/bruteforce.h"
#include "util/rng.h"
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
  // The default tables never re-admit a node, so every row holds k ids.
  // A 2^8-slot standard table overflows and re-admits nodes, so the
  // top-M holds copies of them, which the emission must drop; where
  // fewer than k distinct nodes are left, the row ends in pads
  // (kInvalidEntry at +inf).
  struct Input {
    SearchAlgo algo;
    HashMode hash_mode;
    size_t hash_bits, itopk, k;
  };
  const Input inputs[] = {
      {SearchAlgo::kSingleCta, HashMode::kAuto, 0, 64, 10},
      {SearchAlgo::kMultiCta, HashMode::kAuto, 0, 64, 10},
      {SearchAlgo::kSingleCta, HashMode::kStandard, 8, 128, 64},
  };
  for (const Input& in : inputs) {
    SCOPED_TRACE("algo " + std::to_string(static_cast<int>(in.algo)) +
                 " hash_bits " + std::to_string(in.hash_bits));
    SearchParams params;
    params.k = in.k;
    params.itopk = in.itopk;
    params.algo = in.algo;
    params.hash_mode = in.hash_mode;
    params.hash_bits = in.hash_bits;
    auto r = Search(*index_, data_->queries, params);
    ASSERT_TRUE(r.ok());
    for (size_t q = 0; q < data_->queries.rows(); q++) {
      const uint32_t* ids = r->neighbors.ids.data() + q * in.k;
      const float* dists = r->neighbors.distances.data() + q * in.k;
      const size_t n =
          std::find(ids, ids + in.k, internal_search::kInvalidEntry) - ids;
      if (in.hash_bits == 0) EXPECT_EQ(n, in.k) << q;
      EXPECT_GT(n, 0u) << q;
      std::set<uint32_t> seen;
      for (size_t i = 0; i < n; i++) {
        // MSB must be stripped and the id in range.
        EXPECT_LT(ids[i], index_->size()) << q << " " << i;
        EXPECT_TRUE(seen.insert(ids[i]).second) << "dup in query " << q;
        if (i > 0) {
          EXPECT_TRUE(KeyValueLess({dists[i - 1], ids[i - 1]},
                                   {dists[i], ids[i]}))
              << q << " " << i;
        }
      }
      for (size_t i = n; i < in.k; i++) {
        EXPECT_EQ(ids[i], internal_search::kInvalidEntry) << q << " " << i;
        EXPECT_EQ(dists[i], std::numeric_limits<float>::infinity());
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
  // (32, 4) merges 64 slots into 32; hash_bits 9 makes the forgettable
  // table reset every iteration, which re-admits visited nodes.
  struct Shape {
    size_t itopk, width, hash_bits;
  };
  for (const Shape& s : {Shape{64, 1, 0}, Shape{32, 2, 0}, Shape{32, 4, 0},
                         Shape{64, 1, 9}}) {
    SearchParams params;
    params.k = 10;
    params.itopk = s.itopk;
    params.search_width = s.width;
    params.hash_bits = s.hash_bits;
    params.algo = SearchAlgo::kSingleCta;
    auto r = Search(*index_, data_->queries, params);
    ASSERT_TRUE(r.ok());
    const size_t slots = s.width * index_->degree();
    const KernelCounters& c = r->counters;
    EXPECT_EQ(c.sort_exchanges,
              c.queries * BitonicSortExchanges(s.itopk + slots) +
                  c.iterations * (BitonicSortExchanges(slots) +
                                  BitonicMergeExchanges(s.itopk, slots)))
        << s.itopk << " " << s.width << " " << s.hash_bits;
    EXPECT_EQ(c.radix_scatters, 0u);
    if (s.hash_bits != 0) EXPECT_GT(c.hash_resets, 0u);
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

/// A fixed random `degree`-regular graph without self-loops or repeated
/// edges. Pinned tests search it instead of a Build, so the walk does not
/// depend on the SIMD tier through the graph.
FixedDegreeGraph RandomRegularGraph(size_t rows, size_t degree, Pcg32* rng) {
  FixedDegreeGraph graph(rows, degree);
  for (size_t u = 0; u < rows; u++) {
    uint32_t* nbrs = graph.MutableNeighbors(u);
    for (size_t j = 0; j < degree; j++) {
      uint32_t v;
      do {
        v = rng->NextBounded(static_cast<uint32_t>(rows));
      } while (v == u || std::find(nbrs, nbrs + j, v) != nbrs + j);
      nbrs[j] = v;
    }
  }
  return graph;
}

TEST(CagraSearchNanTest, NanRowsTraverseAsPinned) {
  // A query row holding a NaN makes every distance NaN at every SIMD
  // tier, and NaN keys sort after the buffer's +inf pads, so the walk
  // depends on ids alone: which pads enter the top-M, which entries
  // become parents. The graph is a fixed random 16-regular one, not a
  // Build, so it does not depend on the tier either. The literals come
  // from a search that stored a pad in every empty slot; counting the
  // pads instead must walk the same way.
  constexpr size_t kRows = 1000, kDim = 8, kDegree = 16, kQueries = 3;
  Pcg32 rng(31);
  Matrix<float> base(kRows, kDim);
  for (size_t r = 0; r < kRows; r++) {
    for (size_t j = 0; j < kDim; j++) base.MutableRow(r)[j] = rng.NextFloat();
  }
  auto index = CagraIndex::FromGraph(
      base, RandomRegularGraph(kRows, kDegree, &rng), Metric::kL2);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  Matrix<float> queries(kQueries, kDim);
  for (size_t q = 0; q < kQueries; q++) {
    for (size_t j = 0; j < kDim; j++) {
      queries.MutableRow(q)[j] = rng.NextFloat();
    }
    queries.MutableRow(q)[q] = std::numeric_limits<float>::quiet_NaN();
  }

  constexpr uint32_t kNone = 0xffffffffu;
  const std::vector<uint32_t> no_rows(kQueries * 4, kNone);
  struct Expected {
    SearchAlgo algo;
    size_t width;
    size_t hash_bits;  ///< 9: a forgettable table that resets each iteration
    std::vector<uint32_t> ids;
    size_t iterations, distances, sort_exchanges, probes;
  };
  const Expected cases[] = {
      {SearchAlgo::kSingleCta, 1, 0,
       {2, 8, 11, 12, 0, 3, 8, 11, 4, 7, 8, kNone}, 42, 690, 13440, 768},
      {SearchAlgo::kSingleCta, 4, 0, no_rows, 13, 775, 19936, 880},
      {SearchAlgo::kSingleCta, 1, 9, {0, 1, 2, 3, 0, 1, 2, 3, 1, 2, 4, 7},
       72, 1216, 21600, 3161},
      {SearchAlgo::kMultiCta, 1, 0, no_rows, 3, 1883, 52224, 3072},
  };
  for (const Expected& e : cases) {
    SearchParams params;
    params.k = 4;
    params.itopk = 32;
    params.search_width = e.width;
    params.hash_bits = e.hash_bits;
    params.algo = e.algo;
    auto r = Search(*index, queries, params);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const std::string shape =
        "algo " + std::to_string(static_cast<int>(e.algo)) + " width " +
        std::to_string(e.width) + " hash_bits " + std::to_string(e.hash_bits);
    EXPECT_EQ(r->neighbors.ids, e.ids) << shape;
    for (size_t i = 0; i < e.ids.size(); i++) {
      EXPECT_EQ(std::isnan(r->neighbors.distances[i]), e.ids[i] != kNone)
          << shape << " entry " << i;
    }
    const KernelCounters& c = r->counters;
    EXPECT_EQ(c.iterations, e.iterations) << shape;
    EXPECT_EQ(c.distance_computations, e.distances) << shape;
    EXPECT_EQ(c.sort_exchanges, e.sort_exchanges) << shape;
    EXPECT_EQ(c.hash_probes_shared + c.hash_probes_device, e.probes) << shape;
    if (e.hash_bits != 0) EXPECT_GT(c.hash_resets, 0u) << shape;
  }
}

TEST(CagraSearchDegenerateTest, OneRowBuildFindsItsRow) {
  // One row clamps NN-descent's k to 0, so the graph has degree 0, and
  // the auto algorithm picks multi-CTA for a lone query. Each CTA still
  // seeds one random sample, which is the row.
  Matrix<float> base(1, 4);
  for (size_t j = 0; j < 4; j++) base.MutableRow(0)[j] = 0.5f * j;
  BuildParams build;
  build.graph_degree = 16;
  auto index = CagraIndex::Build(base, build);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ASSERT_EQ(index->degree(), 0u);
  Matrix<float> query(1, 4);
  for (size_t j = 0; j < 4; j++) query.MutableRow(0)[j] = 1.0f - 0.25f * j;
  SearchParams params;
  params.k = 2;
  auto r = Search(*index, query, params);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->algo_used, SearchAlgo::kMultiCta);
  EXPECT_EQ(r->neighbors.ids, (std::vector<uint32_t>{0, 0xffffffffu}));
  EXPECT_EQ(r->neighbors.distances[0],
            ComputeDistance(Metric::kL2, query.Row(0), base.Row(0), 4));
  EXPECT_EQ(r->rows_examined, std::vector<uint64_t>{1});
}

TEST(CagraSearchDegenerateTest, DegreeZeroGraphReturnsEveryRow) {
  // Three rows and no edges: only the random seeds reach rows. Rows 1
  // and 2 tie, so (distance, id) order puts 1 first.
  Matrix<float> base(3, 2);
  const float rows[3][2] = {{2, 0}, {0, 1}, {1, 0}};
  for (size_t r = 0; r < 3; r++) {
    std::copy(rows[r], rows[r] + 2, base.MutableRow(r));
  }
  auto index = CagraIndex::FromGraph(base, FixedDegreeGraph(3, 0),
                                     Metric::kL2);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  Matrix<float> query(1, 2);
  query.MutableRow(0)[0] = 0.0f;
  query.MutableRow(0)[1] = 0.0f;
  for (const SearchAlgo algo :
       {SearchAlgo::kSingleCta, SearchAlgo::kMultiCta}) {
    SearchParams params;
    params.k = 3;
    params.algo = algo;
    auto r = Search(*index, query, params);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const int mode = static_cast<int>(algo);
    EXPECT_EQ(r->neighbors.ids, (std::vector<uint32_t>{1, 2, 0})) << mode;
    EXPECT_EQ(r->neighbors.distances, (std::vector<float>{1, 1, 4})) << mode;
  }
}

TEST(CagraSearchEmissionTest, MultiCtaMergeAsPinned) {
  // Multi-CTA emission merges the CTAs' local lists into one top-k. The
  // rows have integer coordinates 0..3, so every distance is an exact
  // small integer at every SIMD tier and ties are common: the id tie
  // order decides which tied rows make the cut. Every 5th row is
  // tombstoned and must be skipped. At hash_bits 5 the 32-slot table
  // fills during seeding, so one id reaches several CTA lists and must
  // be emitted once. The literals come from a search that sorted all
  // ctas x 32 entries before taking the first k.
  constexpr size_t kRows = 1000, kDim = 8, kDegree = 16, kQueries = 3;
  Pcg32 rng(47);
  const auto coordinate = [&] {
    return static_cast<float>(rng.NextBounded(4));
  };
  Matrix<float> base(kRows, kDim);
  for (size_t r = 0; r < kRows; r++) {
    for (size_t j = 0; j < kDim; j++) base.MutableRow(r)[j] = coordinate();
  }
  auto index = CagraIndex::FromGraph(
      base, RandomRegularGraph(kRows, kDegree, &rng), Metric::kL2);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  CompactionOptions no_compaction;
  no_compaction.trigger_fraction = 1.0;
  index->SetCompactionOptions(no_compaction);
  std::vector<uint32_t> dead;
  for (uint32_t id = 0; id < kRows; id += 5) dead.push_back(id);
  ASSERT_TRUE(index->Remove(dead).ok());
  Matrix<float> queries(kQueries, kDim);
  for (size_t q = 0; q < kQueries; q++) {
    for (size_t j = 0; j < kDim; j++) queries.MutableRow(q)[j] = coordinate();
  }

  constexpr uint32_t kNone = 0xffffffffu;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  struct Expected {
    size_t hash_bits;
    std::vector<uint32_t> ids;
    std::vector<float> distances;
    size_t iterations, distances_computed, probes, sort_exchanges;
  };
  const Expected cases[] = {
      {0,
       {58, 66, 992, 109, 113, 322, 832, 152, 302, 412, 497, 561, 574, 578,
        683, 702, 808, 939, 164, 288, 424, 861, 877, 936, 486, 102, 269, 493,
        789, 74, 149, 257, 342, 566, 983, 204, 259, 363, 468, 556, 592, 614,
        841, 156, 237, 327, 429, 483, 121, 49, 518, 452, 501, 722, 977, 196,
        362, 401, 438, 602, 607, 706, 17, 86, 151, 172, 286, 601, 634, 666,
        776, 902},
       {3.f, 3.f, 3.f, 4.f, 4.f, 4.f, 4.f, 5.f, 5.f, 5.f, 5.f, 5.f, 5.f, 5.f,
        5.f, 5.f, 5.f, 5.f, 6.f, 6.f, 6.f, 6.f, 6.f, 6.f, 2.f, 3.f, 3.f, 3.f,
        3.f, 4.f, 4.f, 4.f, 4.f, 4.f, 4.f, 5.f, 5.f, 5.f, 5.f, 5.f, 5.f, 5.f,
        5.f, 6.f, 6.f, 6.f, 6.f, 6.f, 2.f, 3.f, 3.f, 4.f, 4.f, 4.f, 4.f, 5.f,
        5.f, 5.f, 5.f, 5.f, 5.f, 5.f, 6.f, 6.f, 6.f, 6.f, 6.f, 6.f, 6.f, 6.f,
        6.f, 6.f},
       102, 2654, 6400, 108800},
      {5,
       {58, 992, 109, 322, 302, 497, 164, 949, 36, 92, 93, 159, 251, 303, 392,
        628, 792, 849, kNone, kNone, kNone, kNone, kNone, kNone, 486, 102,
        269, 493, 789, 149, 257, 566, 983, 204, 363, 556, 592, 841, 156, 327,
        483, 726, 848, 61, 142, 453, 539, 564, 452, 722, 401, 607, 17, 86,
        151, 172, 286, 601, 902, 54, 296, 403, 546, 863, 389, kNone, kNone,
        kNone, kNone, kNone, kNone, kNone},
       {3.f, 3.f, 4.f, 4.f, 5.f, 5.f, 6.f, 6.f, 7.f, 7.f, 7.f, 7.f, 7.f, 7.f,
        7.f, 7.f, 7.f, 7.f, kInf, kInf, kInf, kInf, kInf, kInf, 2.f, 3.f, 3.f,
        3.f, 3.f, 4.f, 4.f, 4.f, 4.f, 5.f, 5.f, 5.f, 5.f, 5.f, 6.f, 6.f, 6.f,
        6.f, 6.f, 7.f, 7.f, 7.f, 7.f, 7.f, 4.f, 4.f, 5.f, 5.f, 6.f, 6.f, 6.f,
        6.f, 6.f, 6.f, 6.f, 7.f, 7.f, 7.f, 7.f, 7.f, 8.f, kInf, kInf, kInf,
        kInf, kInf, kInf, kInf},
       127, 7277, 230782, 126480},
  };
  for (const Expected& e : cases) {
    SearchParams params;
    params.k = 24;
    params.itopk = 32;
    params.algo = SearchAlgo::kMultiCta;
    params.cta_per_query = 4;
    params.hash_bits = e.hash_bits;
    auto r = Search(*index, queries, params);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const std::string shape = "hash_bits " + std::to_string(e.hash_bits);
    EXPECT_EQ(r->neighbors.ids, e.ids) << shape;
    EXPECT_EQ(r->neighbors.distances, e.distances) << shape;
    const KernelCounters& c = r->counters;
    EXPECT_EQ(c.iterations, e.iterations) << shape;
    EXPECT_EQ(c.distance_computations, e.distances_computed) << shape;
    EXPECT_EQ(c.hash_probes_device, e.probes) << shape;
    EXPECT_EQ(c.hash_probes_shared, 0u) << shape;
    EXPECT_EQ(c.sort_exchanges, e.sort_exchanges) << shape;
  }
}

TEST(ResolveConfigTest, SharedMultiCtaTableCountsEveryCta) {
  // §IV-B3 sizes a standard table at twice the visits a search can make,
  // and never past twice the rows. Multi-CTA's CTAs share one table, so
  // a round visits cta_per_query x d nodes, not d. ResolveConfig reads
  // the algo and CTA count that ResolveBatchShape resolved. Multi-CTA
  // expands one parent per CTA per round and always shares a standard
  // device-memory table, so search_width and hash_mode, which are
  // single-CTA settings, change neither its budget nor its table.
  struct Case {
    const char* shape;
    SearchAlgo algo;  ///< kAuto: ResolveBatchShape picks
    size_t rows, batch, cta_per_query, itopk, search_width;
    HashMode hash_mode;
    SearchAlgo resolved;
    size_t ctas, bits, max_iterations;
  };
  const Case cases[] = {
      // online_pq's shard, a lone request: 2 x 129 x 64 x 16 visits,
      // capped at 2 x 10k. One CTA's visits gave 2^13.
      {"online_pq shard", SearchAlgo::kAuto, 10000, 1, 0, 0, 1,
       HashMode::kAuto, SearchAlgo::kMultiCta, 64, 15, 128},
      {"online_pq shard, width 4", SearchAlgo::kAuto, 10000, 1, 0, 0, 4,
       HashMode::kAuto, SearchAlgo::kMultiCta, 64, 15, 128},
      {"online_pq shard, forgettable", SearchAlgo::kAuto, 10000, 1, 0, 0, 1,
       HashMode::kForgettable, SearchAlgo::kMultiCta, 64, 15, 128},
      // MultiCtaMergeAsPinned's shape: the 2 x rows cap binds.
      {"1k rows, 4 CTAs", SearchAlgo::kMultiCta, 1000, 3, 4, 32, 1,
       HashMode::kAuto, SearchAlgo::kMultiCta, 4, 11, 64},
      // batch_deep: single-CTA, a forgettable table for 2 x 65 x 16.
      {"batch_deep", SearchAlgo::kAuto, 30000, 10000, 0, 32, 1,
       HashMode::kAuto, SearchAlgo::kSingleCta, 1, 12, 64},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.shape);
    SearchParams params;
    params.k = 10;
    params.algo = c.algo;
    params.cta_per_query = c.cta_per_query;
    params.itopk = c.itopk;
    params.search_width = c.search_width;
    params.hash_mode = c.hash_mode;
    const SearchParams shaped = ResolveBatchShape(params, DeviceSpec{}, c.batch);
    ASSERT_EQ(shaped.algo, c.resolved);
    const internal_search::ResolvedConfig cfg =
        internal_search::ResolveConfig(shaped, 16, c.rows);
    EXPECT_EQ(cfg.num_lists, c.ctas);
    EXPECT_EQ(cfg.hash_bits, c.bits);
    EXPECT_EQ(cfg.hash_in_shared, c.resolved == SearchAlgo::kSingleCta);
    EXPECT_EQ(cfg.hash_reset_interval, 0u);
    EXPECT_EQ(cfg.max_iterations, c.max_iterations);
  }
}

/// Expects two searches to return the same rows, distance bits and
/// counters.
void ExpectSameSearch(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.neighbors.ids, b.neighbors.ids);
  const std::vector<float>& da = a.neighbors.distances;
  const std::vector<float>& db = b.neighbors.distances;
  ASSERT_EQ(da.size(), db.size());
  EXPECT_EQ(std::memcmp(da.data(), db.data(), da.size() * sizeof(float)), 0);
  const KernelCounters& x = a.counters;
  const KernelCounters& y = b.counters;
  EXPECT_EQ(x.distance_computations, y.distance_computations);
  EXPECT_EQ(x.distance_elements, y.distance_elements);
  EXPECT_EQ(x.device_vector_bytes, y.device_vector_bytes);
  EXPECT_EQ(x.device_graph_bytes, y.device_graph_bytes);
  EXPECT_EQ(x.hash_probes_shared, y.hash_probes_shared);
  EXPECT_EQ(x.hash_probes_device, y.hash_probes_device);
  EXPECT_EQ(x.hash_table_device_bytes, y.hash_table_device_bytes);
  EXPECT_EQ(x.hash_resets, y.hash_resets);
  EXPECT_EQ(x.sort_exchanges, y.sort_exchanges);
  EXPECT_EQ(x.radix_scatters, y.radix_scatters);
  EXPECT_EQ(x.iterations, y.iterations);
  EXPECT_EQ(x.max_iterations, y.max_iterations);
  EXPECT_EQ(x.kernel_launches, y.kernel_launches);
  EXPECT_EQ(x.queries, y.queries);
}

TEST(ResolveConfigTest, LoneMultiCtaSearchSharesATableForEveryCta) {
  // A lone query on a 10k-row index runs 64 CTAs over one device table,
  // sized automatically at 2^15 slots. At an explicit 2^13 the ~6k
  // inserts still fit, so the search returns the same rows and only the
  // table's bytes differ. search_width and hash_mode are single-CTA
  // settings: at width 4 or a forgettable mode the search is the
  // automatic one.
  const auto data = GenerateDataset(*FindProfile("DEEP-1M"), 10000, 1, 31);
  BuildParams bp;
  bp.graph_degree = 16;
  auto index = CagraIndex::Build(data.base, bp);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  SearchParams params;
  params.k = 10;
  auto automatic = Search(*index, data.queries, params);
  params.hash_bits = 13;
  auto pinned = Search(*index, data.queries, params);
  ASSERT_TRUE(automatic.ok()) << automatic.status().ToString();
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(automatic->algo_used, SearchAlgo::kMultiCta);
  EXPECT_EQ(automatic->launch.ctas_per_query, 64u);
  EXPECT_EQ(automatic->counters.hash_table_device_bytes,
            sizeof(uint32_t) << 15);
  EXPECT_EQ(pinned->counters.hash_table_device_bytes, sizeof(uint32_t) << 13);
  EXPECT_LT(pinned->counters.distance_computations, size_t{1} << 13);
  EXPECT_EQ(automatic->neighbors.ids, pinned->neighbors.ids);
  const std::vector<float>& a = automatic->neighbors.distances;
  const std::vector<float>& b = pinned->neighbors.distances;
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);

  params.hash_bits = 0;
  params.search_width = 4;
  auto wide = Search(*index, data.queries, params);
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  {
    SCOPED_TRACE("search_width 4");
    ExpectSameSearch(*automatic, *wide);
  }
  params.search_width = 1;
  params.hash_mode = HashMode::kForgettable;
  auto forgettable = Search(*index, data.queries, params);
  ASSERT_TRUE(forgettable.ok()) << forgettable.status().ToString();
  {
    SCOPED_TRACE("kForgettable");
    ExpectSameSearch(*automatic, *forgettable);
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

TEST_F(CagraSearchTest, RejectsHashBitsAbove32) {
  // The kernels size the visited table as 1 << hash_bits. 32 is the
  // largest useful value (ids are 31-bit); past it the table could not
  // be allocated, and at 64 the shift is undefined. A rejected request
  // allocates no table.
  SearchParams params;
  params.hash_bits = 32;
  EXPECT_TRUE(ValidateSearchParams(params).ok());
  for (const size_t bits : {33, 64}) {
    params.hash_bits = bits;
    EXPECT_EQ(ValidateSearchParams(params).code(),
              StatusCode::kInvalidArgument)
        << bits;
  }
  params.hash_bits = 64;
  auto r = Search(*index_, data_->queries, params);
  ASSERT_FALSE(r.ok());
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
