// Product-quantization tests. CTest runs this binary twice — natively
// and under CAGRA_FORCE_SCALAR=1 (pq_test_scalar) — so the ADC LUT-scan
// path is covered through both the SIMD and the reference kernels.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/search.h"
#include "dataset/pq.h"
#include "dataset/profile.h"
#include "dataset/recall.h"
#include "dataset/synthetic.h"
#include "distance/simd.h"
#include "knn/bruteforce.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cagra {
namespace {

using distance_kernels::kAdcTableStride;
using distance_kernels::KernelTable;
using distance_kernels::kMultiRowWidth;

/// Every tier this CPU runs: the ADC kernel tests cover each one, not
/// only the active tier.
std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (SimdLevelAvailable(SimdLevel::kAvx2)) levels.push_back(SimdLevel::kAvx2);
  if (SimdLevelAvailable(SimdLevel::kAvx512)) {
    levels.push_back(SimdLevel::kAvx512);
  }
  return levels;
}

PqTrainParams FastTrain(size_t num_subspaces = 0) {
  PqTrainParams tp;
  tp.num_subspaces = num_subspaces;
  tp.kmeans_iterations = 3;
  tp.sample_size = 512;
  return tp;
}

// ------------------------------------------------------------ training

TEST(PqTrainTest, ShapesAndBytes) {
  auto data = GenerateDataset(*FindProfile("DEEP-1M"), 600, 4, 3);
  const PqDataset pq = TrainPq(data.base, FastTrain());
  const size_t dim = data.base.dim();
  EXPECT_EQ(pq.rows(), 600u);
  EXPECT_EQ(pq.dim, dim);
  EXPECT_EQ(pq.num_subspaces(), dim / 4);  // auto M = dim/4
  EXPECT_EQ(pq.dsub, 4u);
  EXPECT_EQ(pq.RowBytes(), dim / 4);  // 1/16 of the fp32 row
  EXPECT_EQ(pq.centroids.size(),
            pq.num_subspaces() * PqDataset::kNumCentroids * pq.dsub);
  EXPECT_EQ(pq.centroid_norm2.size(),
            pq.num_subspaces() * PqDataset::kNumCentroids);
}

TEST(PqTrainTest, EmptyDataset) {
  Matrix<float> empty;
  EXPECT_TRUE(TrainPq(empty).empty());
}

TEST(PqTrainTest, ReconstructionTracksData) {
  auto data = GenerateDataset(*FindProfile("DEEP-1M"), 1500, 4, 7);
  const PqDataset pq = TrainPq(data.base, FastTrain());
  double err = 0, ref = 0;
  for (size_t r = 0; r < pq.rows(); r++) {
    for (size_t d = 0; d < pq.dim; d++) {
      const double e = pq.Decode(r, d) - data.base.Row(r)[d];
      err += e * e;
      ref += static_cast<double>(data.base.Row(r)[d]) * data.base.Row(r)[d];
    }
  }
  // Clustered synthetic data with 256 centroids per 4-dim subspace:
  // quantization noise must be a small fraction of the signal energy.
  EXPECT_LT(err / ref, 0.15);
}

TEST(PqTrainTest, NonDivisibleDimZeroPadsTail) {
  Matrix<float> m(300, 10);
  Pcg32 rng(5);
  for (auto& x : *m.mutable_data()) x = rng.NextFloat() * 2.0f - 1.0f;
  const PqDataset pq = TrainPq(m, FastTrain(/*num_subspaces=*/4));
  EXPECT_EQ(pq.num_subspaces(), 4u);
  EXPECT_EQ(pq.dsub, 3u);  // ceil(10 / 4), 2 padded dims
  // Padded dimensions never contribute: the ADC distance equals the
  // decode reference, which only sees real dims plus exact zeros.
  std::vector<float> query(10);
  for (auto& x : query) x = rng.NextFloat();
  PqAdcTable t;
  BuildAdcTable(pq, query.data(), Metric::kL2, &t);
  for (size_t r = 0; r < 20; r++) {
    EXPECT_NEAR(ComputeDistanceAdc(t, pq.codes.Row(r), r),
                PqDistance(Metric::kL2, query.data(), pq, r), 1e-4f)
        << r;
  }
}

// ------------------------------------------------------- ADC LUT scan

TEST(PqAdcTest, AdcMatchesDecodeReference) {
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 400, 8, 11);
  const PqDataset pq = TrainPq(data.base, FastTrain());
  const bool scalar = ActiveSimdLevel() == SimdLevel::kScalar;
  for (Metric metric :
       {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    for (size_t q = 0; q < data.queries.rows(); q++) {
      PqAdcTable t;
      BuildAdcTable(pq, data.queries.Row(q), metric, &t);
      for (size_t r = 0; r < 50; r++) {
        const float adc = ComputeDistanceAdc(t, pq.codes.Row(r), r);
        const float ref = PqDistance(metric, data.queries.Row(q), pq, r);
        if (scalar && metric != Metric::kCosine) {
          // The scalar scan sums the same partials in the same order as
          // the decode reference — exactly, not approximately.
          EXPECT_EQ(adc, ref) << MetricName(metric) << " q=" << q
                              << " r=" << r;
        } else {
          EXPECT_NEAR(adc, ref,
                      std::max(1e-4f, std::abs(ref) * 1e-4f))
              << MetricName(metric) << " q=" << q << " r=" << r;
        }
      }
    }
  }
}

TEST(PqAdcTest, MultiRowBitIdenticalToSingleRow) {
  for (SimdLevel level : AvailableLevels()) {
    const KernelTable& k = KernelTableForLevel(level);
    Pcg32 rng(99);
    for (size_t m : {1ul, 3ul, 8ul, 16ul, 17ul, 24ul, 31ul, 64ul}) {
      std::vector<float> lut(m * kAdcTableStride);
      for (auto& x : lut) x = rng.NextFloat() * 2.0f;
      Matrix<uint8_t> codes(kMultiRowWidth, m);
      for (auto& c : *codes.mutable_data()) {
        c = static_cast<uint8_t>(rng.NextBounded(256));
      }
      // Overrepresent the table extremes.
      codes.MutableRow(0)[0] = 0;
      codes.MutableRow(1)[m - 1] = 255;
      const uint8_t* rows[kMultiRowWidth];
      for (size_t r = 0; r < kMultiRowWidth; r++) rows[r] = codes.Row(r);
      float out[kMultiRowWidth];
      k.adcx4(lut.data(), rows, m, out);
      for (size_t r = 0; r < kMultiRowWidth; r++) {
        EXPECT_EQ(out[r], k.adc(lut.data(), rows[r], m))
            << "tier=" << k.name << " m=" << m << " row=" << r;
      }
    }
  }
}

TEST(PqAdcTest, SimdAdcMatchesScalarReference) {
  const KernelTable& scalar = KernelTableForLevel(SimdLevel::kScalar);
  for (SimdLevel level : AvailableLevels()) {
    const KernelTable& k = KernelTableForLevel(level);
    Pcg32 rng(123);
    for (size_t m : {1ul, 7ul, 8ul, 16ul, 24ul, 40ul, 96ul}) {
      std::vector<float> lut(m * kAdcTableStride);
      for (auto& x : lut) x = rng.NextFloat();
      std::vector<uint8_t> code(m);
      for (auto& c : code) c = static_cast<uint8_t>(rng.NextBounded(256));
      const float ref = scalar.adc(lut.data(), code.data(), m);
      EXPECT_NEAR(k.adc(lut.data(), code.data(), m), ref,
                  std::max(1e-5f, ref * 1e-5f))
          << "tier=" << k.name << " m=" << m;
    }
  }
}

TEST(PqAdcTest, BatchAndGatherMatchPairwise) {
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 300, 2, 17);
  const PqDataset pq = TrainPq(data.base, FastTrain());
  const size_t n = pq.rows();
  for (Metric metric :
       {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    PqAdcTable t;
    BuildAdcTable(pq, data.queries.Row(0), metric, &t);
    // Identity order, then reversed.
    std::vector<uint32_t> in_order(n), reversed(n);
    for (size_t i = 0; i < n; i++) {
      in_order[i] = static_cast<uint32_t>(i);
      reversed[i] = static_cast<uint32_t>(n - 1 - i);
    }
    for (const auto* ids : {&in_order, &reversed}) {
      std::vector<float> gathered(n);
      ComputeDistanceAdcGather(t, pq.codes.data().data(), ids->data(), n,
                               gathered.data());
      for (size_t i = 0; i < n; i++) {
        const uint32_t id = (*ids)[i];
        EXPECT_EQ(gathered[i], ComputeDistanceAdc(t, pq.codes.Row(id), id))
            << MetricName(metric) << " gather i=" << i
            << " in_order=" << (ids == &in_order);
      }
    }
  }
}

// ------------------------------------------------- k-means robustness

// Regression for the empty-cluster fix: a dataset whose sample has far
// fewer distinct rows than 256 centroids (256 copies of one vector +
// 256 scattered points). The duplicate init centroids used to stay as
// dead codes, so half the codebook was wasted and scattered points had
// to share centroids; splitting the largest-error cluster re-seeds the
// empties and the codebook resolves (almost) every scattered point.
TEST(PqTrainTest, EmptyClustersSplitIntoLargestErrorCluster) {
  const size_t dim = 4;
  Matrix<float> m(512, dim);
  Pcg32 rng(21);
  for (size_t r = 0; r < 256; r++) {
    float* row = m.MutableRow(r);
    row[0] = 0.2f; row[1] = -0.3f; row[2] = 0.4f; row[3] = 0.1f;
  }
  for (size_t r = 256; r < 512; r++) {
    float* row = m.MutableRow(r);
    for (size_t d = 0; d < dim; d++) row[d] = rng.NextFloat() * 2.0f - 1.0f;
  }
  PqTrainParams tp;
  tp.num_subspaces = 1;
  tp.kmeans_iterations = 8;
  const PqDataset pq = TrainPq(m, tp);
  double err = 0, ref = 0;
  for (size_t r = 0; r < pq.rows(); r++) {
    for (size_t d = 0; d < dim; d++) {
      const double e = pq.Decode(r, d) - m.Row(r)[d];
      err += e * e;
      ref += static_cast<double>(m.Row(r)[d]) * m.Row(r)[d];
    }
  }
  // 512 points, 256 centroids, half the points identical: with empty
  // clusters recycled, nearly every scattered point gets its own
  // centroid (measured ~1e-5 here). The pre-fix implementation leaves
  // the duplicate init centroids dead and lands at ~0.028 — three
  // orders of magnitude higher.
  EXPECT_LT(err / ref, 0.005) << "err=" << err << " ref=" << ref;
}

TEST(PqTrainTest, TinyDatasetGetsPerCentroidResolution) {
  // Fewer rows than centroids: every row can own a centroid, so the
  // codebook must reconstruct the dataset (nearly) exactly and encoding
  // must stay deterministic and in range.
  const size_t dim = 8;
  Matrix<float> m(60, dim);
  Pcg32 rng(31);
  for (auto& x : *m.mutable_data()) x = rng.NextFloat() * 2.0f - 1.0f;
  PqTrainParams tp;
  tp.num_subspaces = 2;
  tp.kmeans_iterations = 4;
  const PqDataset pq = TrainPq(m, tp);
  ASSERT_EQ(pq.rows(), 60u);
  for (size_t r = 0; r < pq.rows(); r++) {
    for (size_t d = 0; d < dim; d++) {
      EXPECT_NEAR(pq.Decode(r, d), m.Row(r)[d], 1e-5f)
          << "r=" << r << " d=" << d;
    }
  }
}

// ------------------------------------------------ parallel training

template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

void ExpectSameBytes(const PqDataset& got, const PqDataset& ref,
                     const char* where) {
  EXPECT_TRUE(SameBytes(got.centroids, ref.centroids)) << where;
  EXPECT_TRUE(SameBytes(got.centroid_norm2, ref.centroid_norm2)) << where;
  EXPECT_TRUE(SameBytes(got.rotation, ref.rotation)) << where;
  EXPECT_TRUE(SameBytes(got.codes.data(), ref.codes.data())) << where;
  EXPECT_TRUE(SameBytes(got.row_norm2, ref.row_norm2)) << where;
}

// The subspace k-means runs one subspace per pool task, each on its own
// column slice and codebook slice. Two trainings at once, and two
// nested in pool tasks (a sharded EnablePq's shape), must produce the
// lone training's bytes; a slice shared between tasks shows here or
// under TSan.
TEST(PqTrainTest, IdenticalAloneConcurrentAndNested) {
  auto data = GenerateDataset(*FindProfile("DEEP-1M"), 2000, 1, 41);
  // Two Lloyd rounds (the default is six) keep the sanitizer builds
  // quick.
  PqTrainParams plain;
  plain.kmeans_iterations = 2;
  PqTrainParams opq = plain;
  opq.rotate = true;
  opq.opq_iterations = 1;
  for (const PqTrainParams& params : {plain, opq}) {
    SCOPED_TRACE(params.rotate ? "opq" : "plain");
    const PqDataset alone = TrainPq(data.base, params);
    ASSERT_EQ(alone.num_subspaces(), 24u);
    ASSERT_EQ(alone.HasRotation(), params.rotate);

    PqDataset trained[2];
    std::thread other([&] { trained[1] = TrainPq(data.base, params); });
    trained[0] = TrainPq(data.base, params);
    other.join();
    for (const PqDataset& pq : trained) {
      ExpectSameBytes(pq, alone, "two at once");
    }

    GlobalThreadPool().ParallelFor(0, 2, [&](size_t i) {
      trained[i] = TrainPq(data.base, params);
    });
    for (const PqDataset& pq : trained) {
      ExpectSameBytes(pq, alone, "nested in the pool");
    }
  }
}

// ------------------------------------------------------- OPQ rotation

PqTrainParams OpqTrain(size_t num_subspaces = 0) {
  PqTrainParams tp = FastTrain(num_subspaces);
  tp.rotate = true;
  tp.opq_iterations = 2;
  return tp;
}

TEST(OpqTest, RotationIsOrthogonal) {
  auto data = GenerateDataset(*FindProfile("DEEP-1M"), 800, 4, 19);
  const PqDataset pq = TrainPq(data.base, OpqTrain());
  ASSERT_TRUE(pq.HasRotation());
  const size_t dim = pq.dim;
  ASSERT_EQ(pq.rotation.size(), dim * dim);
  for (size_t i = 0; i < dim; i++) {
    for (size_t j = 0; j < dim; j++) {
      double dot = 0;
      for (size_t d = 0; d < dim; d++) {
        dot += static_cast<double>(pq.rotation[i * dim + d]) *
               pq.rotation[j * dim + d];
      }
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-4) << i << "," << j;
    }
  }
}

TEST(OpqTest, RotationPreservesDistances) {
  // L2/dot are invariant under the orthogonal rotation, so rotated
  // vectors must keep their pairwise distances (this is what makes the
  // rotated codebook answer original-space queries).
  auto data = GenerateDataset(*FindProfile("DEEP-1M"), 600, 4, 23);
  const PqDataset pq = TrainPq(data.base, OpqTrain());
  ASSERT_TRUE(pq.HasRotation());
  const size_t dim = pq.dim;
  std::vector<float> ra(dim), rb(dim);
  for (size_t i = 0; i + 1 < 10; i += 2) {
    const float* a = data.base.Row(i);
    const float* b = data.base.Row(i + 1);
    pq.RotateQuery(a, ra.data());
    pq.RotateQuery(b, rb.data());
    const float orig = ComputeDistance(Metric::kL2, a, b, dim);
    const float rot = ComputeDistance(Metric::kL2, ra.data(), rb.data(), dim);
    EXPECT_NEAR(rot, orig, std::max(1e-3f, orig * 1e-3f)) << i;
  }
}

TEST(OpqTest, ReconstructionNotWorseThanPlainPq) {
  // The OPQ objective is exactly the quantization error the plain
  // trainer minimizes with R pinned to identity, so the trained
  // rotation must not lose to it (small slack for k-means noise).
  auto data = GenerateDataset(*FindProfile("DEEP-1M"), 1500, 4, 7);
  const PqDataset pq = TrainPq(data.base, FastTrain());
  const PqDataset opq = TrainPq(data.base, OpqTrain());
  const size_t dim = data.base.dim();
  std::vector<float> rotated(dim);
  double err_pq = 0, err_opq = 0;
  for (size_t r = 0; r < data.base.rows(); r++) {
    opq.RotateQuery(data.base.Row(r), rotated.data());
    for (size_t d = 0; d < dim; d++) {
      const double ep = pq.Decode(r, d) - data.base.Row(r)[d];
      const double eo = opq.Decode(r, d) - rotated[d];
      err_pq += ep * ep;
      err_opq += eo * eo;
    }
  }
  EXPECT_LE(err_opq, err_pq * 1.05)
      << "opq=" << err_opq << " pq=" << err_pq;
}

TEST(OpqTest, AdcMatchesDecodeReferenceUnderRotation) {
  auto data = GenerateDataset(*FindProfile("DEEP-1M"), 400, 8, 11);
  const PqDataset pq = TrainPq(data.base, OpqTrain());
  ASSERT_TRUE(pq.HasRotation());
  for (Metric metric :
       {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    PqAdcTable t;
    BuildAdcTable(pq, data.queries.Row(0), metric, &t);
    for (size_t r = 0; r < 50; r++) {
      const float adc = ComputeDistanceAdc(t, pq.codes.Row(r), r);
      const float ref = PqDistance(metric, data.queries.Row(0), pq, r);
      EXPECT_NEAR(adc, ref, std::max(1e-3f, std::abs(ref) * 1e-3f))
          << MetricName(metric) << " r=" << r;
    }
  }
}

TEST(OpqTest, SearchRecallAtLeastPlainPq) {
  // The acceptance pin: OPQ's recall on the DEEP-synthetic profile must
  // not trail plain PQ (both share the 0.75 absolute floor), native and
  // forced-scalar.
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 2000, 32, 7);
  BuildParams bp;
  bp.graph_degree = 16;
  auto index_pq = CagraIndex::Build(data.base, bp);
  ASSERT_TRUE(index_pq.ok());
  CagraIndex index_opq = *index_pq;  // same graph, separate PQ copy
  index_pq->EnablePq();
  PqTrainParams opq_params;
  opq_params.rotate = true;
  index_opq.EnablePq(opq_params);
  ASSERT_TRUE(index_opq.snapshot()->PqRef().HasRotation());

  const auto gt = ComputeGroundTruth(data.base, data.queries, 10, p->metric);
  SearchParams sp;
  sp.k = 10;
  sp.itopk = 64;
  sp.algo = SearchAlgo::kSingleCta;
  sp.precision = Precision::kPq;
  auto pq = Search(*index_pq, data.queries, sp);
  auto opq = Search(index_opq, data.queries, sp);
  ASSERT_TRUE(pq.ok());
  ASSERT_TRUE(opq.ok());
  const double recall_pq = ComputeRecall(pq->neighbors, gt);
  const double recall_opq = ComputeRecall(opq->neighbors, gt);
  EXPECT_GE(recall_opq, recall_pq);
  EXPECT_GT(recall_pq, 0.75);
  EXPECT_GT(recall_opq, 0.75);
}

// ----------------------------------------- single-pass cosine ADC

TEST(PqCosineTest, RowNormsMatchTheLutScanTheyReplace) {
  // row_norm2 is precomputed with the active adc kernel over the
  // centroid-norm table, so it must equal the old query-independent
  // second LUT pass bit-for-bit.
  const KernelTable& k = ActiveKernelTable();
  auto data = GenerateDataset(*FindProfile("DEEP-1M"), 500, 2, 37);
  const PqDataset pq = TrainPq(data.base, FastTrain());
  ASSERT_EQ(pq.row_norm2.size(), pq.rows());
  for (size_t r = 0; r < pq.rows(); r++) {
    EXPECT_EQ(pq.row_norm2[r],
              k.adc(pq.centroid_norm2.data(), pq.codes.Row(r),
                    pq.num_subspaces()))
        << r;
  }
}

TEST(PqCosineTest, SinglePassMatchesTwoPassReferenceBitExact) {
  // The fused cosine ADC (one LUT scan + one precomputed-norm load)
  // must reproduce the retired two-pass form (dot scan + norm scan)
  // exactly, pairwise and gathered.
  const KernelTable& k = ActiveKernelTable();
  auto data = GenerateDataset(*FindProfile("DEEP-1M"), 600, 4, 41);
  const PqDataset pq = TrainPq(data.base, FastTrain());
  const size_t m = pq.num_subspaces();
  std::vector<uint32_t> ids(pq.rows());
  for (size_t r = 0; r < ids.size(); r++) ids[r] = static_cast<uint32_t>(r);
  for (size_t q = 0; q < data.queries.rows(); q++) {
    PqAdcTable t;
    BuildAdcTable(pq, data.queries.Row(q), Metric::kCosine, &t);
    std::vector<float> fused(pq.rows());
    ComputeDistanceAdcGather(t, pq.codes.data().data(), ids.data(),
                             ids.size(), fused.data());
    for (size_t r = 0; r < pq.rows(); r++) {
      // Inline two-pass reference: dot LUT scan, then the
      // query-independent centroid-norm scan the fused path retired.
      const float dot = k.adc(t.dist.data(), pq.codes.Row(r), m);
      const float norm2 = k.adc(pq.centroid_norm2.data(), pq.codes.Row(r), m);
      const float denom = std::sqrt(t.query_norm2) * std::sqrt(norm2);
      const float two_pass = denom == 0.0f ? 1.0f : 1.0f - dot / denom;
      EXPECT_EQ(ComputeDistanceAdc(t, pq.codes.Row(r), r), two_pass)
          << "q=" << q << " r=" << r;
      EXPECT_EQ(fused[r], two_pass) << "q=" << q << " r=" << r;
    }
  }
}

// ------------------------------------------------- end-to-end search

TEST(PqSearchTest, RequiresEnable) {
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 500, 8, 5);
  BuildParams bp;
  bp.graph_degree = 8;
  auto index = CagraIndex::Build(data.base, bp);
  ASSERT_TRUE(index.ok());
  SearchParams sp;
  sp.k = 5;
  sp.precision = Precision::kPq;
  auto r = Search(*index, data.queries, sp);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(PqSearchTest, RecallFloorAndCompressedTraffic) {
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 2000, 32, 7);
  BuildParams bp;
  bp.graph_degree = 16;
  auto index = CagraIndex::Build(data.base, bp);
  ASSERT_TRUE(index.ok());
  index->EnablePq();
  EXPECT_TRUE(index->HasPq());
  EXPECT_EQ(index->snapshot()->PqRef().RowBytes(), data.base.dim() / 4);

  const auto gt = ComputeGroundTruth(data.base, data.queries, 10, p->metric);
  SearchParams sp;
  sp.k = 10;
  sp.itopk = 64;
  sp.algo = SearchAlgo::kSingleCta;
  auto fp32 = Search(*index, data.queries, sp);
  sp.precision = Precision::kPq;
  auto pq = Search(*index, data.queries, sp);
  ASSERT_TRUE(fp32.ok());
  ASSERT_TRUE(pq.ok());
  // Absolute floor (measured ~0.86 on this synthetic setup): ADC
  // distances are approximate, so PQ trails fp32 but must stay a
  // usable storage mode in both native and forced-scalar runs.
  EXPECT_GT(ComputeRecall(pq->neighbors, gt), 0.75);
  // Row traffic compresses to M bytes/row; even with the per-query
  // codebook charge the total device traffic must undercut fp32.
  EXPECT_LT(pq->counters.device_vector_bytes,
            fp32->counters.device_vector_bytes);
  EXPECT_EQ(pq->launch.elem_bytes, 1u);
}

TEST(PqSearchTest, MultiCtaRecallMatchesSingleCta) {
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 2000, 32, 23);
  BuildParams bp;
  bp.graph_degree = 16;
  auto index = CagraIndex::Build(data.base, bp);
  ASSERT_TRUE(index.ok());
  index->EnablePq();
  const auto gt = ComputeGroundTruth(data.base, data.queries, 10, p->metric);
  SearchParams sp;
  sp.k = 10;
  sp.itopk = 64;
  sp.algo = SearchAlgo::kMultiCta;
  sp.cta_per_query = 2;
  sp.precision = Precision::kPq;
  auto multi = Search(*index, data.queries, sp);
  ASSERT_TRUE(multi.ok());
  sp.algo = SearchAlgo::kSingleCta;
  auto single = Search(*index, data.queries, sp);
  ASSERT_TRUE(single.ok());
  EXPECT_NEAR(ComputeRecall(multi->neighbors, gt),
              ComputeRecall(single->neighbors, gt), 0.1);
  EXPECT_GT(ComputeRecall(multi->neighbors, gt), 0.7);
}

}  // namespace
}  // namespace cagra
