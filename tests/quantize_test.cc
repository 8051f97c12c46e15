// Quantization tests. CTest runs this binary twice — natively and under
// CAGRA_FORCE_SCALAR=1 (quantize_test_scalar) — so the int8 search path
// is covered through both the SIMD and the reference kernels.
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/search.h"
#include "dataset/profile.h"
#include "dataset/quantize.h"
#include "dataset/recall.h"
#include "dataset/synthetic.h"
#include "knn/bruteforce.h"
#include "util/rng.h"

namespace cagra {
namespace {

Matrix<float> SmallMatrix() {
  Matrix<float> m(4, 3);
  const float values[12] = {0.0f, -1.0f, 5.0f,  1.0f, 0.0f,  2.5f,
                            2.0f, 1.0f,  0.0f,  3.0f, -2.0f, 7.5f};
  std::copy(values, values + 12, m.mutable_data()->begin());
  return m;
}

TEST(QuantizeTest, ShapeAndBytes) {
  const QuantizedDataset q = QuantizeInt8(SmallMatrix());
  EXPECT_EQ(q.rows(), 4u);
  EXPECT_EQ(q.dim(), 3u);
  EXPECT_EQ(q.RowBytes(), 3u);  // quarter of fp32
}

TEST(QuantizeTest, DecodeWithinQuantizationStep) {
  Matrix<float> m = SmallMatrix();
  const QuantizedDataset q = QuantizeInt8(m);
  for (size_t i = 0; i < m.rows(); i++) {
    for (size_t d = 0; d < m.dim(); d++) {
      // Error bounded by half a step = scale/2.
      EXPECT_NEAR(q.Decode(i, d), m.Row(i)[d], q.scale[d] * 0.51f)
          << i << "," << d;
    }
  }
}

TEST(QuantizeTest, ExtremesRepresentable) {
  Matrix<float> m(2, 1);
  m.MutableRow(0)[0] = -10.0f;
  m.MutableRow(1)[0] = 30.0f;
  const QuantizedDataset q = QuantizeInt8(m);
  EXPECT_NEAR(q.Decode(0, 0), -10.0f, q.scale[0] * 0.51f);
  EXPECT_NEAR(q.Decode(1, 0), 30.0f, q.scale[0] * 0.51f);
}

TEST(QuantizeTest, ConstantDimensionIsStable) {
  Matrix<float> m(3, 2);
  for (size_t i = 0; i < 3; i++) {
    m.MutableRow(i)[0] = 4.2f;  // zero range
    m.MutableRow(i)[1] = static_cast<float>(i);
  }
  const QuantizedDataset q = QuantizeInt8(m);
  for (size_t i = 0; i < 3; i++) {
    EXPECT_NEAR(q.Decode(i, 0), 4.2f, 1e-5f);
  }
}

TEST(QuantizeTest, DistanceTracksFp32) {
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 200, 8, 3);
  const QuantizedDataset q = QuantizeInt8(data.base);
  for (Metric metric :
       {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    for (size_t i = 0; i < 8; i++) {
      const float exact = ComputeDistance(metric, data.queries.Row(i),
                                          data.base.Row(i), data.base.dim());
      const float approx =
          QuantizedDistance(metric, data.queries.Row(i), q, i);
      EXPECT_NEAR(approx, exact, std::max(0.05f, std::abs(exact) * 0.05f))
          << MetricName(metric) << " " << i;
    }
  }
}

TEST(QuantizeTest, EmptyDataset) {
  Matrix<float> empty;
  const QuantizedDataset q = QuantizeInt8(empty);
  EXPECT_TRUE(q.empty());
}

TEST(QuantizeTest, NonFiniteValuesDoNotPoisonTheFit) {
  // Regression: a single NaN/Inf used to poison scale/offset for its
  // whole dimension (NaN range, or an Inf-wide range whose scale
  // flattened every finite value to one code).
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Matrix<float> m(5, 2);
  const float values[10] = {0.0f,  1.0f,  2.0f,           -1.0f,
                            4.0f,  kInf, 6.0f,            -kInf,
                            8.0f,  std::numeric_limits<float>::quiet_NaN()};
  std::copy(values, values + 10, m.mutable_data()->begin());
  const QuantizedDataset q = QuantizeInt8(m);
  // The fit covers only the finite values of dim 1 ([-1, 1]).
  EXPECT_TRUE(std::isfinite(q.scale[1]));
  EXPECT_TRUE(std::isfinite(q.offset[1]));
  for (size_t i = 0; i < 5; i++) {
    // Dim 0 is all-finite [0, 8] and must decode within half a step.
    EXPECT_NEAR(q.Decode(i, 0), m.Row(i)[0], q.scale[0] * 0.51f) << i;
  }
  // Finite entries of the poisoned dimension still decode faithfully.
  EXPECT_NEAR(q.Decode(0, 1), 1.0f, q.scale[1] * 0.51f);
  EXPECT_NEAR(q.Decode(1, 1), -1.0f, q.scale[1] * 0.51f);
  // Non-finite entries clamp into the fitted range instead of hitting
  // lround's undefined behavior: +Inf -> max, -Inf -> min, NaN -> center.
  EXPECT_NEAR(q.Decode(2, 1), 1.0f, q.scale[1] * 0.51f);
  EXPECT_NEAR(q.Decode(3, 1), -1.0f, q.scale[1] * 0.51f);
  EXPECT_TRUE(std::isfinite(q.Decode(4, 1)));
}

TEST(QuantizeTest, AllNonFiniteDimensionIsStable) {
  Matrix<float> m(3, 2);
  for (size_t i = 0; i < 3; i++) {
    m.MutableRow(i)[0] = std::numeric_limits<float>::quiet_NaN();
    m.MutableRow(i)[1] = static_cast<float>(i);
  }
  const QuantizedDataset q = QuantizeInt8(m);
  // Same convention as a zero-range dimension: scale 0, finite offset.
  EXPECT_EQ(q.scale[0], 0.0f);
  EXPECT_TRUE(std::isfinite(q.offset[0]));
  for (size_t i = 0; i < 3; i++) {
    EXPECT_TRUE(std::isfinite(q.Decode(i, 0))) << i;
    EXPECT_NEAR(q.Decode(i, 1), static_cast<float>(i), q.scale[1] * 0.51f);
  }
}

TEST(QuantizeTest, AppendedRowsEncodeExactlyLikeTheFit) {
  // Regression: CagraIndex::Add encoded appended rows with its own copy
  // of the int8 encode, which recovered the clamp range from
  // scale/offset. In a zero-range dimension that range came out 254
  // wide, so +Inf coded 127 (the constant + 254) where QuantizeInt8
  // coded the constant itself.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 200, 1, 5);
  for (size_t i = 0; i < data.base.rows(); i++) {
    data.base.MutableRow(i)[0] = 4.2f;  // zero range
  }
  BuildParams bp;
  bp.graph_degree = 8;
  auto index = CagraIndex::Build(data.base, bp);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  index->EnableInt8Quantization();

  // Row 0 with +Inf in the constant dimension and -Inf in a spread
  // one; non-finite values stay out of the fit, so fitting the base
  // plus this row yields the index's own fit.
  Matrix<float> extra = SliceQueries(data.base, 0, 1);
  extra.MutableRow(0)[0] = kInf;
  extra.MutableRow(0)[1] = -kInf;
  ASSERT_TRUE(index->Add(extra).ok());

  Matrix<float> all(data.base.rows() + 1, data.base.dim());
  std::copy(data.base.data().begin(), data.base.data().end(),
            all.mutable_data()->begin());
  std::copy(extra.Row(0), extra.Row(0) + extra.dim(),
            all.MutableRow(data.base.rows()));
  const QuantizedDataset fit = QuantizeInt8(all);
  const QuantizedDataset& appended = index->snapshot()->Int8Ref();
  ASSERT_EQ(appended.rows(), all.rows());
  EXPECT_EQ(appended.scale, fit.scale);
  EXPECT_EQ(appended.offset, fit.offset);
  const size_t row = data.base.rows();
  for (size_t d = 0; d < all.dim(); d++) {
    EXPECT_EQ(appended.codes.Row(row)[d], fit.codes.Row(row)[d]) << d;
  }
  // +Inf in the constant dimension decodes to the constant.
  EXPECT_EQ(appended.Decode(row, 0), 4.2f);
}

TEST(QuantizeTest, CosineOperatesOnDecodedValuesNotFp32) {
  // Coarse quantization (wide per-dim ranges, few rows) makes the
  // decoded row measurably different from the fp32 row. Quantized
  // cosine must track the *decoded* values — matching a double-precision
  // decode-then-cosine reference and differing from the fp32 cosine —
  // i.e. no silent fall-back to the fp32 dataset.
  Matrix<float> m(4, 8);
  Pcg32 rng(77);
  for (auto& x : *m.mutable_data()) x = rng.NextFloat() * 200.0f - 100.0f;
  const QuantizedDataset q = QuantizeInt8(m);
  std::vector<float> query(8);
  for (auto& x : query) x = rng.NextFloat() * 2.0f - 1.0f;

  for (size_t row = 0; row < m.rows(); row++) {
    double dot = 0, nq = 0, nv = 0;
    for (size_t d = 0; d < m.dim(); d++) {
      const double v = static_cast<double>(q.Decode(row, d));
      dot += query[d] * v;
      nq += static_cast<double>(query[d]) * query[d];
      nv += v * v;
    }
    const double expected = 1.0 - dot / (std::sqrt(nq) * std::sqrt(nv));
    const float got = QuantizedDistance(Metric::kCosine, query.data(), q, row);
    EXPECT_NEAR(got, expected, 1e-4) << "row=" << row;

    const float fp32 = ComputeDistance(Metric::kCosine, query.data(),
                                       m.Row(row), m.dim());
    EXPECT_NE(got, fp32) << "row=" << row
                         << ": quantized cosine returned the fp32 value";
  }
}

// ------------------------------------------------- end-to-end search

TEST(Int8SearchTest, RequiresEnable) {
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 500, 8, 5);
  BuildParams bp;
  bp.graph_degree = 8;
  auto index = CagraIndex::Build(data.base, bp);
  ASSERT_TRUE(index.ok());
  SearchParams sp;
  sp.k = 5;
  sp.precision = Precision::kInt8;
  auto r = Search(*index, data.queries, sp);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Int8SearchTest, RecallCloseToFp32AndQuarterTraffic) {
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 2000, 32, 7);
  BuildParams bp;
  bp.graph_degree = 16;
  auto index = CagraIndex::Build(data.base, bp);
  ASSERT_TRUE(index.ok());
  index->EnableInt8Quantization();
  EXPECT_TRUE(index->HasInt8());

  const auto gt = ComputeGroundTruth(data.base, data.queries, 10, p->metric);
  SearchParams sp;
  sp.k = 10;
  sp.itopk = 64;
  sp.algo = SearchAlgo::kSingleCta;
  auto fp32 = Search(*index, data.queries, sp);
  sp.precision = Precision::kInt8;
  auto int8 = Search(*index, data.queries, sp);
  ASSERT_TRUE(fp32.ok());
  ASSERT_TRUE(int8.ok());
  EXPECT_NEAR(ComputeRecall(int8->neighbors, gt),
              ComputeRecall(fp32->neighbors, gt), 0.08);
  // Same node visit pattern differences aside, traffic must be ~1/4.
  EXPECT_LT(int8->counters.device_vector_bytes,
            fp32->counters.device_vector_bytes / 3);
  EXPECT_EQ(int8->launch.elem_bytes, 1u);
}

TEST(Int8SearchTest, AbsoluteRecallFloor) {
  // An absolute bar, not just "close to fp32": a broken int8 kernel that
  // degraded both modes together would slip past the relative test.
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 2000, 32, 21);
  BuildParams bp;
  bp.graph_degree = 16;
  auto index = CagraIndex::Build(data.base, bp);
  ASSERT_TRUE(index.ok());
  index->EnableInt8Quantization();
  const auto gt = ComputeGroundTruth(data.base, data.queries, 10, p->metric);
  SearchParams sp;
  sp.k = 10;
  sp.itopk = 64;
  sp.algo = SearchAlgo::kSingleCta;
  sp.precision = Precision::kInt8;
  auto int8 = Search(*index, data.queries, sp);
  ASSERT_TRUE(int8.ok());
  EXPECT_GT(ComputeRecall(int8->neighbors, gt), 0.8);
}

TEST(Int8SearchTest, MultiCtaRecallMatchesSingleCta) {
  // The multi-CTA mode shares DatasetView's batched int8 path; its
  // recall must stay in the same band as single-CTA on the same index.
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 2000, 32, 23);
  BuildParams bp;
  bp.graph_degree = 16;
  auto index = CagraIndex::Build(data.base, bp);
  ASSERT_TRUE(index.ok());
  index->EnableInt8Quantization();
  const auto gt = ComputeGroundTruth(data.base, data.queries, 10, p->metric);
  SearchParams sp;
  sp.k = 10;
  sp.itopk = 64;
  sp.algo = SearchAlgo::kMultiCta;
  sp.cta_per_query = 2;
  sp.precision = Precision::kInt8;
  auto multi = Search(*index, data.queries, sp);
  ASSERT_TRUE(multi.ok());
  sp.algo = SearchAlgo::kSingleCta;
  auto single = Search(*index, data.queries, sp);
  ASSERT_TRUE(single.ok());
  EXPECT_NEAR(ComputeRecall(multi->neighbors, gt),
              ComputeRecall(single->neighbors, gt), 0.1);
  EXPECT_GT(ComputeRecall(multi->neighbors, gt), 0.7);
}

TEST(Int8SearchTest, ModeledQpsAtLeastFp32) {
  const DatasetProfile* p = FindProfile("GIST-1M");  // bandwidth-bound dim
  auto data = GenerateDataset(*p, 1000, 16, 9);
  BuildParams bp;
  bp.graph_degree = 16;
  bp.metric = p->metric;
  auto index = CagraIndex::Build(data.base, bp);
  ASSERT_TRUE(index.ok());
  index->EnableInt8Quantization();
  SearchParams sp;
  sp.k = 10;
  sp.itopk = 64;
  sp.algo = SearchAlgo::kSingleCta;
  auto fp32 = Search(*index, data.queries, sp);
  sp.precision = Precision::kInt8;
  auto int8 = Search(*index, data.queries, sp);
  ASSERT_TRUE(fp32.ok());
  ASSERT_TRUE(int8.ok());
  EXPECT_GE(int8->modeled_qps, fp32->modeled_qps);
}

}  // namespace
}  // namespace cagra
