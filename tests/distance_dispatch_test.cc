// Dispatch-layer tests: every compiled-in SIMD tier must agree with the
// scalar reference kernels across awkward dims, fp16 inputs, and int8
// affine-coded inputs (saturating ±127 codes, per-dim scale extremes);
// the multi-row x4 kernels must be bit-identical to their single-row
// counterparts; the batched primitives must agree with the pairwise API;
// and the thread-parallel batch search must be byte-identical to a
// serial run. CTest runs this binary twice: once as-is and once under
// CAGRA_FORCE_SCALAR=1 (distance_dispatch_test_scalar).
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "core/index.h"
#include "core/search.h"
#include "core/sharded.h"
#include "dataset/profile.h"
#include "dataset/quantize.h"
#include "dataset/synthetic.h"
#include "distance/distance.h"
#include "distance/simd.h"
#include "util/rng.h"

namespace cagra {
namespace {

using distance_kernels::KernelTable;

// The ISSUE's accuracy bar for SIMD vs scalar: reassociation only.
constexpr double kTolerance = 1e-4;
const size_t kDims[] = {1, 3, 17, 128, 961};

std::vector<float> RandomVec(size_t dim, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<float> v(dim);
  for (auto& x : v) x = rng.NextFloat() * 2.0f - 1.0f;
  return v;
}

std::vector<Half> ToHalfVec(const std::vector<float>& v) {
  std::vector<Half> h(v.size());
  for (size_t i = 0; i < v.size(); i++) h[i] = Half(v[i]);
  return h;
}

/// Random int8 codes with the saturating extremes (±127) overrepresented
/// so every kernel's sign-extension path sees full-range values.
std::vector<int8_t> RandomCodes(size_t n, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<int8_t> codes(n);
  for (auto& c : codes) {
    const uint32_t roll = rng.NextBounded(8);
    if (roll == 0) {
      c = 127;
    } else if (roll == 1) {
      c = -127;
    } else {
      c = static_cast<int8_t>(static_cast<int>(rng.NextBounded(255)) - 127);
    }
  }
  return codes;
}

/// Per-dimension affine params spanning extremes: tiny scales (~1e-4),
/// large scales (~8), and offsets on both sides of zero.
void RandomAffine(size_t dim, uint64_t seed, std::vector<float>* scale,
                  std::vector<float>* offset) {
  Pcg32 rng(seed);
  scale->resize(dim);
  offset->resize(dim);
  for (size_t d = 0; d < dim; d++) {
    (*scale)[d] = rng.NextBounded(4) == 0 ? 1e-4f : rng.NextFloat() * 8.0f;
    (*offset)[d] = rng.NextFloat() * 4.0f - 2.0f;
  }
}

std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (SimdLevelAvailable(SimdLevel::kAvx2)) levels.push_back(SimdLevel::kAvx2);
  if (SimdLevelAvailable(SimdLevel::kAvx512)) {
    levels.push_back(SimdLevel::kAvx512);
  }
  return levels;
}

TEST(DispatchTest, ForceScalarEnvPinsScalar) {
  const char* force = std::getenv("CAGRA_FORCE_SCALAR");
  if (force != nullptr && force[0] != '\0' && force[0] != '0') {
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
    EXPECT_EQ(ActiveKernelTable().name, std::string("scalar"));
  } else {
    // Unforced, the active tier must be the widest available one.
    const std::vector<SimdLevel> levels = AvailableLevels();
    EXPECT_EQ(ActiveSimdLevel(), levels.back());
  }
}

TEST(DispatchTest, EveryLevelReportsAName) {
  for (SimdLevel level : AvailableLevels()) {
    EXPECT_FALSE(SimdLevelName(level).empty());
    EXPECT_EQ(KernelTableForLevel(level).name, SimdLevelName(level));
  }
}

TEST(DispatchTest, SimdKernelsMatchScalarReference) {
  const KernelTable& ref = KernelTableForLevel(SimdLevel::kScalar);
  for (SimdLevel level : AvailableLevels()) {
    const KernelTable& table = KernelTableForLevel(level);
    for (size_t dim : kDims) {
      const auto a = RandomVec(dim, dim * 7 + 1);
      const auto b = RandomVec(dim, dim * 7 + 2);
      const auto hb = ToHalfVec(b);
      const double scale = std::max<double>(1.0, dim);
      EXPECT_NEAR(table.l2_f32(a.data(), b.data(), dim),
                  ref.l2_f32(a.data(), b.data(), dim), kTolerance * scale)
          << table.name << " l2_f32 dim=" << dim;
      EXPECT_NEAR(table.dot_f32(a.data(), b.data(), dim),
                  ref.dot_f32(a.data(), b.data(), dim), kTolerance * scale)
          << table.name << " dot_f32 dim=" << dim;
      EXPECT_NEAR(table.l2_f16(a.data(), hb.data(), dim),
                  ref.l2_f16(a.data(), hb.data(), dim), kTolerance * scale)
          << table.name << " l2_f16 dim=" << dim;
      EXPECT_NEAR(table.dot_f16(a.data(), hb.data(), dim),
                  ref.dot_f16(a.data(), hb.data(), dim), kTolerance * scale)
          << table.name << " dot_f16 dim=" << dim;
      EXPECT_NEAR(table.norm2_f16(hb.data(), dim),
                  ref.norm2_f16(hb.data(), dim), kTolerance * scale)
          << table.name << " norm2_f16 dim=" << dim;
    }
  }
}

TEST(DispatchTest, SimdMatchesDoubleReferenceL2) {
  // Guards against a tier being self-consistently wrong: compare against
  // an order-independent double-precision sum, not just the scalar table.
  for (SimdLevel level : AvailableLevels()) {
    const KernelTable& table = KernelTableForLevel(level);
    for (size_t dim : kDims) {
      const auto a = RandomVec(dim, dim * 11 + 3);
      const auto b = RandomVec(dim, dim * 11 + 4);
      double expected = 0;
      for (size_t i = 0; i < dim; i++) {
        const double d = static_cast<double>(a[i]) - b[i];
        expected += d * d;
      }
      EXPECT_NEAR(table.l2_f32(a.data(), b.data(), dim), expected,
                  kTolerance * std::max(1.0, expected))
          << table.name << " dim=" << dim;
    }
  }
}

TEST(DispatchTest, Int8KernelsMatchScalarReference) {
  const KernelTable& ref = KernelTableForLevel(SimdLevel::kScalar);
  for (SimdLevel level : AvailableLevels()) {
    const KernelTable& table = KernelTableForLevel(level);
    for (size_t dim : kDims) {
      const auto query = RandomVec(dim, dim * 31 + 1);
      const auto codes = RandomCodes(dim, dim * 31 + 2);
      std::vector<float> scale, offset;
      RandomAffine(dim, dim * 31 + 3, &scale, &offset);
      // Decoded values reach |127 * 8 + 2| ≈ 1e3, so L2 sums grow as
      // dim * 1e6; scale the tolerance accordingly.
      const double mag = 1e6 * std::max<double>(1.0, dim);
      EXPECT_NEAR(table.l2_i8(query.data(), codes.data(), scale.data(),
                              offset.data(), dim),
                  ref.l2_i8(query.data(), codes.data(), scale.data(),
                            offset.data(), dim),
                  kTolerance * mag)
          << table.name << " l2_i8 dim=" << dim;
      EXPECT_NEAR(table.dot_i8(query.data(), codes.data(), scale.data(),
                               offset.data(), dim),
                  ref.dot_i8(query.data(), codes.data(), scale.data(),
                             offset.data(), dim),
                  kTolerance * mag)
          << table.name << " dot_i8 dim=" << dim;
      EXPECT_NEAR(table.norm2_i8(codes.data(), scale.data(), offset.data(),
                                 dim),
                  ref.norm2_i8(codes.data(), scale.data(), offset.data(),
                               dim),
                  kTolerance * mag)
          << table.name << " norm2_i8 dim=" << dim;
    }
  }
}

TEST(DispatchTest, Int8KernelsMatchDoubleDecodeReference) {
  // Guards against a tier being self-consistently wrong: pin every tier
  // against an order-independent double-precision decode-and-reduce.
  for (SimdLevel level : AvailableLevels()) {
    const KernelTable& table = KernelTableForLevel(level);
    for (size_t dim : kDims) {
      const auto query = RandomVec(dim, dim * 37 + 1);
      const auto codes = RandomCodes(dim, dim * 37 + 2);
      std::vector<float> scale, offset;
      RandomAffine(dim, dim * 37 + 3, &scale, &offset);
      double l2 = 0, dot = 0, norm2 = 0;
      for (size_t d = 0; d < dim; d++) {
        const double v =
            static_cast<double>(codes[d]) * scale[d] + offset[d];
        const double diff = static_cast<double>(query[d]) - v;
        l2 += diff * diff;
        dot += static_cast<double>(query[d]) * v;
        norm2 += v * v;
      }
      EXPECT_NEAR(table.l2_i8(query.data(), codes.data(), scale.data(),
                              offset.data(), dim),
                  l2, kTolerance * std::max(1.0, l2))
          << table.name << " l2_i8 dim=" << dim;
      EXPECT_NEAR(table.dot_i8(query.data(), codes.data(), scale.data(),
                               offset.data(), dim),
                  dot, kTolerance * std::max(1.0, std::abs(dot)))
          << table.name << " dot_i8 dim=" << dim;
      EXPECT_NEAR(table.norm2_i8(codes.data(), scale.data(), offset.data(),
                                 dim),
                  norm2, kTolerance * std::max(1.0, norm2))
          << table.name << " norm2_i8 dim=" << dim;
    }
  }
}

TEST(DispatchTest, Int8SaturatedRowsStayExact) {
  // All-saturated rows (±127) at a pure power-of-two scale decode to
  // exactly representable values, so every tier must agree bit-for-bit.
  const size_t dim = 48;
  std::vector<float> query(dim, 1.0f);
  std::vector<int8_t> codes(dim);
  for (size_t d = 0; d < dim; d++) codes[d] = (d % 2 == 0) ? 127 : -127;
  std::vector<float> scale(dim, 0.25f);
  std::vector<float> offset(dim, 0.0f);
  for (SimdLevel level : AvailableLevels()) {
    const KernelTable& table = KernelTableForLevel(level);
    double expect_l2 = 0, expect_dot = 0;
    for (size_t d = 0; d < dim; d++) {
      const double v = codes[d] * 0.25;
      expect_l2 += (1.0 - v) * (1.0 - v);
      expect_dot += v;
    }
    EXPECT_EQ(table.l2_i8(query.data(), codes.data(), scale.data(),
                          offset.data(), dim),
              static_cast<float>(expect_l2))
        << table.name;
    EXPECT_EQ(table.dot_i8(query.data(), codes.data(), scale.data(),
                           offset.data(), dim),
              static_cast<float>(expect_dot))
        << table.name;
  }
}

TEST(DispatchTest, MultiRowKernelsBitIdenticalToSingleRow) {
  // The x4 kernels' documented contract: out[r] is bit-identical to the
  // single-row kernel of the same tier. EXPECT_EQ, not NEAR.
  constexpr size_t kGroup = distance_kernels::kMultiRowWidth;
  for (SimdLevel level : AvailableLevels()) {
    const KernelTable& table = KernelTableForLevel(level);
    for (size_t dim : kDims) {
      const auto query = RandomVec(dim, dim * 41 + 1);
      Matrix<float> rows(kGroup, dim);
      Pcg32 rng(dim * 41 + 2);
      for (auto& x : *rows.mutable_data()) x = rng.NextFloat() * 2.0f - 1.0f;
      const Matrix<Half> hrows = ToHalf(rows);
      Matrix<int8_t> crows(kGroup, dim);
      const auto codes = RandomCodes(kGroup * dim, dim * 41 + 3);
      std::copy(codes.begin(), codes.end(), crows.mutable_data()->begin());
      std::vector<float> scale, offset;
      RandomAffine(dim, dim * 41 + 4, &scale, &offset);

      const float* f32_rows[kGroup];
      const Half* f16_rows[kGroup];
      const int8_t* i8_rows[kGroup];
      for (size_t r = 0; r < kGroup; r++) {
        f32_rows[r] = rows.Row(r);
        f16_rows[r] = hrows.Row(r);
        i8_rows[r] = crows.Row(r);
      }

      float got[kGroup];
      table.l2_f32x4(query.data(), f32_rows, dim, got);
      for (size_t r = 0; r < kGroup; r++) {
        EXPECT_EQ(got[r], table.l2_f32(query.data(), f32_rows[r], dim))
            << table.name << " l2_f32x4 row=" << r << " dim=" << dim;
      }
      table.dot_f32x4(query.data(), f32_rows, dim, got);
      for (size_t r = 0; r < kGroup; r++) {
        EXPECT_EQ(got[r], table.dot_f32(query.data(), f32_rows[r], dim))
            << table.name << " dot_f32x4 row=" << r << " dim=" << dim;
      }
      table.l2_f16x4(query.data(), f16_rows, dim, got);
      for (size_t r = 0; r < kGroup; r++) {
        EXPECT_EQ(got[r], table.l2_f16(query.data(), f16_rows[r], dim))
            << table.name << " l2_f16x4 row=" << r << " dim=" << dim;
      }
      table.dot_f16x4(query.data(), f16_rows, dim, got);
      for (size_t r = 0; r < kGroup; r++) {
        EXPECT_EQ(got[r], table.dot_f16(query.data(), f16_rows[r], dim))
            << table.name << " dot_f16x4 row=" << r << " dim=" << dim;
      }
      table.l2_i8x4(query.data(), i8_rows, scale.data(), offset.data(), dim,
                    got);
      for (size_t r = 0; r < kGroup; r++) {
        EXPECT_EQ(got[r], table.l2_i8(query.data(), i8_rows[r], scale.data(),
                                      offset.data(), dim))
            << table.name << " l2_i8x4 row=" << r << " dim=" << dim;
      }
      table.dot_i8x4(query.data(), i8_rows, scale.data(), offset.data(), dim,
                     got);
      for (size_t r = 0; r < kGroup; r++) {
        EXPECT_EQ(got[r], table.dot_i8(query.data(), i8_rows[r], scale.data(),
                                       offset.data(), dim))
            << table.name << " dot_i8x4 row=" << r << " dim=" << dim;
      }
    }
  }
}

TEST(DispatchTest, Int8BatchAndGatherMatchPairwise) {
  constexpr size_t kRows = 37;
  for (size_t dim : kDims) {
    Matrix<int8_t> rows(kRows, dim);
    const auto codes = RandomCodes(kRows * dim, dim * 43 + 1);
    std::copy(codes.begin(), codes.end(), rows.mutable_data()->begin());
    std::vector<float> scale, offset;
    RandomAffine(dim, dim * 43 + 2, &scale, &offset);
    const auto query = RandomVec(dim, dim * 43 + 3);

    // Every row in order (kRows = 37 runs both the x4 groups and the
    // tail), then out-of-order repeating ids.
    std::vector<uint32_t> in_order(kRows);
    for (size_t i = 0; i < kRows; i++) in_order[i] = static_cast<uint32_t>(i);
    Pcg32 rng(dim * 43 + 4);
    std::vector<uint32_t> shuffled;
    for (size_t i = 0; i < 29; i++) {
      shuffled.push_back(rng.NextBounded(kRows));
    }

    for (Metric metric :
         {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
      for (const auto* ids : {&in_order, &shuffled}) {
        std::vector<float> got(ids->size());
        ComputeDistanceGather(metric, query.data(), rows.data().data(),
                              scale.data(), offset.data(), dim, ids->data(),
                              ids->size(), got.data());
        for (size_t i = 0; i < ids->size(); i++) {
          EXPECT_EQ(got[i],
                    ComputeDistance(metric, query.data(),
                                    rows.Row((*ids)[i]), scale.data(),
                                    offset.data(), dim))
              << MetricName(metric) << " int8 gather i=" << i
              << " dim=" << dim << " in_order=" << (ids == &in_order);
        }
      }
    }
  }
}

TEST(DispatchTest, Int8DispatchMatchesQuantizedDistanceReference) {
  // End-to-end against the per-element decode reference on a real
  // QuantizedDataset fit: the dispatched kernels and QuantizedDistance
  // must agree to reassociation-level tolerance for every metric.
  Matrix<float> data(64, 96);
  Pcg32 rng(4242);
  for (auto& x : *data.mutable_data()) x = rng.NextFloat() * 2.0f - 1.0f;
  const QuantizedDataset q = QuantizeInt8(data);
  const auto query = RandomVec(96, 4243);
  for (Metric metric : {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    for (size_t i = 0; i < q.rows(); i++) {
      const float ref = QuantizedDistance(metric, query.data(), q, i);
      const float got =
          ComputeDistance(metric, query.data(), q.codes.Row(i),
                          q.scale.data(), q.offset.data(), q.dim());
      EXPECT_NEAR(got, ref, 1e-3f * std::max(1.0f, std::abs(ref)))
          << MetricName(metric) << " row=" << i;
    }
  }
}

TEST(DispatchTest, BatchMatchesPairwise) {
  constexpr size_t kRows = 37;
  for (size_t dim : kDims) {
    Matrix<float> rows(kRows, dim);
    Pcg32 rng(dim * 13 + 5);
    for (auto& x : *rows.mutable_data()) x = rng.NextFloat() * 2.0f - 1.0f;
    const auto query = RandomVec(dim, dim * 13 + 6);
    const Matrix<Half> hrows = ToHalf(rows);
    std::vector<uint32_t> ids(kRows);
    for (size_t i = 0; i < kRows; i++) ids[i] = static_cast<uint32_t>(i);

    for (Metric metric :
         {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
      std::vector<float> got(kRows);
      ComputeDistanceBatch(metric, query.data(), rows.data().data(), kRows,
                           dim, got.data());
      for (size_t i = 0; i < kRows; i++) {
        EXPECT_EQ(got[i],
                  ComputeDistance(metric, query.data(), rows.Row(i), dim))
            << MetricName(metric) << " fp32 row=" << i << " dim=" << dim;
      }

      // fp16 has no contiguous batch; the gather in row order covers
      // the same x4 groups and tail.
      ComputeDistanceGather(metric, query.data(), hrows.data().data(), dim,
                            ids.data(), kRows, got.data());
      for (size_t i = 0; i < kRows; i++) {
        EXPECT_EQ(got[i],
                  ComputeDistance(metric, query.data(), hrows.Row(i), dim))
            << MetricName(metric) << " fp16 row=" << i << " dim=" << dim;
      }
    }
  }
}

TEST(DispatchTest, GatherMatchesPairwise) {
  constexpr size_t kRows = 64;
  const size_t dim = 33;
  Matrix<float> rows(kRows, dim);
  Pcg32 rng(99);
  for (auto& x : *rows.mutable_data()) x = rng.NextFloat() * 2.0f - 1.0f;
  const auto query = RandomVec(dim, 100);
  const Matrix<Half> hrows = ToHalf(rows);

  // Out-of-order, repeating ids — the graph-expansion access pattern.
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < 50; i++) {
    ids.push_back(rng.NextBounded(kRows));
  }

  for (Metric metric : {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    std::vector<float> got(ids.size());
    ComputeDistanceGather(metric, query.data(), rows.data().data(), dim,
                          ids.data(), ids.size(), got.data());
    for (size_t i = 0; i < ids.size(); i++) {
      EXPECT_EQ(got[i], ComputeDistance(metric, query.data(),
                                        rows.Row(ids[i]), dim))
          << MetricName(metric) << " fp32 i=" << i;
    }

    ComputeDistanceGather(metric, query.data(), hrows.data().data(), dim,
                          ids.data(), ids.size(), got.data());
    for (size_t i = 0; i < ids.size(); i++) {
      EXPECT_EQ(got[i], ComputeDistance(metric, query.data(),
                                        hrows.Row(ids[i]), dim))
          << MetricName(metric) << " fp16 i=" << i;
    }
  }
}

class ParallelSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const DatasetProfile* profile = FindProfile("DEEP-1M");
    ASSERT_NE(profile, nullptr);
    data_ = GenerateDataset(*profile, 3000, 64, 7);
    BuildParams bp;
    bp.graph_degree = 16;
    auto built = CagraIndex::Build(data_.base, bp);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    index_ = std::move(built.value());
  }

  SyntheticData data_;
  CagraIndex index_;
};

TEST_F(ParallelSearchTest, ParallelBatchIdenticalToSerial) {
  for (SearchAlgo algo : {SearchAlgo::kSingleCta, SearchAlgo::kMultiCta}) {
    SearchParams params;
    params.k = 10;
    params.itopk = 64;
    params.algo = algo;

    params.num_threads = 1;
    auto serial = Search(index_, data_.queries, params);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();

    for (size_t threads : {size_t{0}, size_t{3}, size_t{8}}) {
      params.num_threads = threads;
      auto parallel = Search(index_, data_.queries, params);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      // Byte-identical: same ids in the same order, bit-equal distances.
      EXPECT_EQ(parallel->neighbors.ids, serial->neighbors.ids)
          << "algo=" << static_cast<int>(algo) << " threads=" << threads;
      EXPECT_EQ(parallel->neighbors.distances, serial->neighbors.distances)
          << "algo=" << static_cast<int>(algo) << " threads=" << threads;
    }
  }
}

TEST_F(ParallelSearchTest, ParallelShardedIdenticalToSerial) {
  BuildParams bp;
  bp.graph_degree = 16;
  auto sharded = ShardedCagraIndex::Build(data_.base, bp, 3);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  SearchParams params;
  params.k = 10;
  params.num_threads = 1;
  auto serial = sharded->Search(data_.queries, params);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  params.num_threads = 0;
  auto parallel = sharded->Search(data_.queries, params);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(parallel->neighbors.ids, serial->neighbors.ids);
  EXPECT_EQ(parallel->neighbors.distances, serial->neighbors.distances);
}

TEST_F(ParallelSearchTest, RecordsHostThroughput) {
  SearchParams params;
  params.k = 10;
  auto result = Search(index_, data_.queries, params);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->host_qps, 0.0);
  EXPECT_GE(result->host_threads, 1u);
}

}  // namespace
}  // namespace cagra
