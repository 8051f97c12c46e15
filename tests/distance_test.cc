#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "distance/distance.h"
#include "util/rng.h"

namespace cagra {
namespace {

std::vector<float> RandomVec(size_t dim, uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<float> v(dim);
  for (auto& x : v) x = rng.NextFloat() * 2.0f - 1.0f;
  return v;
}

float NaiveL2(const std::vector<float>& a, const std::vector<float>& b) {
  double acc = 0;
  for (size_t i = 0; i < a.size(); i++) {
    acc += (a[i] - b[i]) * static_cast<double>(a[i] - b[i]);
  }
  return static_cast<float>(acc);
}

TEST(DistanceTest, L2OfIdenticalVectorsIsZero) {
  auto v = RandomVec(128, 1);
  EXPECT_EQ(ComputeDistance(Metric::kL2, v.data(), v.data(), v.size()), 0.0f);
}

TEST(DistanceTest, L2KnownValue) {
  std::vector<float> a = {1, 2, 3};
  std::vector<float> b = {4, 6, 3};
  EXPECT_FLOAT_EQ(ComputeDistance(Metric::kL2, a.data(), b.data(), 3), 25.0f);
}

TEST(DistanceTest, L2Symmetric) {
  auto a = RandomVec(96, 2);
  auto b = RandomVec(96, 3);
  EXPECT_FLOAT_EQ(ComputeDistance(Metric::kL2, a.data(), b.data(), 96),
                  ComputeDistance(Metric::kL2, b.data(), a.data(), 96));
}

TEST(DistanceTest, InnerProductKnownValue) {
  std::vector<float> a = {1, 2, 3};
  std::vector<float> b = {4, 5, 6};
  // Negated dot product: smaller = more similar.
  EXPECT_FLOAT_EQ(
      ComputeDistance(Metric::kInnerProduct, a.data(), b.data(), 3), -32.0f);
}

TEST(DistanceTest, CosineOfParallelVectorsIsZero) {
  std::vector<float> a = {1, 2, 3};
  std::vector<float> b = {2, 4, 6};
  EXPECT_NEAR(ComputeDistance(Metric::kCosine, a.data(), b.data(), 3), 0.0f,
              1e-6f);
}

TEST(DistanceTest, CosineOfOrthogonalVectorsIsOne) {
  std::vector<float> a = {1, 0};
  std::vector<float> b = {0, 1};
  EXPECT_FLOAT_EQ(ComputeDistance(Metric::kCosine, a.data(), b.data(), 2),
                  1.0f);
}

TEST(DistanceTest, CosineOfOppositeVectorsIsTwo) {
  std::vector<float> a = {1, 1};
  std::vector<float> b = {-1, -1};
  EXPECT_NEAR(ComputeDistance(Metric::kCosine, a.data(), b.data(), 2), 2.0f,
              1e-6f);
}

TEST(DistanceTest, CosineZeroVectorDefined) {
  std::vector<float> a = {0, 0, 0};
  std::vector<float> b = {1, 2, 3};
  EXPECT_EQ(ComputeDistance(Metric::kCosine, a.data(), b.data(), 3), 1.0f);
}

TEST(DistanceTest, MetricNames) {
  EXPECT_EQ(MetricName(Metric::kL2), "L2");
  EXPECT_EQ(MetricName(Metric::kInnerProduct), "InnerProduct");
  EXPECT_EQ(MetricName(Metric::kCosine), "Cosine");
}

TEST(DistanceTest, Fp16PathTracksFp32) {
  for (Metric metric :
       {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    auto q = RandomVec(128, 6);
    auto v = RandomVec(128, 7);
    std::vector<Half> hv(128);
    for (size_t i = 0; i < 128; i++) hv[i] = Half(v[i]);
    const float f32 = ComputeDistance(metric, q.data(), v.data(), 128);
    const float f16 = ComputeDistance(metric, q.data(), hv.data(), 128);
    // fp16 storage error is ~2^-11 per element.
    EXPECT_NEAR(f16, f32, std::max(1.0f, std::abs(f32)) * 0.01f)
        << MetricName(metric);
  }
}

TEST(DistanceTest, Fp16ExactForRepresentableValues) {
  std::vector<float> q = {1.0f, -2.0f, 0.5f, 4.0f};
  std::vector<Half> v = {Half(2.0f), Half(1.0f), Half(-0.5f), Half(0.0f)};
  std::vector<float> vf = {2.0f, 1.0f, -0.5f, 0.0f};
  EXPECT_FLOAT_EQ(ComputeDistance(Metric::kL2, q.data(), v.data(), 4),
                  ComputeDistance(Metric::kL2, q.data(), vf.data(), 4));
}

// Dimension sweep: remainder-loop handling for every dim mod 4 case, all
// metrics, against a double-precision reference.
class DistanceSweepTest
    : public ::testing::TestWithParam<std::tuple<size_t, Metric>> {};

TEST_P(DistanceSweepTest, MatchesNaiveReference) {
  const auto [dim, metric] = GetParam();
  auto a = RandomVec(dim, dim * 3 + 11);
  auto b = RandomVec(dim, dim * 3 + 12);
  const float got = ComputeDistance(metric, a.data(), b.data(), dim);
  double expected = 0;
  switch (metric) {
    case Metric::kL2:
      expected = NaiveL2(a, b);
      break;
    case Metric::kInnerProduct: {
      double dot = 0;
      for (size_t i = 0; i < dim; i++) dot += a[i] * b[i];
      expected = -dot;
      break;
    }
    case Metric::kCosine: {
      double dot = 0, na = 0, nb = 0;
      for (size_t i = 0; i < dim; i++) {
        dot += a[i] * b[i];
        na += a[i] * a[i];
        nb += b[i] * b[i];
      }
      expected = 1.0 - dot / (std::sqrt(na) * std::sqrt(nb));
      break;
    }
  }
  EXPECT_NEAR(got, expected, 1e-4 * std::max(1.0, std::abs(expected)));
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndMetrics, DistanceSweepTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 7, 8, 31, 96, 100,
                                         128, 200, 960),
                       ::testing::Values(Metric::kL2, Metric::kInnerProduct,
                                         Metric::kCosine)));

}  // namespace
}  // namespace cagra
