#include <gtest/gtest.h>

#include "gpusim/cost_model.h"
#include "gpusim/device_spec.h"

namespace cagra {
namespace {

KernelLaunchConfig BaseConfig() {
  KernelLaunchConfig cfg;
  cfg.batch = 10000;
  cfg.ctas_per_query = 1;
  cfg.threads_per_cta = 256;
  cfg.team_size = 8;
  cfg.dim = 96;
  cfg.elem_bytes = 4;
  cfg.candidates_per_iter = 32;
  cfg.shared_mem_per_cta = 4096;
  return cfg;
}

KernelCounters BaseCounters() {
  KernelCounters c;
  c.queries = 10000;
  c.distance_computations = 10000ull * 1000;
  c.distance_elements = c.distance_computations * 96;
  c.device_vector_bytes = c.distance_computations * 96 * 4;
  c.device_graph_bytes = 10000ull * 30 * 32 * 4;
  c.hash_probes_shared = 10000ull * 2000;
  c.sort_exchanges = 10000ull * 5000;
  c.iterations = 10000ull * 30;
  c.max_iterations = 30;
  c.kernel_launches = 1;
  return c;
}

TEST(DeviceSpecTest, A100Defaults) {
  DeviceSpec dev;
  EXPECT_EQ(dev.sm_count, 108u);
  EXPECT_EQ(dev.warp_size, 32u);
  // ~19.5 TFLOPS fp32.
  EXPECT_NEAR(dev.PeakFlops(), 1.95e13, 1e12);
}

TEST(CpuSpecTest, BatchScaleReflectsCores) {
  CpuSpec cpu;
  EXPECT_NEAR(cpu.BatchScale(), 54.4, 0.01);
}

TEST(CountersTest, AddAccumulatesAndMaxes) {
  KernelCounters a, b;
  a.distance_computations = 10;
  a.max_iterations = 5;
  b.distance_computations = 7;
  b.max_iterations = 9;
  a.Add(b);
  EXPECT_EQ(a.distance_computations, 17u);
  EXPECT_EQ(a.max_iterations, 9u);
}

TEST(CountersTest, ScaledScalesAdditiveCountsOnly) {
  KernelCounters c;
  c.distance_computations = 100;
  c.distance_elements = 200;
  c.device_vector_bytes = 300;
  c.device_graph_bytes = 400;
  c.hash_probes_shared = 500;
  c.hash_probes_device = 600;
  c.hash_table_device_bytes = 700;
  c.hash_resets = 800;
  c.sort_exchanges = 900;
  c.radix_scatters = 1000;
  c.iterations = 1100;
  c.max_iterations = 12;
  c.kernel_launches = 13;
  c.queries = 14;
  const KernelCounters s = c.Scaled(2.5);
  EXPECT_EQ(s.distance_computations, 250u);
  EXPECT_EQ(s.distance_elements, 500u);
  EXPECT_EQ(s.device_vector_bytes, 750u);
  EXPECT_EQ(s.device_graph_bytes, 1000u);
  EXPECT_EQ(s.hash_probes_shared, 1250u);
  EXPECT_EQ(s.hash_probes_device, 1500u);
  EXPECT_EQ(s.hash_table_device_bytes, 1750u);
  EXPECT_EQ(s.hash_resets, 2000u);
  EXPECT_EQ(s.sort_exchanges, 2250u);
  EXPECT_EQ(s.radix_scatters, 2500u);
  EXPECT_EQ(s.iterations, 2750u);
  EXPECT_EQ(s.queries, 35u);
  // Not additive over queries: the longest chain and the launch count.
  EXPECT_EQ(s.max_iterations, 12u);
  EXPECT_EQ(s.kernel_launches, 13u);
  // Rounds to the nearest count, both ways.
  EXPECT_EQ(c.Scaled(0.0125).queries, 0u);   // 0.175
  EXPECT_EQ(c.Scaled(0.05).queries, 1u);     // 0.7
  EXPECT_EQ(c.Scaled(1.0 / 3).distance_computations, 33u);
  // Extrapolating a batch to a target size lands on the target exactly.
  EXPECT_EQ(c.Scaled(10000.0 / 14).queries, 10000u);
}

// -------------------------------------------------------- Occupancy model

TEST(OccupancyTest, FullBatchFillsDevice) {
  DeviceSpec dev;
  auto cfg = BaseConfig();
  const OccupancyInfo info = AnalyzeOccupancy(dev, cfg);
  EXPECT_GT(info.occupancy, 0.2);
  EXPECT_DOUBLE_EQ(info.device_fill, 1.0);
}

TEST(OccupancyTest, SingleQuerySingleCtaUnderfills) {
  DeviceSpec dev;
  auto cfg = BaseConfig();
  cfg.batch = 1;
  const OccupancyInfo info = AnalyzeOccupancy(dev, cfg);
  EXPECT_LT(info.device_fill, 0.02);  // 1 of 108 SMs
}

TEST(OccupancyTest, MultiCtaRestoresFillForSingleQuery) {
  DeviceSpec dev;
  auto cfg = BaseConfig();
  cfg.batch = 1;
  cfg.ctas_per_query = 64;
  const OccupancyInfo info = AnalyzeOccupancy(dev, cfg);
  EXPECT_GT(info.device_fill, 0.5);
}

TEST(OccupancyTest, SharedMemoryLimitsResidency) {
  DeviceSpec dev;
  auto cfg = BaseConfig();
  const double occ_small = AnalyzeOccupancy(dev, cfg).occupancy;
  cfg.shared_mem_per_cta = dev.shared_mem_per_sm;  // one CTA per SM
  const double occ_large = AnalyzeOccupancy(dev, cfg).occupancy;
  EXPECT_LT(occ_large, occ_small);
}

TEST(OccupancyTest, SmallTeamRaisesRegisterDemand) {
  DeviceSpec dev;
  auto cfg = BaseConfig();
  cfg.dim = 960;
  cfg.team_size = 2;
  const auto small_team = AnalyzeOccupancy(dev, cfg);
  cfg.team_size = 32;
  const auto big_team = AnalyzeOccupancy(dev, cfg);
  EXPECT_GT(small_team.regs_per_thread, big_team.regs_per_thread);
  EXPECT_LE(small_team.occupancy, big_team.occupancy);
}

TEST(OccupancyTest, LoadEfficiencyFollowsPaperExample) {
  // §IV-B1: dim 96 fp32 = 3072 bits; a full warp (team 32) loads 4096
  // bits -> 75% efficiency; a team of 8 loads 3 x 1024 bits -> 100%.
  DeviceSpec dev;
  auto cfg = BaseConfig();
  cfg.dim = 96;
  cfg.team_size = 32;
  EXPECT_NEAR(AnalyzeOccupancy(dev, cfg).load_efficiency, 0.75, 1e-9);
  cfg.team_size = 8;
  EXPECT_NEAR(AnalyzeOccupancy(dev, cfg).load_efficiency, 1.0, 1e-9);
}

// -------------------------------------------------------- Cost model

TEST(CostModelTest, TotalIsPositiveAndDecomposes) {
  DeviceSpec dev;
  const auto cost = EstimateKernelTime(dev, BaseConfig(), BaseCounters());
  EXPECT_GT(cost.total, 0.0);
  EXPECT_GE(cost.total, cost.launch);
  EXPECT_GT(cost.memory, 0.0);
  EXPECT_GT(cost.compute, 0.0);
}

TEST(CostModelTest, MoreWorkCostsMore) {
  DeviceSpec dev;
  auto counters = BaseCounters();
  const double base = EstimateKernelTime(dev, BaseConfig(), counters).total;
  counters.distance_computations *= 4;
  counters.distance_elements *= 4;
  counters.device_vector_bytes *= 4;
  const double more = EstimateKernelTime(dev, BaseConfig(), counters).total;
  EXPECT_GT(more, base * 2);
}

TEST(CostModelTest, Fp16HalvesMemoryTerm) {
  DeviceSpec dev;
  auto cfg = BaseConfig();
  auto counters = BaseCounters();
  const double fp32_mem = EstimateKernelTime(dev, cfg, counters).memory;
  counters.device_vector_bytes /= 2;  // fp16 storage
  cfg.elem_bytes = 2;
  const double fp16_mem = EstimateKernelTime(dev, cfg, counters).memory;
  EXPECT_LT(fp16_mem, fp32_mem * 0.8);
}

TEST(CostModelTest, LargeBatchHasHigherQpsThanSingle) {
  DeviceSpec dev;
  auto cfg = BaseConfig();
  auto counters = BaseCounters();
  const double batch_qps = EstimateQps(dev, cfg, counters);

  // Same per-query work at batch 1.
  auto one_cfg = cfg;
  one_cfg.batch = 1;
  const KernelCounters one = counters.Scaled(1.0 / 10000);
  ASSERT_EQ(one.queries, 1u);
  const double single_qps = EstimateQps(dev, one_cfg, one);
  EXPECT_GT(batch_qps, 50 * single_qps);
}

TEST(CostModelTest, SerialFloorBindsSingleQuery) {
  DeviceSpec dev;
  auto cfg = BaseConfig();
  cfg.batch = 1;
  KernelCounters c;
  c.queries = 1;
  c.max_iterations = 100;
  c.kernel_launches = 1;
  const auto cost = EstimateKernelTime(dev, cfg, c);
  // 100 dependent iterations x ~1us latency each dominates.
  EXPECT_GE(cost.total, c.max_iterations * dev.mem_latency);
}

TEST(CostModelTest, DeviceHashCostlierThanShared) {
  DeviceSpec dev;
  auto cfg = BaseConfig();
  KernelCounters shared = BaseCounters();
  KernelCounters device = BaseCounters();
  device.hash_probes_device = device.hash_probes_shared;
  device.hash_probes_shared = 0;
  const double shared_cost = EstimateKernelTime(dev, cfg, shared).hash;
  const double device_cost = EstimateKernelTime(dev, cfg, device).hash;
  EXPECT_GT(device_cost, shared_cost);
}

TEST(CostModelTest, KernelLaunchOverheadCharged) {
  DeviceSpec dev;
  KernelCounters c;
  c.queries = 1;
  c.kernel_launches = 10;
  const auto cost = EstimateKernelTime(dev, BaseConfig(), c);
  EXPECT_GE(cost.launch, 10 * dev.kernel_launch_overhead * 0.99);
}

// Team-size sweep reproducing the Fig. 8 qualitative result.
struct TeamCase {
  size_t dim;
  size_t best_low;   // acceptable best team sizes (inclusive range)
  size_t best_high;
};

class TeamSizeSweep : public ::testing::TestWithParam<TeamCase> {};

TEST_P(TeamSizeSweep, BestTeamSizeMatchesPaper) {
  const TeamCase tc = GetParam();
  DeviceSpec dev;
  double best_score = -1;
  size_t best_ts = 0;
  for (size_t ts : {2u, 4u, 8u, 16u, 32u}) {
    auto cfg = BaseConfig();
    cfg.dim = tc.dim;
    cfg.team_size = ts;
    const auto info = AnalyzeOccupancy(dev, cfg);
    const double score =
        info.load_efficiency * info.occupancy * info.round_efficiency;
    if (score > best_score) {
      best_score = score;
      best_ts = ts;
    }
  }
  EXPECT_GE(best_ts, tc.best_low) << "dim=" << tc.dim;
  EXPECT_LE(best_ts, tc.best_high) << "dim=" << tc.dim;
}

INSTANTIATE_TEST_SUITE_P(
    Fig8, TeamSizeSweep,
    ::testing::Values(TeamCase{96, 4, 8},     // DEEP-1M: team 4-8 best
                      TeamCase{960, 16, 32},  // GIST: team 32 best
                      TeamCase{128, 4, 16}));

}  // namespace
}  // namespace cagra
