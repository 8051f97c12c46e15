// Reproduces Fig. 15: graph construction time for CAGRA vs HNSW across
// the DEEP-1M / DEEP-10M / DEEP-100M ladder (scaled 1:2:5 here, paper
// 1:10:100 — DESIGN.md section 5), with the CAGRA kNN/opt breakdown.
#include <cstdio>

#include "baselines/hnsw/hnsw.h"
#include "bench/common.h"

int main() {
  using namespace cagra;
  double prev_cagra = 0, prev_n = 0;
  for (const char* name : {"DEEP-1M", "DEEP-10M", "DEEP-100M"}) {
    const auto wb = bench::MakeWorkbench(name, /*num_queries=*/1);
    const size_t n = wb.data.base.rows();
    bench::PrintSeriesHeader("Fig. 15", name,
                             ("n=" + std::to_string(n)).c_str());

    BuildParams bp;
    bp.graph_degree = wb.profile->cagra_degree;
    bp.metric = wb.profile->metric;
    BuildStats stats;
    auto index = CagraIndex::Build(wb.data.base, bp, &stats);
    std::printf(
        "  %-6s measured %8.2fs -> modeled GPU %7.3fs (kNN %.2fs, %zu iters, "
        "sampled recall %.3f + opt %.2fs)",
        "CAGRA", stats.total_seconds,
        bench::ModeledGpuBuildSeconds(stats.total_seconds), stats.knn.seconds,
        stats.knn.iterations, stats.knn.sampled_recall,
        stats.optimize.total_seconds);
    if (prev_cagra > 0) {
      std::printf("  [x%.1f time for x%.1f data]",
                  stats.total_seconds / prev_cagra, n / prev_n);
    }
    std::printf("\n");
    prev_cagra = stats.total_seconds;
    prev_n = static_cast<double>(n);

    HnswParams hp;
    hp.m = wb.profile->cagra_degree / 2;
    hp.metric = wb.profile->metric;
    HnswBuildStats hstats;
    HnswIndex::Build(wb.data.base, hp, &hstats);
    std::printf("  %-6s measured %8.2fs -> modeled CPU %7.3fs\n", "HNSW",
                hstats.seconds,
                bench::ModeledCpuBuildSeconds(hstats.seconds));
  }
  std::printf(
      "\nExpected shape (paper): both grow ~linearly with n; CAGRA stays\n"
      "~2x faster than HNSW at every size (on real hardware the GPU\n"
      "build widens this gap).\n");
  return 0;
}
