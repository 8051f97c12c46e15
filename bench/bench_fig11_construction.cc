// Reproduces Fig. 11: graph construction time for CAGRA, GGNN, GANNS,
// HNSW and NSSG on SIFT, GloVe-200, GIST and NYTimes profiles, with the
// kNN-build / optimization breakdown for CAGRA and NSSG.
//
// All builds run on the host; on real hardware the GPU methods (CAGRA,
// GGNN, GANNS) would shrink further, so the CAGRA-vs-CPU gap shown here
// is a *lower bound* on the paper's (DESIGN.md section 1).
#include <cstdio>

#include "baselines/ganns/ganns.h"
#include "baselines/ggnn/ggnn.h"
#include "baselines/hnsw/hnsw.h"
#include "baselines/nssg/nssg.h"
#include "bench/common.h"

namespace {

using namespace cagra;

void RunDataset(const char* name) {
  const auto wb = bench::MakeWorkbench(name, /*num_queries=*/1);
  const size_t d = wb.profile->cagra_degree;
  bench::PrintSeriesHeader(
      "Fig. 11", name,
      ("n=" + std::to_string(wb.data.base.rows())).c_str());

  {
    BuildParams bp;
    bp.graph_degree = d;
    bp.metric = wb.profile->metric;
    BuildStats stats;
    Timer t;
    auto index = CagraIndex::Build(wb.data.base, bp, &stats);
    std::printf(
        "  %-8s measured %8.2fs -> modeled GPU %7.3fs  (kNN %.2fs, %zu "
        "iters, sampled recall %.3f + opt %.2fs)\n",
        "CAGRA", t.Seconds(), bench::ModeledGpuBuildSeconds(t.Seconds()),
        stats.knn.seconds, stats.knn.iterations, stats.knn.sampled_recall,
        stats.optimize.total_seconds);
  }
  {
    GgnnParams gp;
    gp.degree = d;
    gp.metric = wb.profile->metric;
    GgnnBuildStats stats;
    GgnnIndex::Build(wb.data.base, gp, &stats);
    std::printf("  %-8s measured %8.2fs -> modeled GPU %7.3fs  (%zu layers)\n",
                "GGNN", stats.seconds,
                bench::ModeledGpuBuildSeconds(stats.seconds), stats.layers);
  }
  {
    GannsParams ap;
    ap.m = d / 2;
    ap.metric = wb.profile->metric;
    GannsBuildStats stats;
    GannsIndex::Build(wb.data.base, ap, &stats);
    std::printf(
        "  %-8s measured %8.2fs -> modeled GPU %7.3fs  (%zu rounds)\n",
        "GANNS", stats.seconds, bench::ModeledGpuBuildSeconds(stats.seconds),
        stats.rounds);
  }
  {
    HnswParams hp;
    hp.m = d / 2;  // bottom-layer degree 2m ~ d, matching average degree
    hp.metric = wb.profile->metric;
    HnswBuildStats stats;
    HnswIndex::Build(wb.data.base, hp, &stats);
    std::printf(
        "  %-8s measured %8.2fs -> modeled CPU %7.3fs  (max level %zu)\n",
        "HNSW", stats.seconds, bench::ModeledCpuBuildSeconds(stats.seconds),
        stats.max_level);
  }
  {
    NssgParams np;
    np.degree = d;
    np.knn_k = d;
    np.metric = wb.profile->metric;
    NssgBuildStats stats;
    NssgIndex::Build(wb.data.base, np, &stats);
    std::printf(
        "  %-8s measured %8.2fs -> modeled CPU %7.3fs  (kNN %.2fs + prune "
        "%.2fs)\n",
        "NSSG", stats.total_seconds,
        bench::ModeledCpuBuildSeconds(stats.total_seconds),
        stats.knn_seconds, stats.prune_seconds);
  }
}

}  // namespace

int main() {
  for (const char* name : {"SIFT-1M", "GloVe-200", "GIST-1M", "NYTimes"}) {
    RunDataset(name);
  }
  std::printf(
      "\nExpected shape (paper): CAGRA is the fastest builder on every\n"
      "dataset (2.2-27x vs HNSW); NSSG is the slowest.\n");
  return 0;
}
