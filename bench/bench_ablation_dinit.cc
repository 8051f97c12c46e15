// Ablation (§III-B1): the intermediate (initial kNN graph) degree,
// "we will typically set d_init to be 2d or 3d". Sweeps d_init/d and
// reports build cost vs. resulting search quality.
#include <cstdio>

#include "bench/common.h"
#include "graph/analysis.h"

int main() {
  using namespace cagra;
  const auto wb = bench::MakeWorkbench("DEEP-1M", 200, 10, 8000);
  const size_t d = wb.profile->cagra_degree;
  bench::PrintSeriesHeader("Ablation: intermediate degree d_init",
                           "DEEP-1M", "(d=32)");
  for (size_t ratio : {1, 2, 3, 4}) {
    BuildParams bp;
    bp.graph_degree = d;
    bp.intermediate_degree = ratio * d;
    bp.metric = wb.profile->metric;
    BuildStats stats;
    auto index = CagraIndex::Build(wb.data.base, bp, &stats);
    if (!index.ok()) continue;
    SearchParams sp;
    sp.k = 10;
    sp.itopk = 64;
    sp.algo = SearchAlgo::kSingleCta;
    auto r = Search(*index, wb.data.queries, sp);
    if (!r.ok()) continue;
    const auto snap = index->snapshot();
    std::printf(
        "  d_init=%3zu (%zux)  build=%6.1fs  2hop=%6.1f  recall@10=%.3f\n",
        ratio * d, ratio, stats.total_seconds,
        Average2HopCount(snap->GraphRef(), 1000),
        ComputeRecall(r->neighbors, bench::GtAtK(wb, 10)));
  }
  std::printf(
      "\nExpected shape: 1x leaves the optimizer nothing to prune (lower\n"
      "quality); 2-3x is the paper's sweet spot; 4x pays build time for\n"
      "little extra recall.\n");
  return 0;
}
