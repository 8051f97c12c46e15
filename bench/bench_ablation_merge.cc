// Ablation (DESIGN.md §4.6): the forward/reverse interleave ratio of the
// final merge. The paper fixes d/2 + d/2 (§III-B2); this sweep shows why
// that split is a good default.
#include <cstdio>

#include "bench/common.h"
#include "graph/analysis.h"

int main() {
  using namespace cagra;
  const auto wb = bench::MakeWorkbench("DEEP-1M", 200, 10, 8000);
  bench::PrintSeriesHeader("Ablation: merge forward fraction", "DEEP-1M",
                           "(d=32, itopk=64)");
  for (double frac : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    BuildParams bp;
    bp.graph_degree = wb.profile->cagra_degree;
    bp.forward_fraction = frac;
    bp.metric = wb.profile->metric;
    auto index = CagraIndex::Build(wb.data.base, bp);
    if (!index.ok()) continue;
    SearchParams sp;
    sp.k = 10;
    sp.itopk = 64;
    sp.algo = SearchAlgo::kSingleCta;
    auto r = Search(*index, wb.data.queries, sp);
    if (!r.ok()) continue;
    const auto snap = index->snapshot();
    std::printf(
        "  forward=%.2f  2hop=%6.1f  strongCC=%4zu  recall@10=%.3f  "
        "QPS=%.2e\n",
        frac, Average2HopCount(snap->GraphRef(), 1000),
        CountStrongComponents(snap->GraphRef()),
        ComputeRecall(r->neighbors, bench::GtAtK(wb, 10)),
        bench::ModeledQpsAtBatch(*r, 10000));
  }
  std::printf(
      "\nExpected shape: pure-forward (1.0) loses reverse reachability\n"
      "(more strong CCs); pure-reverse (0.0) loses the distance-ordered\n"
      "descent edges; the paper's 0.5 balances both.\n");
  return 0;
}
