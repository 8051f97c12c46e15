// Reproduces Fig. 12: raw graph-quality comparison. The *same* search
// implementation (NSSG's random-start greedy search, on the CPU) runs
// over three graphs: the NSSG graph, a degree-matched CAGRA graph, and a
// kNN graph. QPS is measured single-thread CPU time scaled to the
// paper's 64-core EPYC (DESIGN.md section 1).
#include <cstdio>

#include "baselines/nssg/nssg.h"
#include "bench/common.h"
#include "knn/nn_descent.h"

namespace {

using namespace cagra;

void Curve(const char* label, const Matrix<float>& base, Metric metric,
           const AdjacencyGraph& graph, const bench::Workbench& wb) {
  std::printf("  %-8s", label);
  for (size_t pool : {20, 40, 80, 160}) {
    Timer t;
    size_t hits = 0;
    const size_t nq = wb.data.queries.rows();
    for (size_t q = 0; q < nq; q++) {
      auto r = NssgIndex::SearchGraph(base, metric, graph,
                                      wb.data.queries.Row(q), 10, pool, q);
      for (const auto& [dist, id] : r) {
        for (size_t i = 0; i < 10; i++) {
          if (wb.gt.Row(q)[i] == id) {
            hits++;
            break;
          }
        }
      }
    }
    const double recall = static_cast<double>(hits) / (10.0 * nq);
    const double qps = bench::ScaledCpuBatchQps(t.Seconds(), nq);
    std::printf("  %.3f/%.2e", recall, qps);
  }
  std::printf("   (recall@10 / QPS at pool=20..160)\n");
}

void RunDataset(const char* name) {
  const auto wb = bench::MakeWorkbench(name, 120, 10);
  bench::PrintSeriesHeader("Fig. 12", name, "(NSSG search impl everywhere)");
  const Metric metric = wb.profile->metric;

  // NSSG graph first: its average degree decides the CAGRA degree (the
  // paper matches out-degrees, rounding down to a multiple of 16).
  NssgParams np;
  np.degree = wb.profile->cagra_degree;
  np.knn_k = wb.profile->cagra_degree;
  np.metric = metric;
  const NssgIndex nssg = NssgIndex::Build(wb.data.base, np);
  const double avg = nssg.AverageDegree();
  size_t cagra_d = std::max<size_t>(16, (static_cast<size_t>(avg) / 16) * 16);
  std::printf("  NSSG avg degree %.1f -> CAGRA d=%zu\n", avg, cagra_d);

  BuildParams bp;
  bp.graph_degree = cagra_d;
  bp.metric = metric;
  auto cagra_index = CagraIndex::Build(wb.data.base, bp);
  if (!cagra_index.ok()) return;

  NnDescentParams nnd;
  nnd.k = cagra_d;
  const FixedDegreeGraph knn =
      BuildKnnGraphNnDescent(wb.data.base, nnd, metric);

  Curve("kNN", wb.data.base, metric, ToAdjacency(knn), wb);
  const auto snap = cagra_index->snapshot();
  Curve("CAGRA", wb.data.base, metric, ToAdjacency(snap->GraphRef()), wb);
  Curve("NSSG", wb.data.base, metric, nssg.graph(), wb);
}

}  // namespace

int main() {
  for (const char* name : {"SIFT-1M", "GIST-1M", "GloVe-200", "NYTimes"}) {
    RunDataset(name);
  }
  std::printf(
      "\nExpected shape (paper): CAGRA and NSSG curves overlap; the raw\n"
      "kNN graph is clearly worse.\n");
  return 0;
}
