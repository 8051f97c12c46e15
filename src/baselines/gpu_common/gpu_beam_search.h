#ifndef CAGRA_BASELINES_GPU_COMMON_GPU_BEAM_SEARCH_H_
#define CAGRA_BASELINES_GPU_COMMON_GPU_BEAM_SEARCH_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "dataset/matrix.h"
#include "dataset/recall.h"
#include "distance/distance.h"
#include "gpusim/cost_model.h"
#include "gpusim/counters.h"
#include "graph/fixed_degree_graph.h"

namespace cagra {

/// Counter-instrumented best-first (beam) graph search — the common
/// search kernel shape of the GGNN and GANNS baselines: one CTA per
/// query, an ef-bounded result heap, an open-addressing visited table in
/// device memory, and no software warp splitting (distances are computed
/// warp-wide, the SONG/GGNN approach). Charges the same counter currency
/// as the CAGRA search so both run through one cost model. NSSG's CPU
/// search (NssgIndex::SearchGraph) is the same loop and runs through it
/// too, keeping only the distance and iteration counts.
struct GpuBeamResult {
  std::vector<std::pair<float, uint32_t>> neighbors;  ///< ascending
  size_t iterations = 0;
};

GpuBeamResult GpuBeamSearch(const Matrix<float>& dataset, Metric metric,
                            const AdjacencyGraph& graph, const float* query,
                            size_t k, size_t ef,
                            const std::vector<uint32_t>& entries,
                            KernelCounters* counters);

/// Launch configuration both baselines report to the cost model: one CTA
/// per query, full-warp distances (team = 32), heap maintenance priced as
/// bitonic exchanges.
KernelLaunchConfig GpuBaselineLaunchConfig(size_t batch, size_t dim,
                                           size_t avg_degree);

}  // namespace cagra

#endif  // CAGRA_BASELINES_GPU_COMMON_GPU_BEAM_SEARCH_H_
