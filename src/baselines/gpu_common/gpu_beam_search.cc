#include "baselines/gpu_common/gpu_beam_search.h"

#include <algorithm>
#include <cmath>

#include "util/visited_set.h"

namespace cagra {

GpuBeamResult GpuBeamSearch(const Matrix<float>& dataset, Metric metric,
                            const AdjacencyGraph& graph, const float* query,
                            size_t k, size_t ef,
                            const std::vector<uint32_t>& entries,
                            KernelCounters* counters) {
  GpuBeamResult out;
  const size_t n = dataset.rows();
  const size_t eff_ef = std::max(ef, k);
  if (n == 0) return out;

  VisitedSet visited(8 * eff_ef + 64);
  counters->hash_table_device_bytes += visited.MemoryBytes();
  // Bounded sorted pool, SONG-style "bounded priority queue". Insertions
  // are priced as bitonic exchanges over the pool (log2(ef) lane swaps).
  std::vector<std::pair<float, uint32_t>> pool;
  pool.reserve(eff_ef + 1);
  const size_t insert_cost =
      static_cast<size_t>(std::ceil(std::log2(static_cast<double>(
          std::max<size_t>(2, eff_ef)))));

  auto push = [&](float d, uint32_t id) {
    if (pool.size() >= eff_ef && d >= pool.back().first) return;
    const auto it = std::lower_bound(pool.begin(), pool.end(),
                                     std::make_pair(d, id));
    pool.insert(it, {d, id});
    if (pool.size() > eff_ef) pool.pop_back();
    counters->sort_exchanges += insert_cost;
  };
  auto charged_distance = [&](uint32_t id) {
    counters->distance_computations++;
    counters->distance_elements += dataset.dim();
    counters->device_vector_bytes += dataset.RowBytes();
    return ComputeDistance(metric, query, dataset.Row(id), dataset.dim());
  };
  auto charged_insert = [&](uint32_t id) {
    const size_t before = visited.probes();
    const bool fresh = visited.InsertIfAbsent(id);
    counters->hash_probes_device += visited.probes() - before;
    return fresh;
  };

  for (const uint32_t e : entries) {
    if (e >= n || !charged_insert(e)) continue;
    push(charged_distance(e), e);
  }

  VisitedSet expanded(8 * eff_ef + 64);
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < pool.size(); i++) {
      const uint32_t node = pool[i].second;
      if (!expanded.InsertIfAbsent(node)) continue;
      progress = true;
      out.iterations++;
      const auto& nbrs = graph.Neighbors(node);
      counters->device_graph_bytes += nbrs.size() * sizeof(uint32_t);
      for (const uint32_t nbr : nbrs) {
        if (nbr >= n || !charged_insert(nbr)) continue;
        push(charged_distance(nbr), nbr);
      }
      break;  // resume from the best unexpanded pool entry
    }
  }

  out.neighbors.assign(pool.begin(),
                       pool.begin() + std::min(pool.size(), k));
  return out;
}

KernelLaunchConfig GpuBaselineLaunchConfig(size_t batch, size_t dim,
                                           size_t avg_degree) {
  KernelLaunchConfig cfg;
  cfg.batch = batch;
  cfg.ctas_per_query = 1;
  cfg.threads_per_cta = 128;
  cfg.team_size = 32;  // no software warp splitting in GGNN/GANNS
  cfg.dim = dim;
  cfg.elem_bytes = sizeof(float);
  cfg.candidates_per_iter = std::max<size_t>(1, avg_degree);
  // Beam state lives in shared memory; no shared-memory hash table.
  cfg.shared_mem_per_cta = 8 * 1024;
  return cfg;
}

}  // namespace cagra
