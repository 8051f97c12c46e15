#include "baselines/nssg/nssg.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "baselines/gpu_common/gpu_beam_search.h"
#include "knn/nn_descent.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/visited_set.h"

namespace cagra {

namespace {

using DistId = std::pair<float, uint32_t>;

/// cos of the angle at q between candidate p and selected s.
float CosAngle(const float* q, const float* p, const float* s, size_t dim) {
  float dot = 0.f, np = 0.f, ns = 0.f;
  for (size_t i = 0; i < dim; i++) {
    const float dp = p[i] - q[i];
    const float ds = s[i] - q[i];
    dot += dp * ds;
    np += dp * dp;
    ns += ds * ds;
  }
  const float denom = std::sqrt(np) * std::sqrt(ns);
  if (denom <= 1e-20f) return 1.0f;  // coincident: treat as same direction
  return dot / denom;
}

}  // namespace

NssgIndex NssgIndex::Build(const Matrix<float>& dataset,
                           const NssgParams& params, NssgBuildStats* stats) {
  Timer timer;
  NnDescentParams nnd;
  nnd.k = params.knn_k;
  nnd.seed = params.seed;
  NnDescentStats knn_stats;
  FixedDegreeGraph knn =
      BuildKnnGraphNnDescent(dataset, nnd, params.metric, &knn_stats);

  NssgBuildStats local;
  NssgIndex index = BuildFromKnn(dataset, knn, params, &local);
  local.knn_seconds = knn_stats.seconds;
  local.distance_computations += knn_stats.distance_computations;
  local.total_seconds = timer.Seconds();
  if (stats != nullptr) *stats = local;
  return index;
}

NssgIndex NssgIndex::BuildFromKnn(const Matrix<float>& dataset,
                                  const FixedDegreeGraph& knn,
                                  const NssgParams& params,
                                  NssgBuildStats* stats) {
  NssgBuildStats local;
  Timer total;
  NssgIndex index;
  index.dataset_ = &dataset;
  index.params_ = params;
  const size_t n = dataset.rows();
  index.graph_ = AdjacencyGraph(n);
  if (n == 0) {
    if (stats != nullptr) *stats = local;
    return index;
  }

  std::atomic<size_t> distance_count{0};
  Timer phase;

  // --- Per-node candidate pool (kNN + 2-hop) pruned by the spread-out
  // angle criterion.
  GlobalThreadPool().ParallelFor(0, n, [&](size_t q) {
    const uint32_t* l1 = knn.Neighbors(q);
    std::vector<uint32_t> pool_ids;
    pool_ids.reserve(params.pool_size);
    VisitedSet seen(2 * params.pool_size + 16);
    seen.InsertIfAbsent(static_cast<uint32_t>(q));
    for (size_t i = 0; i < knn.degree() && pool_ids.size() < params.pool_size;
         i++) {
      const uint32_t u = l1[i];
      if (u >= n) break;
      if (seen.InsertIfAbsent(u)) pool_ids.push_back(u);
      const uint32_t* l2 = knn.Neighbors(u);
      for (size_t j = 0;
           j < knn.degree() && pool_ids.size() < params.pool_size; j++) {
        const uint32_t w = l2[j];
        if (w >= n) break;
        if (seen.InsertIfAbsent(w)) pool_ids.push_back(w);
      }
    }

    size_t local_distances = 0;
    std::vector<DistId> pool;
    pool.reserve(pool_ids.size());
    for (const uint32_t u : pool_ids) {
      pool.emplace_back(ComputeDistance(params.metric, dataset.Row(q),
                                        dataset.Row(u), dataset.dim()),
                        u);
      local_distances++;
    }
    std::sort(pool.begin(), pool.end());

    auto* edges = index.graph_.MutableNeighbors(q);
    for (const auto& [dist, cand] : pool) {
      if (edges->size() >= params.degree) break;
      bool keep = true;
      for (const uint32_t sel : *edges) {
        if (CosAngle(dataset.Row(q), dataset.Row(cand), dataset.Row(sel),
                     dataset.dim()) > params.angle_cos) {
          keep = false;
          break;
        }
      }
      if (keep) edges->push_back(cand);
    }
    distance_count.fetch_add(local_distances, std::memory_order_relaxed);
  });
  local.prune_seconds = phase.Seconds();

  // --- Connectivity: DFS from a root; any unreached node gets an edge
  // from its nearest reached pool entry (NSG-style tree expansion).
  phase.Restart();
  std::vector<bool> reached(n, false);
  std::vector<uint32_t> dfs_stack;
  Pcg32 rng(params.seed);
  uint32_t root = rng.NextBounded(static_cast<uint32_t>(n));
  size_t num_reached = 0;
  auto dfs = [&](uint32_t start) {
    dfs_stack.push_back(start);
    while (!dfs_stack.empty()) {
      const uint32_t v = dfs_stack.back();
      dfs_stack.pop_back();
      if (reached[v]) continue;
      reached[v] = true;
      num_reached++;
      for (const uint32_t u : index.graph_.Neighbors(v)) {
        if (!reached[u]) dfs_stack.push_back(u);
      }
    }
  };
  dfs(root);
  for (size_t v = 0; v < n && num_reached < n; v++) {
    if (reached[v]) continue;
    // Attach the orphan to the nearest of a few random reached nodes.
    uint32_t best = root;
    float best_dist = std::numeric_limits<float>::infinity();
    for (int trial = 0; trial < 16; trial++) {
      const uint32_t c = rng.NextBounded(static_cast<uint32_t>(n));
      if (!reached[c]) continue;
      const float d = ComputeDistance(params.metric, dataset.Row(v),
                                      dataset.Row(c), dataset.dim());
      local.distance_computations++;
      if (d < best_dist) {
        best_dist = d;
        best = c;
      }
    }
    index.graph_.AddEdge(best, static_cast<uint32_t>(v));
    dfs(static_cast<uint32_t>(v));
  }
  local.connect_seconds = phase.Seconds();

  local.distance_computations += distance_count.load();
  local.total_seconds = total.Seconds();
  if (stats != nullptr) *stats = local;
  return index;
}

std::vector<DistId> NssgIndex::SearchGraph(const Matrix<float>& dataset,
                                           Metric metric,
                                           const AdjacencyGraph& graph,
                                           const float* query, size_t k,
                                           size_t pool, uint64_t seed,
                                           NssgSearchStats* stats) {
  const size_t n = dataset.rows();
  if (n == 0) return {};

  // Random-sample initialization (the NSSG/CAGRA-style start: no
  // hierarchy, no navigating node), then best-first expansion over a
  // pool of max(pool, k) entries until none is left unexpanded.
  Pcg32 rng(seed);
  std::vector<uint32_t> entries(std::min(n, std::max(pool, k)));
  for (uint32_t& e : entries) e = rng.NextBounded(static_cast<uint32_t>(n));
  KernelCounters counters;
  GpuBeamResult beam =
      GpuBeamSearch(dataset, metric, graph, query, k, pool, entries, &counters);
  if (stats != nullptr) {
    stats->distance_computations += counters.distance_computations;
    stats->hops += beam.iterations;
  }
  return std::move(beam.neighbors);
}

std::vector<DistId> NssgIndex::SearchOne(const float* query, size_t k,
                                         size_t pool,
                                         NssgSearchStats* stats) const {
  return SearchGraph(*dataset_, params_.metric, graph_, query, k, pool,
                     params_.seed ^ 0xabcdef, stats);
}

NeighborList NssgIndex::Search(const Matrix<float>& queries, size_t k,
                               size_t pool, NssgSearchStats* stats) const {
  NeighborList out;
  out.k = k;
  out.ids.assign(queries.rows() * k, 0xffffffffu);
  out.distances.assign(queries.rows() * k, 0.0f);
  std::vector<NssgSearchStats> per_query(queries.rows());
  GlobalThreadPool().ParallelFor(0, queries.rows(), [&](size_t q) {
    auto results = SearchOne(queries.Row(q), k, pool, &per_query[q]);
    for (size_t i = 0; i < results.size(); i++) {
      out.ids[q * k + i] = results[i].second;
      out.distances[q * k + i] = results[i].first;
    }
  });
  if (stats != nullptr) {
    for (const auto& s : per_query) {
      stats->distance_computations += s.distance_computations;
      stats->hops += s.hops;
    }
  }
  return out;
}

}  // namespace cagra
