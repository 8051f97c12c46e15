#include "baselines/hnsw/hnsw.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/visited_set.h"

namespace cagra {

namespace {

using DistId = std::pair<float, uint32_t>;

/// Min-heap on distance (best candidate first).
using MinHeap =
    std::priority_queue<DistId, std::vector<DistId>, std::greater<DistId>>;
/// Max-heap on distance (worst result first, for ef bounding).
using MaxHeap = std::priority_queue<DistId>;

}  // namespace

float HnswIndex::Dist(uint32_t a, uint32_t b) const {
  return ComputeDistance(params_.metric, dataset_->Row(a), dataset_->Row(b),
                         dataset_->dim());
}

float HnswIndex::DistQ(const float* q, uint32_t id) const {
  return ComputeDistance(params_.metric, q, dataset_->Row(id),
                         dataset_->dim());
}

std::vector<DistId> HnswIndex::SearchLayer(const float* query, uint32_t entry,
                                           float entry_dist, size_t ef,
                                           size_t layer,
                                           HnswSearchStats* stats) const {
  VisitedSet visited(4 * ef + 64);
  visited.InsertIfAbsent(entry);

  MinHeap candidates;
  MaxHeap results;
  candidates.emplace(entry_dist, entry);
  results.emplace(entry_dist, entry);

  while (!candidates.empty()) {
    const auto [dist, node] = candidates.top();
    if (dist > results.top().first && results.size() >= ef) break;
    candidates.pop();
    if (stats != nullptr) stats->hops++;
    for (const uint32_t nbr : layers_[layer].Neighbors(node)) {
      if (!visited.InsertIfAbsent(nbr)) continue;
      const float d = DistQ(query, nbr);
      if (stats != nullptr) stats->distance_computations++;
      if (results.size() < ef || d < results.top().first) {
        candidates.emplace(d, nbr);
        results.emplace(d, nbr);
        if (results.size() > ef) results.pop();
      }
    }
  }

  std::vector<DistId> out;
  out.reserve(results.size());
  while (!results.empty()) {
    out.push_back(results.top());
    results.pop();
  }
  std::sort(out.begin(), out.end());
  return out;
}

void HnswIndex::SelectNeighborsHeuristic(uint32_t node,
                                         std::vector<DistId>* candidates,
                                         size_t m,
                                         HnswBuildStats* stats) const {
  // SELECT_NEIGHBORS_HEURISTIC (Algorithm 4 of the HNSW paper): accept a
  // candidate only if it is closer to `node` than to every neighbor
  // already selected; this spreads edges directionally.
  std::sort(candidates->begin(), candidates->end());
  std::vector<DistId> selected;
  selected.reserve(m);
  for (const auto& [dist, cand] : *candidates) {
    if (selected.size() >= m) break;
    if (cand == node) continue;
    bool keep = true;
    for (const auto& [sdist, sel] : selected) {
      const float d = Dist(cand, sel);
      if (stats != nullptr) stats->distance_computations++;
      if (d < dist) {
        keep = false;
        break;
      }
    }
    if (keep) selected.emplace_back(dist, cand);
  }
  // Keep-pruned-connections: fill remaining slots with the nearest
  // rejected candidates (libhnswlib behaviour, improves connectivity).
  if (selected.size() < m) {
    for (const auto& c : *candidates) {
      if (selected.size() >= m) break;
      if (c.second == node) continue;
      if (std::find(selected.begin(), selected.end(), c) == selected.end()) {
        selected.push_back(c);
      }
    }
  }
  *candidates = std::move(selected);
}

void HnswIndex::Insert(uint32_t id, size_t level, HnswBuildStats* stats) {
  const float* vec = dataset_->Row(id);
  uint32_t entry = entry_point_;
  const size_t top = max_level();

  if (layers_.empty()) return;  // first node handled by Build

  float entry_dist = DistQ(vec, entry);
  if (stats != nullptr) stats->distance_computations++;

  // Greedy descent through layers above the node's level.
  for (size_t layer = top; layer > level && layer > 0; layer--) {
    bool improved = true;
    while (improved) {
      improved = false;
      for (const uint32_t nbr : layers_[layer].Neighbors(entry)) {
        const float d = DistQ(vec, nbr);
        if (stats != nullptr) stats->distance_computations++;
        if (d < entry_dist) {
          entry_dist = d;
          entry = nbr;
          improved = true;
        }
      }
    }
  }

  const size_t m0 = params_.m0 != 0 ? params_.m0 : 2 * params_.m;
  for (size_t layer = std::min(level, top);; layer--) {
    auto candidates = SearchLayer(vec, entry, entry_dist, params_.ef_construction,
                                  layer, nullptr);
    if (stats != nullptr) {
      // SearchLayer was called without stats to keep the hot loop lean;
      // approximate its cost as ef_construction expansions.
      stats->distance_computations += candidates.size();
    }
    if (!candidates.empty()) {
      entry = candidates.front().second;
      entry_dist = candidates.front().first;
    }
    const size_t cap = layer == 0 ? m0 : params_.m;
    auto selected = candidates;
    SelectNeighborsHeuristic(id, &selected, params_.m, stats);

    auto* my_list = layers_[layer].MutableNeighbors(id);
    my_list->clear();
    for (const auto& [dist, nbr] : selected) {
      my_list->push_back(nbr);
      // Back-link, shrinking the neighbor's list if it overflows.
      auto* their_list = layers_[layer].MutableNeighbors(nbr);
      their_list->push_back(id);
      if (their_list->size() > cap) {
        std::vector<DistId> pool;
        pool.reserve(their_list->size());
        for (const uint32_t t : *their_list) {
          const float d = Dist(nbr, t);
          if (stats != nullptr) stats->distance_computations++;
          pool.emplace_back(d, t);
        }
        SelectNeighborsHeuristic(nbr, &pool, cap, stats);
        their_list->clear();
        for (const auto& [pd, pt] : pool) their_list->push_back(pt);
      }
    }
    if (layer == 0) break;
  }
}

HnswIndex HnswIndex::Build(const Matrix<float>& dataset,
                           const HnswParams& params, HnswBuildStats* stats) {
  Timer timer;
  HnswIndex index;
  index.dataset_ = &dataset;
  index.params_ = params;
  const size_t n = dataset.rows();
  index.node_levels_.resize(n, 0);
  if (n == 0) return index;

  // Exponential level sampling with mL = 1/ln(M).
  const double ml = 1.0 / std::log(static_cast<double>(
                              std::max<size_t>(2, params.m)));
  Pcg32 rng(params.seed);
  size_t max_lvl = 0;
  for (size_t i = 0; i < n; i++) {
    double u = rng.NextFloat();
    if (u < 1e-12) u = 1e-12;
    const size_t level = static_cast<size_t>(-std::log(u) * ml);
    index.node_levels_[i] = static_cast<uint32_t>(std::min<size_t>(level, 24));
    max_lvl = std::max<size_t>(max_lvl, index.node_levels_[i]);
  }
  index.layers_.assign(max_lvl + 1, AdjacencyGraph(n));

  // Insert the highest-level node first so the entry point is valid.
  uint32_t first = 0;
  for (size_t i = 0; i < n; i++) {
    if (index.node_levels_[i] == max_lvl) {
      first = static_cast<uint32_t>(i);
      break;
    }
  }
  index.entry_point_ = first;

  HnswBuildStats local;
  local.max_level = max_lvl;
  for (size_t i = 0; i < n; i++) {
    if (i == first) continue;
    index.Insert(static_cast<uint32_t>(i), index.node_levels_[i], &local);
  }
  local.seconds = timer.Seconds();
  if (stats != nullptr) *stats = local;
  return index;
}

std::vector<DistId> HnswIndex::SearchOne(const float* query, size_t k,
                                         size_t ef,
                                         HnswSearchStats* stats) const {
  if (size() == 0) return {};
  uint32_t entry = entry_point_;
  float entry_dist = DistQ(query, entry);
  if (stats != nullptr) stats->distance_computations++;

  for (size_t layer = max_level(); layer > 0; layer--) {
    bool improved = true;
    while (improved) {
      improved = false;
      for (const uint32_t nbr : layers_[layer].Neighbors(entry)) {
        const float d = DistQ(query, nbr);
        if (stats != nullptr) stats->distance_computations++;
        if (d < entry_dist) {
          entry_dist = d;
          entry = nbr;
          improved = true;
        }
      }
    }
  }

  auto results =
      SearchLayer(query, entry, entry_dist, std::max(ef, k), 0, stats);
  if (results.size() > k) results.resize(k);
  return results;
}

NeighborList HnswIndex::Search(const Matrix<float>& queries, size_t k,
                               size_t ef, HnswSearchStats* stats) const {
  NeighborList out;
  out.k = k;
  out.ids.assign(queries.rows() * k, 0xffffffffu);
  out.distances.assign(queries.rows() * k, 0.0f);
  std::vector<HnswSearchStats> per_query(queries.rows());
  GlobalThreadPool().ParallelFor(0, queries.rows(), [&](size_t q) {
    auto results = SearchOne(queries.Row(q), k, ef, &per_query[q]);
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

double HnswIndex::AverageBottomDegree() const {
  return layers_.empty() ? 0.0 : layers_[0].AverageDegree();
}

}  // namespace cagra
