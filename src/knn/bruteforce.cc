#include "knn/bruteforce.h"

#include <algorithm>
#include <limits>

#include "util/bounded_heap.h"
#include "util/thread_pool.h"

namespace cagra {

namespace {

/// Rows scored per batched kernel call in the exhaustive scans. Keeps
/// the distance buffer in L1 while amortizing the dispatch overhead.
constexpr size_t kScanBlock = 256;

constexpr uint32_t kNoSkip = 0xffffffffu;

/// Shared body of every exhaustive scan: for each query index in
/// [0, num_queries), scores the base in kScanBlock-row blocks via
/// score(q, i0, block, dists), keeps the k nearest ids (excluding
/// skip(q); pass kNoSkip for none), and hands the ascending-sorted
/// result to emit(q, sorted). Parallelized over queries.
template <typename ScoreFn, typename SkipFn, typename EmitFn>
void BlockScan(size_t base_rows, size_t num_queries, size_t k,
               const ScoreFn& score, const SkipFn& skip, const EmitFn& emit) {
  GlobalThreadPool().ParallelFor(0, num_queries, [&](size_t q) {
    BoundedHeap heap(k);
    const uint32_t skip_id = skip(q);
    float block_dists[kScanBlock];
    for (size_t i0 = 0; i0 < base_rows; i0 += kScanBlock) {
      const size_t block = std::min(kScanBlock, base_rows - i0);
      score(q, i0, block, block_dists);
      for (size_t j = 0; j < block; j++) {
        if (i0 + j == skip_id) continue;
        if (block_dists[j] < heap.WorstDistance()) {
          heap.Push(block_dists[j], static_cast<uint32_t>(i0 + j));
        }
      }
    }
    emit(q, heap.ExtractSorted());
  });
}

/// BlockScan specialization shared by the ExactSearch overloads: scan
/// everything (no self-skip) and emit into a fresh NeighborList.
template <typename ScoreFn>
NeighborList ScanToNeighborList(size_t base_rows, size_t num_queries,
                                size_t k, const ScoreFn& score) {
  NeighborList out;
  out.k = k;
  out.ids.resize(num_queries * k, kNoSkip);
  // +inf padding keeps short rows (k > live rows) sorted and
  // unambiguous, matching the SearchResult padding contract.
  out.distances.resize(num_queries * k,
                       std::numeric_limits<float>::infinity());
  BlockScan(base_rows, num_queries, k, score,
            [](size_t) { return kNoSkip; },
            [&](size_t q, const auto& sorted) {
              for (size_t i = 0; i < sorted.size(); i++) {
                out.ids[q * k + i] = sorted[i].id;
                out.distances[q * k + i] = sorted[i].distance;
              }
            });
  return out;
}

/// BlockScan over base rows as their own queries: writes to out(i) the
/// ids of the k rows nearest row node(i), that row excluded, ascending.
template <typename NodeFn, typename OutFn>
void NearestOtherRows(const Matrix<float>& base, size_t count, size_t k,
                      Metric metric, const NodeFn& node, const OutFn& out) {
  BlockScan(
      base.rows(), count, k,
      [&](size_t i, size_t i0, size_t block, float* dists) {
        ComputeDistanceBatch(metric, base.Row(node(i)), base.Row(i0), block,
                             base.dim(), dists);
      },
      [&](size_t i) { return static_cast<uint32_t>(node(i)); },
      [&](size_t i, const auto& sorted) {
        uint32_t* row = out(i);
        for (size_t j = 0; j < sorted.size(); j++) row[j] = sorted[j].id;
      });
}

}  // namespace

NeighborList ExactSearch(const Matrix<float>& base,
                         const Matrix<float>& queries, size_t k,
                         Metric metric) {
  return ScanToNeighborList(
      base.rows(), queries.rows(), k,
      [&](size_t q, size_t i0, size_t block, float* dists) {
        ComputeDistanceBatch(metric, queries.Row(q), base.Row(i0), block,
                             base.dim(), dists);
      });
}

NeighborList ExactSearch(const IndexSnapshot& snap,
                         const Matrix<float>& queries, size_t k) {
  const float* base = snap.Fp32Data();
  const size_t dim = snap.dim();
  NeighborList out = ScanToNeighborList(
      snap.size(), queries.rows(), k,
      [&](size_t q, size_t i0, size_t block, float* dists) {
        ComputeDistanceBatch(snap.metric, queries.Row(q), base + i0 * dim,
                             block, dim, dists);
        // Tombstoned rows become +inf so the heap's strict `<` gate
        // never admits them — the exact scan sees only live rows.
        for (size_t j = 0; j < block; j++) {
          if (snap.Deleted(static_cast<uint32_t>(i0 + j))) {
            dists[j] = std::numeric_limits<float>::infinity();
          }
        }
      });
  // Internal row ids -> stable external ids, matching what a graph
  // Search on the same snapshot emits (padding passes through).
  if (snap.id_map != nullptr) {
    for (uint32_t& id : out.ids) {
      if (id != kNoSkip) id = (*snap.id_map)[id];
    }
  }
  return out;
}

Matrix<uint32_t> ComputeGroundTruth(const Matrix<float>& base,
                                    const Matrix<float>& queries, size_t k,
                                    Metric metric) {
  const NeighborList results = ExactSearch(base, queries, k, metric);
  Matrix<uint32_t> gt(queries.rows(), k);
  std::copy(results.ids.begin(), results.ids.end(),
            gt.mutable_data()->begin());
  return gt;
}

FixedDegreeGraph ExactKnnGraph(const Matrix<float>& base, size_t k,
                               Metric metric) {
  FixedDegreeGraph g(base.rows(), k);
  NearestOtherRows(
      base, base.rows(), k, metric, [](size_t v) { return v; },
      [&](size_t v) { return g.MutableNeighbors(v); });
  return g;
}

Matrix<uint32_t> ExactNeighborsOf(const Matrix<float>& base,
                                  const std::vector<uint32_t>& nodes,
                                  size_t k, Metric metric) {
  Matrix<uint32_t> out(nodes.size(), k);
  std::fill(out.mutable_data()->begin(), out.mutable_data()->end(), kNoSkip);
  NearestOtherRows(
      base, nodes.size(), k, metric, [&](size_t i) { return nodes[i]; },
      [&](size_t i) { return out.MutableRow(i); });
  return out;
}

}  // namespace cagra
