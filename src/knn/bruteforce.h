#ifndef CAGRA_KNN_BRUTEFORCE_H_
#define CAGRA_KNN_BRUTEFORCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/snapshot.h"
#include "dataset/matrix.h"
#include "dataset/recall.h"
#include "distance/distance.h"
#include "graph/fixed_degree_graph.h"

namespace cagra {

/// Exact k-NN by exhaustive fp32 scan — the NNS reference of Eq. (2);
/// used to produce ground truth for every recall measurement in the
/// benches. Parallelized over queries. Rows shorter than k (k > rows)
/// are padded with 0xffffffff / +inf.
NeighborList ExactSearch(const Matrix<float>& base,
                         const Matrix<float>& queries, size_t k,
                         Metric metric);

/// Exhaustive fp32 scan over one immutable index version: every live
/// internal row is scored (tombstoned rows are skipped — they can never
/// appear in an exact result) and ids are emitted as *external* ids,
/// the same id space CagraIndex::Search returns after a mutation. The
/// ground-truth oracle for recall measurements on churned (Add/Remove)
/// indexes: pin `snap = index.snapshot()` once and both the exact and
/// the graph search score the identical row set. Reads through
/// Fp32Data(), so it works on RAM-resident and out-of-core snapshots
/// alike.
NeighborList ExactSearch(const IndexSnapshot& snap,
                         const Matrix<float>& queries, size_t k);

/// Ground truth in the ivecs-like Matrix form consumed by ComputeRecall.
Matrix<uint32_t> ComputeGroundTruth(const Matrix<float>& base,
                                    const Matrix<float>& queries, size_t k,
                                    Metric metric);

/// Exact k-NN *graph* (each node's k nearest other nodes, ascending by
/// distance). O(N^2) — used for small-N tests and as the gold standard
/// NN-descent is validated against.
FixedDegreeGraph ExactKnnGraph(const Matrix<float>& base, size_t k,
                               Metric metric);

/// The rows of ExactKnnGraph for `nodes` only: row i holds the k nearest
/// other nodes of nodes[i], ascending by distance, padded with
/// 0xffffffff when k exceeds rows - 1. Costs nodes.size() x rows
/// distances; NN-descent's stopping rule reads it for its sample.
Matrix<uint32_t> ExactNeighborsOf(const Matrix<float>& base,
                                  const std::vector<uint32_t>& nodes,
                                  size_t k, Metric metric);

}  // namespace cagra

#endif  // CAGRA_KNN_BRUTEFORCE_H_
