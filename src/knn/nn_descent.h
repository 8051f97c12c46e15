#ifndef CAGRA_KNN_NN_DESCENT_H_
#define CAGRA_KNN_NN_DESCENT_H_

#include <cstddef>
#include <cstdint>

#include "dataset/matrix.h"
#include "distance/distance.h"
#include "graph/fixed_degree_graph.h"

namespace cagra {

/// NN-descent parameters (Dong, Moses & Li, WWW'11 — reference [5] of the
/// paper; CAGRA uses NN-descent to build its initial k-NN graph, §III-B1).
struct NnDescentParams {
  size_t k = 64;               ///< neighbor-list size (d_init for CAGRA)
  double sample_rate = 0.5;    ///< rho: fraction of new/reverse sampled
  size_t max_iterations = 20;
  double termination_delta = 0.001;  ///< stop when updates <= delta*N*k
  uint64_t seed = 1234;
};

/// The build's recall exit. It computes once the exact k nearest other
/// nodes of min(n, kNnDescentRecallSample) evenly spaced nodes (node
/// s * n / S for s < S), and stops after the first iteration whose lists
/// of those nodes hold at least kNnDescentTargetRecall of them. The
/// target is not lower because on the stand-in data search recall rises
/// when the build stops earlier still, which real data may not reward
/// (DESIGN.md §2).
inline constexpr size_t kNnDescentRecallSample = 64;
inline constexpr double kNnDescentTargetRecall = 0.9;

/// Statistics from a build, for the construction-time benches.
struct NnDescentStats {
  size_t iterations = 0;
  size_t distance_computations = 0;
  /// Successful neighbor-list inserts summed over the local joins (the
  /// random initialization is not counted); each iteration's share is
  /// what the termination_delta test compares.
  size_t updates = 0;
  /// Share of the sample's exact neighbours that its lists held after the
  /// last iteration (0 if none ran); see kNnDescentTargetRecall.
  double sampled_recall = 0.0;
  double seconds = 0.0;
};

/// Builds an approximate k-NN graph by iterative local joins. Neighbor
/// lists in the result are sorted ascending by distance, ties by id (the
/// CAGRA optimization relies on this order to define initial ranks,
/// §III-B1).
///
/// It stops after the first iteration whose sampled lists reach
/// kNnDescentTargetRecall, or whose updates fall to termination_delta ×
/// n × k, or after max_iterations. `distance_computations` counts the
/// sample's exact scan too.
///
/// The build is deterministic in its inputs: the edges, `iterations`,
/// `distance_computations`, `updates` and `sampled_recall` equal those of
/// the same join run on one thread, at any pool width and with other
/// builds running at the same time. The local join scores a block of
/// nodes in parallel and then applies each list's offers in that
/// one-thread order (DESIGN.md §2).
FixedDegreeGraph BuildKnnGraphNnDescent(const Matrix<float>& base,
                                        const NnDescentParams& params,
                                        Metric metric,
                                        NnDescentStats* stats = nullptr);

}  // namespace cagra

#endif  // CAGRA_KNN_NN_DESCENT_H_
