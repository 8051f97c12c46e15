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
  double termination_delta = 0.001;  ///< stop when updates < delta*N*k
  uint64_t seed = 1234;
};

/// Statistics from a build, for the construction-time benches.
struct NnDescentStats {
  size_t iterations = 0;
  size_t distance_computations = 0;
  /// Successful neighbor-list inserts summed over the local joins (the
  /// random initialization is not counted); each iteration's share is
  /// what the termination_delta test compares.
  size_t updates = 0;
  double seconds = 0.0;
};

/// Builds an approximate k-NN graph by iterative local joins. Neighbor
/// lists in the result are sorted ascending by distance, ties by id (the
/// CAGRA optimization relies on this order to define initial ranks,
/// §III-B1).
///
/// The build is deterministic in its inputs: the edges, `iterations`,
/// `distance_computations` and `updates` equal those of the same join run
/// on one thread, at any pool width and with other builds running at the
/// same time. The local join scores a block of nodes in parallel and then
/// applies each list's offers in that one-thread order (DESIGN.md §2).
FixedDegreeGraph BuildKnnGraphNnDescent(const Matrix<float>& base,
                                        const NnDescentParams& params,
                                        Metric metric,
                                        NnDescentStats* stats = nullptr);

}  // namespace cagra

#endif  // CAGRA_KNN_NN_DESCENT_H_
