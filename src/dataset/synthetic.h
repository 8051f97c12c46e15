#ifndef CAGRA_DATASET_SYNTHETIC_H_
#define CAGRA_DATASET_SYNTHETIC_H_

#include <cstddef>
#include <cstdint>

#include "dataset/matrix.h"
#include "dataset/profile.h"

namespace cagra {

/// A generated dataset plus a query set drawn from the same distribution
/// (queries are fresh samples, never dataset rows — matching how the
/// public benchmark query files are produced).
struct SyntheticData {
  Matrix<float> base;
  Matrix<float> queries;
};

/// Generates `n` base vectors and `num_queries` queries from the
/// clustered-Gaussian model of `profile`. Deterministic in `seed`.
///
/// Model: `profile.clusters` centers are drawn uniformly in [-1,1]^dim
/// with a per-cluster random anisotropy; each point picks a cluster with a
/// Zipf-ish weight (real corpora are imbalanced) and adds Gaussian noise
/// of std `profile.noise_scale` x the mean center separation. Rows are
/// L2-normalized when the profile is angular.
SyntheticData GenerateDataset(const DatasetProfile& profile, size_t n,
                              size_t num_queries, uint64_t seed = 42);

}  // namespace cagra

#endif  // CAGRA_DATASET_SYNTHETIC_H_
