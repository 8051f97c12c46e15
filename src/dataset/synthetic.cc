#include "dataset/synthetic.h"

#include <cmath>
#include <vector>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace cagra {

namespace {

/// Generator model: points live on a random rank-`latent_dim` linear
/// manifold (like real descriptor corpora, whose local intrinsic
/// dimensionality is far below the ambient dimension), with a Gaussian
/// mixture in the latent space providing cluster structure and a small
/// ambient residual. Low intrinsic dimensionality is what makes real
/// datasets navigable by greedy graph search; isolated full-rank blobs
/// are not, and would misrepresent every search benchmark.
struct MixtureModel {
  Matrix<float> basis;                ///< dim x latent, column-orthogonal-ish
  Matrix<float> centers;              ///< clusters x latent
  std::vector<float> cluster_scale;   ///< per-cluster noise anisotropy
  std::vector<float> cluster_cdf;     ///< sampling weights (cumulative)
  float noise_std;                    ///< latent within-cluster std-dev
  float ambient_std;                  ///< residual off-manifold noise
};

MixtureModel BuildModel(const DatasetProfile& profile, uint64_t seed) {
  MixtureModel model;
  const size_t c = profile.clusters;
  const size_t latent = std::max<size_t>(2, profile.latent_dim);
  Pcg32 rng(seed, /*stream=*/0x1234);

  // Random projection basis, scaled so row norms stay O(1) per latent
  // unit. (Random Gaussian columns are near-orthogonal at these dims.)
  model.basis = Matrix<float>(profile.dim, latent);
  const float basis_scale = 1.0f / std::sqrt(static_cast<float>(latent));
  for (size_t i = 0; i < profile.dim; i++) {
    float* row = model.basis.MutableRow(i);
    for (size_t j = 0; j < latent; j++) {
      row[j] = rng.NextGaussian() * basis_scale;
    }
  }

  model.centers = Matrix<float>(c, latent);
  for (size_t i = 0; i < c; i++) {
    float* row = model.centers.MutableRow(i);
    for (size_t j = 0; j < latent; j++) {
      row[j] = rng.NextFloat() * 2.0f - 1.0f;
    }
  }

  // Mean separation of two uniform points in [-1,1]^latent; noise_scale
  // is specified relative to it, per latent coordinate.
  const float separation =
      std::sqrt(static_cast<float>(latent)) * (2.0f / std::sqrt(6.0f));
  model.noise_std = profile.noise_scale * separation /
                    std::sqrt(static_cast<float>(latent));
  model.ambient_std = 0.02f;

  model.cluster_scale.resize(c);
  for (size_t i = 0; i < c; i++) {
    model.cluster_scale[i] = 0.6f + 0.8f * rng.NextFloat();
  }

  // Zipf-ish weights: w_i = 1/(i+1)^0.6, normalized cumulative (real
  // corpora are imbalanced).
  model.cluster_cdf.resize(c);
  float total = 0.0f;
  for (size_t i = 0; i < c; i++) {
    total += 1.0f / std::pow(static_cast<float>(i + 1), 0.6f);
    model.cluster_cdf[i] = total;
  }
  for (size_t i = 0; i < c; i++) model.cluster_cdf[i] /= total;
  return model;
}

size_t SampleCluster(const MixtureModel& model, Pcg32* rng) {
  const float u = rng->NextFloat();
  size_t lo = 0, hi = model.cluster_cdf.size() - 1;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (model.cluster_cdf[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void FillRows(const MixtureModel& model, const DatasetProfile& profile,
              uint64_t seed, uint64_t stream_base, Matrix<float>* out) {
  const size_t dim = profile.dim;
  const size_t latent = model.centers.dim();
  GlobalThreadPool().ParallelFor(0, out->rows(), [&](size_t i) {
    // Per-row RNG stream keeps generation deterministic regardless of the
    // thread partitioning.
    Pcg32 rng(seed + i, stream_base + i);
    const size_t cluster = SampleCluster(model, &rng);
    const float* center = model.centers.Row(cluster);
    const float sigma = model.noise_std * model.cluster_scale[cluster];

    std::vector<float> z(latent);
    for (size_t j = 0; j < latent; j++) {
      z[j] = center[j] + sigma * rng.NextGaussian();
    }

    float* row = out->MutableRow(i);
    for (size_t d = 0; d < dim; d++) {
      const float* basis_row = model.basis.Row(d);
      float acc = 0.0f;
      for (size_t j = 0; j < latent; j++) acc += basis_row[j] * z[j];
      row[d] = acc + model.ambient_std * rng.NextGaussian();
    }
    if (profile.normalize) {
      float norm = 0.0f;
      for (size_t j = 0; j < dim; j++) norm += row[j] * row[j];
      norm = std::sqrt(norm);
      if (norm > 1e-12f) {
        for (size_t j = 0; j < dim; j++) row[j] /= norm;
      }
    }
  });
}

}  // namespace

SyntheticData GenerateDataset(const DatasetProfile& profile, size_t n,
                              size_t num_queries, uint64_t seed) {
  const MixtureModel model = BuildModel(profile, seed);
  SyntheticData data;
  data.base = Matrix<float>(n, profile.dim);
  FillRows(model, profile, seed, /*stream_base=*/1, &data.base);
  data.queries = Matrix<float>(num_queries, profile.dim);
  FillRows(model, profile, seed ^ 0x9e3779b97f4a7c15ULL,
           /*stream_base=*/0x40000001, &data.queries);
  return data;
}

}  // namespace cagra
