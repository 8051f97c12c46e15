#ifndef CAGRA_DATASET_PQ_H_
#define CAGRA_DATASET_PQ_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dataset/matrix.h"
#include "distance/distance.h"

namespace cagra {

/// Product-quantized dataset — the compressed storage mode the paper's
/// §V-E names for datasets beyond device memory ("data compression
/// schemes, such as product quantization"). The dim dimensions split
/// into M subspaces of dsub dims each (the tail zero-padded when M does
/// not divide dim); every subspace gets a 256-centroid k-means codebook,
/// and a row stores one byte per subspace — M bytes/row, typically a
/// quarter of the int8 tier and 1/16 of fp32 at the default M = dim/4.
///
/// Searches never reconstruct rows: a per-query ADC table
/// (BuildAdcTable) reduces every distance to M table lookups + adds
/// through the dispatched LUT-scan kernels in distance/.
///
/// With OPQ training (PqTrainParams::rotate) the codebooks live in a
/// rotated coordinate system: rows are encoded as R·x and queries are
/// rotated once inside BuildAdcTable, so the search/ADC paths are
/// unchanged. L2/dot/cosine are invariant under the orthogonal R, which
/// is what lets the rotation reduce quantization error "for free".
struct PqDataset {
  static constexpr size_t kNumCentroids = 256;

  size_t dim = 0;   ///< original (un-padded) dimensionality
  size_t dsub = 0;  ///< dims per subspace = ceil(dim / M)
  Matrix<uint8_t> codes;         ///< rows x M
  std::vector<float> centroids;  ///< M x 256 x dsub, padded dims zero
  /// Per-centroid squared norms (M x 256), precomputed at train time;
  /// RecomputePqRowNorms folds them into row_norm2.
  std::vector<float> centroid_norm2;
  /// Per-row reconstructed squared norm (rows entries), precomputed at
  /// encode time with the active ADC kernel so the cosine ADC path
  /// reads one float per row instead of scanning a second
  /// (query-independent) centroid-norm LUT — and matches that two-pass
  /// scan bit-for-bit.
  std::vector<float> row_norm2;
  /// OPQ rotation (dim x dim row-major orthogonal matrix, empty = no
  /// rotation). Codes store R·x; BuildAdcTable/PqDistance rotate the
  /// query before building tables / decoding.
  std::vector<float> rotation;

  size_t rows() const { return codes.rows(); }
  size_t num_subspaces() const { return codes.dim(); }
  bool empty() const { return codes.empty(); }
  size_t RowBytes() const { return codes.dim(); }
  size_t CodebookBytes() const { return centroids.size() * sizeof(float); }
  bool HasRotation() const { return !rotation.empty(); }

  const float* Centroid(size_t m, size_t c) const {
    return centroids.data() + (m * kNumCentroids + c) * dsub;
  }

  /// out = R · in (dim elements). Requires HasRotation().
  void RotateQuery(const float* in, float* out) const;

  /// Reconstructed value of one element in the (possibly rotated)
  /// coding space — the decode the ADC shortcut avoids; used by the
  /// reference distance and tests.
  float Decode(size_t row, size_t d) const {
    const size_t m = d / dsub;
    return Centroid(m, codes.Row(row)[m])[d - m * dsub];
  }
};

/// PQ training knobs. The defaults match the usual recipe: a few Lloyd
/// iterations over a bounded sample are enough for ADC-quality
/// codebooks, and training cost stays O(sample * 256 * dim * iters).
struct PqTrainParams {
  size_t num_subspaces = 0;     ///< M; 0 = auto (max(1, dim / 4))
  size_t kmeans_iterations = 6; ///< Lloyd iterations per subspace
  size_t sample_size = 2048;    ///< training rows (capped at the dataset)
  uint64_t seed = 0x5051;       ///< sampling + init seed
  /// OPQ-style orthogonal rotation before the subspace split (Ge et
  /// al.): PCA init, then `opq_iterations` alternating re-encode /
  /// orthogonal-Procrustes rounds. Adds O(dim^3) linear algebra +
  /// opq_iterations extra codebook trainings to TrainPq; search-time
  /// cost is one dim x dim mat-vec per query inside BuildAdcTable.
  bool rotate = false;
  size_t opq_iterations = 3;    ///< alternating OPQ rounds after PCA init
};

/// Trains per-subspace codebooks on a sample and encodes every row.
/// Empty k-means clusters are re-seeded each Lloyd round by splitting
/// the cluster with the largest quantization error, so codebooks never
/// keep duplicate/stale centroids when the sample has fewer distinct
/// rows than centroids.
///
/// Runs on the global pool: the k-means one subspace per task, the
/// encode split by row. Each task writes only its own codebook slice or
/// code bytes, so every output field is byte-identical to a one-thread
/// training at any pool width, with other trainings running at once,
/// and when called from inside a pool task (DESIGN.md §3).
[[nodiscard]] PqDataset TrainPq(const Matrix<float>& dataset,
                  const PqTrainParams& params = PqTrainParams{});

/// Encodes `rows` through `pq`'s existing codebooks (and OPQ rotation,
/// when trained) and returns a copy of `pq` with the new codes appended
/// and row norms recomputed — the PQ half of CagraIndex::Add. The
/// codebooks are never retrained here, so the existing rows' codes stay
/// byte-identical and searches against old snapshots are unaffected.
[[nodiscard]] PqDataset PqEncodeAppend(const PqDataset& pq,
                                       const Matrix<float>& rows);

/// Recomputes PqDataset::row_norm2 from the codes and centroid norms
/// with the active ADC kernel (so the stored value is bit-identical to
/// the LUT scan it replaces). TrainPq calls this; callers that rewrite
/// `codes` by hand (benches) must call it again before cosine ADC.
void RecomputePqRowNorms(PqDataset* pq);

/// Builds the per-query ADC tables for `metric` (see PqAdcTable in
/// distance/distance.h). Rotates the query first when the dataset was
/// OPQ-trained. Scalar arithmetic, deterministic across SIMD tiers;
/// per-subspace partials accumulate in the same order as the
/// PqDistance reference, so a scalar-tier LUT scan reproduces
/// PqDistance exactly for kL2/kInnerProduct.
void BuildAdcTable(const PqDataset& pq, const float* query, Metric metric,
                   PqAdcTable* out);

/// Distance between an fp32 query and a PQ row, decoding through the
/// codebook one subspace at a time — the scalar decode reference the
/// ADC LUT-scan kernels are tested (and benched) against.
float PqDistance(Metric metric, const float* query, const PqDataset& pq,
                 size_t row);

}  // namespace cagra

#endif  // CAGRA_DATASET_PQ_H_
