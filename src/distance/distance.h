#ifndef CAGRA_DISTANCE_DISTANCE_H_
#define CAGRA_DISTANCE_DISTANCE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/half.h"

namespace cagra {

/// Distance measures supported by the library (paper §II-A: L2 and cosine
/// are typical; inner product is included because DEEP-style embeddings
/// commonly use it).
enum class Metric {
  kL2,            ///< Squared Euclidean distance (monotone in L2 norm).
  kInnerProduct,  ///< Negated dot product (smaller = more similar).
  kCosine,        ///< 1 - cosine similarity.
};

/// Human-readable metric name for bench output.
std::string MetricName(Metric metric);

/// Computes the distance between two `dim`-element fp32 vectors.
/// Dispatches to the widest SIMD tier the CPU supports (see
/// distance/simd.h; CAGRA_FORCE_SCALAR=1 pins the reference kernels).
float ComputeDistance(Metric metric, const float* a, const float* b,
                      size_t dim);

/// Computes the distance between an fp32 query and an fp16 dataset vector
/// (the FP16 storage mode of §IV-C1; the query stays fp32 as in cuVS).
float ComputeDistance(Metric metric, const float* query, const Half* item,
                      size_t dim);

/// Computes the distance between an fp32 query and an int8 affine-coded
/// row (value = code[d] * scale[d] + offset[d], the §V-E compression
/// direction). The decode runs inside the dispatched SIMD kernel —
/// sign-extend + convert + FMA in vector registers, never through a
/// dequantized temporary.
float ComputeDistance(Metric metric, const float* query, const int8_t* code,
                      const float* scale, const float* offset, size_t dim);

/// One query against `n` contiguous fp32 rows (`rows` is row-major with
/// stride `dim`); out[i] = distance(query, rows + i*dim). The query's
/// norm is computed once per call for cosine, and full groups of four
/// rows run through the multi-row kernels (shared query stream,
/// interleaved accumulators), the rest through the single-row kernels.
/// Every entry point in this header, pairwise included, runs the same
/// metric composition, and each tier writes its single-row and
/// multi-row kernels from one body, so out[i] is bit-identical to the
/// pairwise call by construction. This is the inner loop of the
/// exhaustive ground-truth scan (knn/bruteforce.h) and of the PQ
/// k-means.
void ComputeDistanceBatch(Metric metric, const float* query,
                          const float* rows, size_t n, size_t dim,
                          float* out);

/// One query against `n` rows gathered by id from a row-major `base`;
/// out[i] = distance(query, base + ids[i]*dim), for every storage mode.
/// Same multi-row batching as ComputeDistanceBatch, and out[i] is
/// bit-identical to the pairwise ComputeDistance call. This is the
/// graph-search candidate-expansion inner loop (rows arrive as neighbor
/// ids).
void ComputeDistanceGather(Metric metric, const float* query,
                           const float* base, size_t dim,
                           const uint32_t* ids, size_t n, float* out);
void ComputeDistanceGather(Metric metric, const float* query,
                           const Half* base, size_t dim, const uint32_t* ids,
                           size_t n, float* out);
void ComputeDistanceGather(Metric metric, const float* query,
                           const int8_t* base, const float* scale,
                           const float* offset, size_t dim,
                           const uint32_t* ids, size_t n, float* out);

/// Per-query asymmetric-distance (ADC) lookup tables over a PQ codebook
/// (§V-E product quantization). Built once per query by
/// BuildAdcTable() in dataset/pq.h; the scan kernels then price one
/// table lookup + add per subspace instead of a full per-dimension
/// decode. `dist` holds M x 256 subspace partials: squared-L2 partials
/// for kL2, dot partials for kInnerProduct/kCosine. For cosine,
/// `row_norm2` borrows the dataset's per-row reconstructed norms
/// (PqDataset::row_norm2, precomputed at encode time; valid while the
/// PqDataset is alive, indexed by dataset row id) and `query_norm2`
/// caches |q|^2 — so cosine ADC is a single fused LUT pass plus one
/// float load per row instead of a second query-independent scan.
struct PqAdcTable {
  size_t num_subspaces = 0;
  Metric metric = Metric::kL2;
  std::vector<float> dist;
  const float* row_norm2 = nullptr;
  float query_norm2 = 0.0f;
  /// Scratch for the OPQ-rotated query (reused across a worker's
  /// queries like `dist`); empty when the dataset has no rotation.
  std::vector<float> rotated_query;
};

/// ADC distance of one PQ code row (`num_subspaces` bytes) via the
/// dispatched LUT-scan kernels; the metric composition (inner-product
/// negation, cosine normalization) is the one every storage mode runs.
/// `row` is the dataset row id of `code` — cosine reads its
/// precomputed norm through it; other metrics ignore it.
float ComputeDistanceAdc(const PqAdcTable& table, const uint8_t* code,
                         size_t row);

/// One ADC table against `n` code rows gathered by id from `base`
/// (row-major, stride num_subspaces) — the PQ candidate-expansion
/// loop. ids are dataset row ids and double as the row_norm2 index.
/// Same multi-row batching as ComputeDistanceBatch (the adcx4 kernel),
/// and out[i] is bit-identical to the pairwise ComputeDistanceAdc call.
void ComputeDistanceAdcGather(const PqAdcTable& table, const uint8_t* base,
                              const uint32_t* ids, size_t n, float* out);

}  // namespace cagra

#endif  // CAGRA_DISTANCE_DISTANCE_H_
