#ifndef CAGRA_DATASET_QUANTIZE_H_
#define CAGRA_DATASET_QUANTIZE_H_

#include <cstdint>
#include <vector>

#include "dataset/matrix.h"
#include "distance/distance.h"

namespace cagra {

/// Scalar (per-dimension affine) int8 quantization of a dataset —
/// the simple member of the compression family the paper's §V-E points
/// at for datasets beyond device memory ("data compression schemes, such
/// as product quantization, are some of the ways to address the memory
/// capacity problem"). Quarter the bytes of fp32 with a deterministic,
/// SIMD/GPU-friendly decode: x ~ code * scale[d] + offset[d]. A
/// dimension whose fitted range is zero has scale 0: every code decodes
/// to its constant, the offset.
struct QuantizedDataset {
  Matrix<int8_t> codes;
  std::vector<float> scale;   ///< per-dimension
  std::vector<float> offset;  ///< per-dimension

  size_t rows() const { return codes.rows(); }
  size_t dim() const { return codes.dim(); }
  bool empty() const { return codes.empty(); }
  size_t RowBytes() const { return codes.dim() * sizeof(int8_t); }

  /// Dequantizes one element.
  float Decode(size_t row, size_t d) const {
    return static_cast<float>(codes.Row(row)[d]) * scale[d] + offset[d];
  }
};

/// Fits per-dimension ranges over the dataset and encodes every row
/// with EncodeInt8Row.
QuantizedDataset QuantizeInt8(const Matrix<float>& dataset);

/// Encodes one fp32 row (q.dim() floats) with the already-fitted affine
/// of `q` — the per-row encode of QuantizeInt8, and the int8 sibling of
/// PqEncodeAppend for rows appended later (CagraIndex::Add). Values
/// clamp into the fitted range, +Inf to its max and -Inf to its min;
/// NaN codes the center.
void EncodeInt8Row(const QuantizedDataset& q, const float* row,
                   int8_t* code);

/// Distance between an fp32 query and an int8-coded row, decoding one
/// element at a time. This is the scalar reference the SIMD int8 kernels
/// are tested (and benched) against; hot paths go through the dispatched
/// ComputeDistance / ComputeDistanceGather int8 overloads in
/// distance/distance.h instead, which decode in vector registers. All
/// metrics — including cosine — operate on the decoded int8 values;
/// nothing falls back to the fp32 dataset.
float QuantizedDistance(Metric metric, const float* query,
                        const QuantizedDataset& data, size_t row);

}  // namespace cagra

#endif  // CAGRA_DATASET_QUANTIZE_H_
