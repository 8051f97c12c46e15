#include "dataset/quantize.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "distance/distance.h"

namespace cagra {

QuantizedDataset QuantizeInt8(const Matrix<float>& dataset) {
  QuantizedDataset out;
  const size_t rows = dataset.rows();
  const size_t dim = dataset.dim();
  out.codes = Matrix<int8_t>(rows, dim);
  out.scale.assign(dim, 0.0f);
  out.offset.assign(dim, 0.0f);
  if (rows == 0) return out;

  // Per-dimension min/max fit over *finite* values only: one NaN or Inf
  // would otherwise poison scale/offset for its whole dimension and
  // silently zero or saturate every code there.
  std::vector<float> lo(dim, std::numeric_limits<float>::max());
  std::vector<float> hi(dim, std::numeric_limits<float>::lowest());
  for (size_t i = 0; i < rows; i++) {
    const float* row = dataset.Row(i);
    for (size_t d = 0; d < dim; d++) {
      if (!std::isfinite(row[d])) continue;
      lo[d] = std::min(lo[d], row[d]);
      hi[d] = std::max(hi[d], row[d]);
    }
  }
  for (size_t d = 0; d < dim; d++) {
    if (lo[d] > hi[d]) {  // no finite value in this dimension
      lo[d] = hi[d] = 0.0f;
    }
    // Codes -127..127 span [lo, hi]; a zero range gets scale 0, so its
    // one value decodes exactly.
    out.scale[d] = (hi[d] - lo[d]) / 254.0f;
    out.offset[d] = lo[d] + 127.0f * out.scale[d];  // center the range
  }

  for (size_t i = 0; i < rows; i++) {
    EncodeInt8Row(out, dataset.Row(i), out.codes.MutableRow(i));
  }
  return out;
}

void EncodeInt8Row(const QuantizedDataset& q, const float* row,
                   int8_t* code) {
  for (size_t d = 0; d < q.scale.size(); d++) {
    const float v = row[d];
    // NaN codes the center, and a zero-range dimension decodes every
    // code to its constant. Everything else clamps to [-127, 127]
    // before lround, which is undefined on NaN/Inf and out-of-range
    // input: +Inf lands on the fitted max, -Inf on the min.
    if (std::isnan(v) || q.scale[d] == 0.0f) {
      code[d] = 0;
      continue;
    }
    const float x =
        std::clamp((v - q.offset[d]) / q.scale[d], -127.0f, 127.0f);
    code[d] = static_cast<int8_t>(std::lround(x));
  }
}

float QuantizedDistance(Metric metric, const float* query,
                        const QuantizedDataset& data, size_t row) {
  const size_t dim = data.dim();
  const int8_t* code = data.codes.Row(row);
  // Hoisted once, not re-resolved through the vectors inside the metric
  // loops: this function is the per-element decode reference the SIMD
  // int8 kernels are pinned against, and the hoist keeps its inner loops
  // free of the std::vector indirection.
  const float* scale = data.scale.data();
  const float* offset = data.offset.data();
  switch (metric) {
    case Metric::kL2: {
      float acc = 0.f;
      for (size_t d = 0; d < dim; d++) {
        const float v = static_cast<float>(code[d]) * scale[d] + offset[d];
        const float diff = query[d] - v;
        acc += diff * diff;
      }
      return acc;
    }
    case Metric::kInnerProduct: {
      float acc = 0.f;
      for (size_t d = 0; d < dim; d++) {
        acc += query[d] * (static_cast<float>(code[d]) * scale[d] +
                           offset[d]);
      }
      return -acc;
    }
    case Metric::kCosine: {
      // Quantized cosine decodes and normalizes the int8 row itself — it
      // never falls back to the fp32 dataset (quantize_test pins this).
      float dot = 0.f, nq = 0.f, nv = 0.f;
      for (size_t d = 0; d < dim; d++) {
        const float v = static_cast<float>(code[d]) * scale[d] + offset[d];
        dot += query[d] * v;
        nq += query[d] * query[d];
        nv += v * v;
      }
      const float denom = std::sqrt(nq) * std::sqrt(nv);
      if (denom == 0.0f) return 1.0f;
      return 1.0f - dot / denom;
    }
  }
  return 0.0f;
}

}  // namespace cagra
