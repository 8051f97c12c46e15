#include "distance/distance.h"

#include <cmath>
#include <type_traits>

#include "distance/simd.h"

namespace cagra {

namespace {

using distance_kernels::KernelTable;
using distance_kernels::kMultiRowWidth;

inline void PrefetchRow(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 1);
#else
  (void)p;
#endif
}

inline float CosineFromParts(float dot, float norm2_a, float norm2_b) {
  const float denom = std::sqrt(norm2_a) * std::sqrt(norm2_b);
  if (denom == 0.0f) return 1.0f;
  return 1.0f - dot / denom;
}

inline float PairDistance(const KernelTable& k, Metric metric, const float* a,
                          const float* b, size_t dim) {
  switch (metric) {
    case Metric::kL2:
      return k.l2_f32(a, b, dim);
    case Metric::kInnerProduct:
      return -k.dot_f32(a, b, dim);
    case Metric::kCosine:
      return CosineFromParts(k.dot_f32(a, b, dim), k.dot_f32(a, a, dim),
                             k.dot_f32(b, b, dim));
  }
  return 0.0f;
}

inline float PairDistance(const KernelTable& k, Metric metric,
                          const float* query, const Half* item, size_t dim) {
  switch (metric) {
    case Metric::kL2:
      return k.l2_f16(query, item, dim);
    case Metric::kInnerProduct:
      return -k.dot_f16(query, item, dim);
    case Metric::kCosine:
      return CosineFromParts(k.dot_f16(query, item, dim),
                             k.dot_f32(query, query, dim),
                             k.norm2_f16(item, dim));
  }
  return 0.0f;
}

inline float PairDistance(const KernelTable& k, Metric metric,
                          const float* query, const int8_t* code,
                          const float* scale, const float* offset,
                          size_t dim) {
  switch (metric) {
    case Metric::kL2:
      return k.l2_i8(query, code, scale, offset, dim);
    case Metric::kInnerProduct:
      return -k.dot_i8(query, code, scale, offset, dim);
    case Metric::kCosine:
      return CosineFromParts(k.dot_i8(query, code, scale, offset, dim),
                             k.dot_f32(query, query, dim),
                             k.norm2_i8(code, scale, offset, dim));
  }
  return 0.0f;
}

/// Shared body of the batch/gather entry points: `row(i)` yields the
/// i-th row pointer (contiguous or gathered). Full groups of
/// kMultiRowWidth rows run through the multi-row kernels — one shared
/// query stream, interleaved accumulators — with the next group
/// prefetched while the current one is scored; the remainder falls back
/// to the single-row kernels. Both paths produce bit-identical per-row
/// results (the x4 kernels mirror the single-row op order), so callers
/// see one deterministic answer regardless of batch size. The metric
/// switch and the query-norm hoisting are written once per element type.
template <typename T, typename RowFn>
void BatchDistance(const KernelTable& k, Metric metric, const float* query,
                   size_t dim, size_t n, const RowFn& row, float* out) {
  constexpr bool kIsHalf = std::is_same_v<T, Half>;
  const T* group[kMultiRowWidth];
  const auto fill_group = [&](size_t i) {
    for (size_t r = 0; r < kMultiRowWidth; r++) group[r] = row(i + r);
    for (size_t j = i + kMultiRowWidth; j < i + 2 * kMultiRowWidth && j < n;
         j++) {
      PrefetchRow(row(j));
    }
  };
  switch (metric) {
    case Metric::kL2: {
      size_t i = 0;
      for (; i + kMultiRowWidth <= n; i += kMultiRowWidth) {
        fill_group(i);
        if constexpr (kIsHalf) {
          k.l2_f16x4(query, group, dim, out + i);
        } else {
          k.l2_f32x4(query, group, dim, out + i);
        }
      }
      for (; i < n; i++) {
        if constexpr (kIsHalf) {
          out[i] = k.l2_f16(query, row(i), dim);
        } else {
          out[i] = k.l2_f32(query, row(i), dim);
        }
      }
      break;
    }
    case Metric::kInnerProduct: {
      size_t i = 0;
      for (; i + kMultiRowWidth <= n; i += kMultiRowWidth) {
        fill_group(i);
        if constexpr (kIsHalf) {
          k.dot_f16x4(query, group, dim, out + i);
        } else {
          k.dot_f32x4(query, group, dim, out + i);
        }
        for (size_t r = 0; r < kMultiRowWidth; r++) out[i + r] = -out[i + r];
      }
      for (; i < n; i++) {
        if constexpr (kIsHalf) {
          out[i] = -k.dot_f16(query, row(i), dim);
        } else {
          out[i] = -k.dot_f32(query, row(i), dim);
        }
      }
      break;
    }
    case Metric::kCosine: {
      const float query_norm2 = k.dot_f32(query, query, dim);
      size_t i = 0;
      for (; i + kMultiRowWidth <= n; i += kMultiRowWidth) {
        fill_group(i);
        if constexpr (kIsHalf) {
          k.dot_f16x4(query, group, dim, out + i);
        } else {
          k.dot_f32x4(query, group, dim, out + i);
        }
        for (size_t r = 0; r < kMultiRowWidth; r++) {
          float norm2;
          if constexpr (kIsHalf) {
            norm2 = k.norm2_f16(group[r], dim);
          } else {
            norm2 = k.dot_f32(group[r], group[r], dim);
          }
          out[i + r] = CosineFromParts(out[i + r], query_norm2, norm2);
        }
      }
      for (; i < n; i++) {
        if constexpr (kIsHalf) {
          out[i] = CosineFromParts(k.dot_f16(query, row(i), dim), query_norm2,
                                   k.norm2_f16(row(i), dim));
        } else {
          out[i] = CosineFromParts(k.dot_f32(query, row(i), dim), query_norm2,
                                   k.dot_f32(row(i), row(i), dim));
        }
      }
      break;
    }
  }
}

/// Int8 variant of BatchDistance: same multi-row structure, with the
/// per-dimension scale/offset arrays threaded through to the affine
/// decode inside the kernels.
template <typename RowFn>
void BatchDistanceI8(const KernelTable& k, Metric metric, const float* query,
                     const float* scale, const float* offset, size_t dim,
                     size_t n, const RowFn& row, float* out) {
  const int8_t* group[kMultiRowWidth];
  const auto fill_group = [&](size_t i) {
    for (size_t r = 0; r < kMultiRowWidth; r++) group[r] = row(i + r);
    for (size_t j = i + kMultiRowWidth; j < i + 2 * kMultiRowWidth && j < n;
         j++) {
      PrefetchRow(row(j));
    }
  };
  switch (metric) {
    case Metric::kL2: {
      size_t i = 0;
      for (; i + kMultiRowWidth <= n; i += kMultiRowWidth) {
        fill_group(i);
        k.l2_i8x4(query, group, scale, offset, dim, out + i);
      }
      for (; i < n; i++) {
        out[i] = k.l2_i8(query, row(i), scale, offset, dim);
      }
      break;
    }
    case Metric::kInnerProduct: {
      size_t i = 0;
      for (; i + kMultiRowWidth <= n; i += kMultiRowWidth) {
        fill_group(i);
        k.dot_i8x4(query, group, scale, offset, dim, out + i);
        for (size_t r = 0; r < kMultiRowWidth; r++) out[i + r] = -out[i + r];
      }
      for (; i < n; i++) {
        out[i] = -k.dot_i8(query, row(i), scale, offset, dim);
      }
      break;
    }
    case Metric::kCosine: {
      const float query_norm2 = k.dot_f32(query, query, dim);
      size_t i = 0;
      for (; i + kMultiRowWidth <= n; i += kMultiRowWidth) {
        fill_group(i);
        k.dot_i8x4(query, group, scale, offset, dim, out + i);
        for (size_t r = 0; r < kMultiRowWidth; r++) {
          out[i + r] = CosineFromParts(
              out[i + r], query_norm2,
              k.norm2_i8(group[r], scale, offset, dim));
        }
      }
      for (; i < n; i++) {
        out[i] = CosineFromParts(k.dot_i8(query, row(i), scale, offset, dim),
                                 query_norm2,
                                 k.norm2_i8(row(i), scale, offset, dim));
      }
      break;
    }
  }
}

}  // namespace

std::string MetricName(Metric metric) {
  switch (metric) {
    case Metric::kL2: return "L2";
    case Metric::kInnerProduct: return "InnerProduct";
    case Metric::kCosine: return "Cosine";
  }
  return "Unknown";
}

float ComputeDistance(Metric metric, const float* a, const float* b,
                      size_t dim) {
  return PairDistance(ActiveKernelTable(), metric, a, b, dim);
}

float ComputeDistance(Metric metric, const float* query, const Half* item,
                      size_t dim) {
  return PairDistance(ActiveKernelTable(), metric, query, item, dim);
}

float ComputeDistance(Metric metric, const float* query, const int8_t* code,
                      const float* scale, const float* offset, size_t dim) {
  return PairDistance(ActiveKernelTable(), metric, query, code, scale, offset,
                      dim);
}

void ComputeDistanceBatch(Metric metric, const float* query,
                          const float* rows, size_t n, size_t dim,
                          float* out) {
  BatchDistance<float>(ActiveKernelTable(), metric, query, dim, n,
                       [&](size_t i) { return rows + i * dim; }, out);
}

void ComputeDistanceGather(Metric metric, const float* query,
                           const float* base, size_t dim,
                           const uint32_t* ids, size_t n, float* out) {
  BatchDistance<float>(ActiveKernelTable(), metric, query, dim, n,
                       [&](size_t i) { return base + ids[i] * dim; }, out);
}

void ComputeDistanceGather(Metric metric, const float* query,
                           const Half* base, size_t dim, const uint32_t* ids,
                           size_t n, float* out) {
  BatchDistance<Half>(ActiveKernelTable(), metric, query, dim, n,
                      [&](size_t i) { return base + ids[i] * dim; }, out);
}

void ComputeDistanceGather(Metric metric, const float* query,
                           const int8_t* base, const float* scale,
                           const float* offset, size_t dim,
                           const uint32_t* ids, size_t n, float* out) {
  BatchDistanceI8(ActiveKernelTable(), metric, query, scale, offset, dim, n,
                  [&](size_t i) { return base + ids[i] * dim; }, out);
}

float ComputeDistanceAdc(const PqAdcTable& table, const uint8_t* code,
                         size_t row) {
  const KernelTable& k = ActiveKernelTable();
  const size_t m = table.num_subspaces;
  switch (table.metric) {
    case Metric::kL2:
      return k.adc(table.dist.data(), code, m);
    case Metric::kInnerProduct:
      return -k.adc(table.dist.data(), code, m);
    case Metric::kCosine:
      return CosineFromParts(k.adc(table.dist.data(), code, m),
                             table.query_norm2, table.row_norm2[row]);
  }
  return 0.0f;
}

void ComputeDistanceAdcGather(const PqAdcTable& table, const uint8_t* base,
                              const uint32_t* ids, size_t n, float* out) {
  // ADC variant of BatchDistance: one per-query LUT, code rows instead
  // of vectors. Every metric is a single fused LUT pass — cosine reads
  // the per-row reconstructed norm precomputed at encode time
  // (PqDataset::row_norm2) instead of scanning a second
  // query-independent LUT.
  const KernelTable& k = ActiveKernelTable();
  const size_t m = table.num_subspaces;
  const float* lut = table.dist.data();
  const auto row = [&](size_t i) { return base + ids[i] * m; };
  const uint8_t* group[kMultiRowWidth];
  const auto fill_group = [&](size_t i) {
    for (size_t r = 0; r < kMultiRowWidth; r++) group[r] = row(i + r);
    for (size_t j = i + kMultiRowWidth; j < i + 2 * kMultiRowWidth && j < n;
         j++) {
      PrefetchRow(row(j));
    }
  };
  switch (table.metric) {
    case Metric::kL2: {
      size_t i = 0;
      for (; i + kMultiRowWidth <= n; i += kMultiRowWidth) {
        fill_group(i);
        k.adcx4(lut, group, m, out + i);
      }
      for (; i < n; i++) out[i] = k.adc(lut, row(i), m);
      break;
    }
    case Metric::kInnerProduct: {
      size_t i = 0;
      for (; i + kMultiRowWidth <= n; i += kMultiRowWidth) {
        fill_group(i);
        k.adcx4(lut, group, m, out + i);
        for (size_t r = 0; r < kMultiRowWidth; r++) out[i + r] = -out[i + r];
      }
      for (; i < n; i++) out[i] = -k.adc(lut, row(i), m);
      break;
    }
    case Metric::kCosine: {
      size_t i = 0;
      for (; i + kMultiRowWidth <= n; i += kMultiRowWidth) {
        fill_group(i);
        k.adcx4(lut, group, m, out + i);
        for (size_t r = 0; r < kMultiRowWidth; r++) {
          out[i + r] = CosineFromParts(out[i + r], table.query_norm2,
                                       table.row_norm2[ids[i + r]]);
        }
      }
      for (; i < n; i++) {
        out[i] = CosineFromParts(k.adc(lut, row(i), m), table.query_norm2,
                                 table.row_norm2[ids[i]]);
      }
      break;
    }
  }
}

}  // namespace cagra
