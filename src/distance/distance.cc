#include "distance/distance.h"

#include <cmath>

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

// One struct per storage type names what the metric composition needs:
// the rows (row `id` sits at base + id * stride; a pairwise call passes
// its one row with stride 0), the single-row and x4 kernels that score
// them against the query (L2 or dot), the query norm, and the row norm
// cosine divides by.

struct F32Rows {
  const KernelTable& k;
  const float* query;
  const float* base;
  size_t stride;
  size_t dim;

  const float* Row(size_t id) const { return base + id * stride; }
  float One(bool l2, const float* row) const {
    return (l2 ? k.l2_f32 : k.dot_f32)(query, row, dim);
  }
  void Four(bool l2, const float* const* rows, float* out) const {
    (l2 ? k.l2_f32x4 : k.dot_f32x4)(query, rows, dim, out);
  }
  float QueryNorm2() const { return k.dot_f32(query, query, dim); }
  float RowNorm2(const float* row, size_t) const {
    return k.dot_f32(row, row, dim);
  }
};

struct F16Rows {
  const KernelTable& k;
  const float* query;
  const Half* base;
  size_t stride;
  size_t dim;

  const Half* Row(size_t id) const { return base + id * stride; }
  float One(bool l2, const Half* row) const {
    return (l2 ? k.l2_f16 : k.dot_f16)(query, row, dim);
  }
  void Four(bool l2, const Half* const* rows, float* out) const {
    (l2 ? k.l2_f16x4 : k.dot_f16x4)(query, rows, dim, out);
  }
  float QueryNorm2() const { return k.dot_f32(query, query, dim); }
  float RowNorm2(const Half* row, size_t) const {
    return k.norm2_f16(row, dim);
  }
};

struct I8Rows {
  const KernelTable& k;
  const float* query;
  const int8_t* base;
  size_t stride;
  size_t dim;
  const float* scale;
  const float* offset;

  const int8_t* Row(size_t id) const { return base + id * stride; }
  float One(bool l2, const int8_t* row) const {
    return (l2 ? k.l2_i8 : k.dot_i8)(query, row, scale, offset, dim);
  }
  void Four(bool l2, const int8_t* const* rows, float* out) const {
    (l2 ? k.l2_i8x4 : k.dot_i8x4)(query, rows, scale, offset, dim, out);
  }
  float QueryNorm2() const { return k.dot_f32(query, query, dim); }
  float RowNorm2(const int8_t* row, size_t) const {
    return k.norm2_i8(row, scale, offset, dim);
  }
};

/// PQ code rows scored through a per-query ADC table. The table already
/// holds L2 or dot partials for its metric, so every metric is the same
/// single LUT pass and `l2` is ignored; cosine reads the row's
/// reconstructed norm, which PqDataset::row_norm2 precomputed at encode
/// time and indexes by row id.
struct AdcRows {
  const KernelTable& k;
  const float* lut;
  size_t m;
  float query_norm2;
  const float* row_norm2;
  const uint8_t* base;
  size_t stride;

  AdcRows(const PqAdcTable& t, const uint8_t* rows_base, size_t row_stride)
      : k(ActiveKernelTable()),
        lut(t.dist.data()),
        m(t.num_subspaces),
        query_norm2(t.query_norm2),
        row_norm2(t.row_norm2),
        base(rows_base),
        stride(row_stride) {}

  const uint8_t* Row(size_t id) const { return base + id * stride; }
  float One(bool, const uint8_t* row) const { return k.adc(lut, row, m); }
  void Four(bool, const uint8_t* const* rows, float* out) const {
    k.adcx4(lut, rows, m, out);
  }
  float QueryNorm2() const { return query_norm2; }
  float RowNorm2(const uint8_t*, size_t id) const { return row_norm2[id]; }
};

/// The one metric composition behind every entry point: out[i] is the
/// distance from the query to row id(i) of `s`. Full groups of
/// kMultiRowWidth rows run through the multi-row kernels — one shared
/// query stream, interleaved accumulators — with the next group
/// prefetched while the current one is scored; the remainder runs the
/// single-row kernels. Both give bit-identical per-row results (every
/// tier's x4 kernels run the single-row op sequence on each row), so
/// callers see one answer whatever the batch size. The metric is a
/// template parameter, so the L2 loop carries no metric branch.
template <Metric M, typename S, typename IdFn>
void Score(const S& s, size_t n, const IdFn& id, float* out) {
  using Row = decltype(s.Row(0));
  constexpr bool kL2 = M == Metric::kL2;
  const float query_norm2 = M == Metric::kCosine ? s.QueryNorm2() : 0.0f;
  const auto finish = [&](float part, Row row, size_t row_id) {
    if constexpr (M == Metric::kL2) {
      return part;
    } else if constexpr (M == Metric::kInnerProduct) {
      return -part;
    } else {
      return CosineFromParts(part, query_norm2, s.RowNorm2(row, row_id));
    }
  };
  Row group[kMultiRowWidth];
  size_t i = 0;
  for (; i + kMultiRowWidth <= n; i += kMultiRowWidth) {
    for (size_t r = 0; r < kMultiRowWidth; r++) group[r] = s.Row(id(i + r));
    for (size_t j = i + kMultiRowWidth; j < i + 2 * kMultiRowWidth && j < n;
         j++) {
      PrefetchRow(s.Row(id(j)));
    }
    s.Four(kL2, group, out + i);
    for (size_t r = 0; r < kMultiRowWidth; r++) {
      out[i + r] = finish(out[i + r], group[r], id(i + r));
    }
  }
  for (; i < n; i++) {
    const Row row = s.Row(id(i));
    out[i] = finish(s.One(kL2, row), row, id(i));
  }
}

template <typename S, typename IdFn>
void ScoreRows(Metric metric, const S& s, size_t n, const IdFn& id,
               float* out) {
  switch (metric) {
    case Metric::kL2: return Score<Metric::kL2>(s, n, id, out);
    case Metric::kInnerProduct:
      return Score<Metric::kInnerProduct>(s, n, id, out);
    case Metric::kCosine: return Score<Metric::kCosine>(s, n, id, out);
  }
}

/// The pairwise entry points: one row, `id`.
template <typename S>
float ScoreOne(Metric metric, const S& s, size_t id) {
  float out = 0.0f;
  ScoreRows(metric, s, 1, [id](size_t) { return id; }, &out);
  return out;
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
  return ScoreOne(metric, F32Rows{ActiveKernelTable(), a, b, 0, dim}, 0);
}

float ComputeDistance(Metric metric, const float* query, const Half* item,
                      size_t dim) {
  return ScoreOne(metric, F16Rows{ActiveKernelTable(), query, item, 0, dim},
                  0);
}

float ComputeDistance(Metric metric, const float* query, const int8_t* code,
                      const float* scale, const float* offset, size_t dim) {
  return ScoreOne(
      metric,
      I8Rows{ActiveKernelTable(), query, code, 0, dim, scale, offset}, 0);
}

void ComputeDistanceBatch(Metric metric, const float* query,
                          const float* rows, size_t n, size_t dim,
                          float* out) {
  ScoreRows(metric, F32Rows{ActiveKernelTable(), query, rows, dim, dim}, n,
            [](size_t i) { return i; }, out);
}

void ComputeDistanceGather(Metric metric, const float* query,
                           const float* base, size_t dim,
                           const uint32_t* ids, size_t n, float* out) {
  ScoreRows(metric, F32Rows{ActiveKernelTable(), query, base, dim, dim}, n,
            [ids](size_t i) { return ids[i]; }, out);
}

void ComputeDistanceGather(Metric metric, const float* query,
                           const Half* base, size_t dim, const uint32_t* ids,
                           size_t n, float* out) {
  ScoreRows(metric, F16Rows{ActiveKernelTable(), query, base, dim, dim}, n,
            [ids](size_t i) { return ids[i]; }, out);
}

void ComputeDistanceGather(Metric metric, const float* query,
                           const int8_t* base, const float* scale,
                           const float* offset, size_t dim,
                           const uint32_t* ids, size_t n, float* out) {
  ScoreRows(metric,
            I8Rows{ActiveKernelTable(), query, base, dim, dim, scale, offset},
            n, [ids](size_t i) { return ids[i]; }, out);
}

float ComputeDistanceAdc(const PqAdcTable& table, const uint8_t* code,
                         size_t row) {
  return ScoreOne(table.metric, AdcRows(table, code, 0), row);
}

void ComputeDistanceAdcGather(const PqAdcTable& table, const uint8_t* base,
                              const uint32_t* ids, size_t n, float* out) {
  ScoreRows(table.metric, AdcRows(table, base, table.num_subspaces), n,
            [ids](size_t i) { return ids[i]; }, out);
}

}  // namespace cagra
