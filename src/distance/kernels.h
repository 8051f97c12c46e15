#ifndef CAGRA_DISTANCE_KERNELS_H_
#define CAGRA_DISTANCE_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "util/half.h"

namespace cagra {
namespace distance_kernels {

/// Rows per multi-row kernel call. Four interleaved accumulator sets
/// amortize the query loads and loop overhead while staying inside the
/// AVX2 register file (4 rows x 2 accumulators + query + temps < 16).
constexpr size_t kMultiRowWidth = 4;

/// Entries per subspace in an ADC lookup table (PQ codebooks have 256
/// centroids per subspace, so a code byte indexes the table directly).
constexpr size_t kAdcTableStride = 256;

/// Reduction kernels one ISA tier provides. All kernels return plain
/// float sums; metric composition (negating dot products, cosine
/// normalization) lives in distance.cc so every tier shares one
/// definition of each metric.
///
/// fp16 kernels take the fp32 query against Half-stored rows — the
/// paper's FP16 storage mode (§IV-C1) keeps the query in fp32.
///
/// int8 kernels take the fp32 query against affine-coded rows
/// (value = code[d] * scale[d] + offset[d], the §V-E compression
/// direction); the decode runs in vector registers (sign-extend +
/// convert + FMA against the per-dimension scale/offset vectors), never
/// through a dequantized temporary.
///
/// The *x4 multi-row kernels score kMultiRowWidth rows per call with
/// one shared query stream and interleaved accumulators. Each SIMD tier
/// writes every family once, as a body templated on its row count R:
/// the single-row slot is OneRow<Body<1>> and the x4 slot is
/// Body<kMultiRowWidth>. Each row's floating-point operations are the
/// same whatever R is, so out[r] is bit-identical to the single-row
/// call by construction — the batch entry points rely on this to stay
/// bit-compatible with the pairwise API. The scalar tier has no shared
/// query stream to amortize; its x4 slots loop over its single-row
/// kernels.
struct KernelTable {
  const char* name;

  float (*l2_f32)(const float* a, const float* b, size_t dim);
  float (*dot_f32)(const float* a, const float* b, size_t dim);
  float (*l2_f16)(const float* query, const Half* item, size_t dim);
  float (*dot_f16)(const float* query, const Half* item, size_t dim);
  /// Sum of squares of an fp16 row (cosine denominator).
  float (*norm2_f16)(const Half* item, size_t dim);

  float (*l2_i8)(const float* query, const int8_t* code, const float* scale,
                 const float* offset, size_t dim);
  float (*dot_i8)(const float* query, const int8_t* code, const float* scale,
                  const float* offset, size_t dim);
  /// Sum of squares of a decoded int8 row (cosine denominator).
  float (*norm2_i8)(const int8_t* code, const float* scale,
                    const float* offset, size_t dim);

  void (*l2_f32x4)(const float* query, const float* const* rows, size_t dim,
                   float* out);
  void (*dot_f32x4)(const float* query, const float* const* rows, size_t dim,
                    float* out);
  void (*l2_f16x4)(const float* query, const Half* const* rows, size_t dim,
                   float* out);
  void (*dot_f16x4)(const float* query, const Half* const* rows, size_t dim,
                    float* out);
  void (*l2_i8x4)(const float* query, const int8_t* const* rows,
                  const float* scale, const float* offset, size_t dim,
                  float* out);
  void (*dot_i8x4)(const float* query, const int8_t* const* rows,
                   const float* scale, const float* offset, size_t dim,
                   float* out);

  /// ADC lookup-table scan over PQ codes (§V-E product quantization):
  /// returns sum over the `m` subspaces of lut[s * kAdcTableStride +
  /// code[s]]. The per-query `lut` holds the precomputed subspace
  /// distance partials; metric composition (negation, cosine) lives in
  /// distance.cc like every other kernel family. The scalar tier is the
  /// gather-free reference; SIMD tiers widen the code bytes and gather
  /// kAdcTableStride-strided table entries in vector registers.
  float (*adc)(const float* lut, const uint8_t* code, size_t m);
  /// Multi-row ADC scan: kMultiRowWidth code rows against one shared
  /// LUT, interleaved accumulators, bit-identical per row to adc().
  void (*adcx4)(const float* lut, const uint8_t* const* rows, size_t m,
                float* out);
};

/// The single-row slot of a kernel body that scores R rows: runs its
/// R = 1 instantiation on `row`. Every template argument after `Body`
/// is deduced from the slot the adapter fills.
template <auto Body, typename Q, typename T, typename... Args>
float OneRow(const Q* query, const T* row, Args... args) {
  float out;
  Body(query, &row, args..., &out);
  return out;
}

/// Always available; the reference the SIMD tiers are tested against.
const KernelTable* ScalarTable();

/// Return nullptr when the tier was not compiled in (non-x86 target or
/// a compiler without the ISA flags); dispatch then falls through to
/// the next tier down.
const KernelTable* Avx2Table();
const KernelTable* Avx512Table();

}  // namespace distance_kernels
}  // namespace cagra

#endif  // CAGRA_DISTANCE_KERNELS_H_
