// AVX2 + FMA + F16C kernels, 8-lane fp32 with two accumulators to hide
// FMA latency. Each kernel family is one body templated on its row
// count R (one shared query stream, R interleaved accumulator sets);
// the R = 1 instantiation fills the single-row slot and R =
// kMultiRowWidth the x4 slot, so both run the same op sequence per row.
// This file is the only one compiled with -mavx2; the guard below turns
// it into an empty tier when the compiler or target lacks the ISA, and
// dispatch.cc checks CPUID before ever calling in.
#include "distance/kernels.h"

#if defined(__AVX2__) && defined(__FMA__) && defined(__F16C__)

#include <immintrin.h>

#include <cstdint>

namespace cagra {
namespace distance_kernels {

namespace {

float ReduceAdd(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 sum = _mm_add_ps(lo, hi);
  sum = _mm_add_ps(sum, _mm_movehl_ps(sum, sum));
  sum = _mm_add_ss(sum, _mm_shuffle_ps(sum, sum, 0x55));
  return _mm_cvtss_f32(sum);
}

/// Loads 8 halfs and widens to fp32 (F16C, round-exact like Half).
__m256 LoadHalf8(const Half* p) {
  return _mm256_cvtph_ps(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

template <size_t R>
void Avx2L2F32(const float* query, const float* const* rows, size_t dim,
               float* out) {
  __m256 acc0[R], acc1[R];
  for (size_t r = 0; r < R; r++) acc0[r] = acc1[r] = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m256 q0 = _mm256_loadu_ps(query + i);
    const __m256 q1 = _mm256_loadu_ps(query + i + 8);
    for (size_t r = 0; r < R; r++) {
      const __m256 d0 = _mm256_sub_ps(q0, _mm256_loadu_ps(rows[r] + i));
      const __m256 d1 = _mm256_sub_ps(q1, _mm256_loadu_ps(rows[r] + i + 8));
      acc0[r] = _mm256_fmadd_ps(d0, d0, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(d1, d1, acc1[r]);
    }
  }
  for (; i + 8 <= dim; i += 8) {
    const __m256 q0 = _mm256_loadu_ps(query + i);
    for (size_t r = 0; r < R; r++) {
      const __m256 d = _mm256_sub_ps(q0, _mm256_loadu_ps(rows[r] + i));
      acc0[r] = _mm256_fmadd_ps(d, d, acc0[r]);
    }
  }
  for (size_t r = 0; r < R; r++) {
    float acc = ReduceAdd(_mm256_add_ps(acc0[r], acc1[r]));
    for (size_t j = i; j < dim; j++) {
      const float d = query[j] - rows[r][j];
      acc += d * d;
    }
    out[r] = acc;
  }
}

template <size_t R>
void Avx2DotF32(const float* query, const float* const* rows, size_t dim,
                float* out) {
  __m256 acc0[R], acc1[R];
  for (size_t r = 0; r < R; r++) acc0[r] = acc1[r] = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m256 q0 = _mm256_loadu_ps(query + i);
    const __m256 q1 = _mm256_loadu_ps(query + i + 8);
    for (size_t r = 0; r < R; r++) {
      acc0[r] = _mm256_fmadd_ps(q0, _mm256_loadu_ps(rows[r] + i), acc0[r]);
      acc1[r] = _mm256_fmadd_ps(q1, _mm256_loadu_ps(rows[r] + i + 8),
                                acc1[r]);
    }
  }
  for (; i + 8 <= dim; i += 8) {
    const __m256 q0 = _mm256_loadu_ps(query + i);
    for (size_t r = 0; r < R; r++) {
      acc0[r] = _mm256_fmadd_ps(q0, _mm256_loadu_ps(rows[r] + i), acc0[r]);
    }
  }
  for (size_t r = 0; r < R; r++) {
    float acc = ReduceAdd(_mm256_add_ps(acc0[r], acc1[r]));
    for (size_t j = i; j < dim; j++) acc += query[j] * rows[r][j];
    out[r] = acc;
  }
}

template <size_t R>
void Avx2L2F16(const float* query, const Half* const* rows, size_t dim,
               float* out) {
  __m256 acc0[R];
  for (size_t r = 0; r < R; r++) acc0[r] = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    const __m256 q0 = _mm256_loadu_ps(query + i);
    for (size_t r = 0; r < R; r++) {
      const __m256 d = _mm256_sub_ps(q0, LoadHalf8(rows[r] + i));
      acc0[r] = _mm256_fmadd_ps(d, d, acc0[r]);
    }
  }
  for (size_t r = 0; r < R; r++) {
    float acc = ReduceAdd(acc0[r]);
    for (size_t j = i; j < dim; j++) {
      const float d = query[j] - rows[r][j].ToFloat();
      acc += d * d;
    }
    out[r] = acc;
  }
}

template <size_t R>
void Avx2DotF16(const float* query, const Half* const* rows, size_t dim,
                float* out) {
  __m256 acc0[R];
  for (size_t r = 0; r < R; r++) acc0[r] = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    const __m256 q0 = _mm256_loadu_ps(query + i);
    for (size_t r = 0; r < R; r++) {
      acc0[r] = _mm256_fmadd_ps(q0, LoadHalf8(rows[r] + i), acc0[r]);
    }
  }
  for (size_t r = 0; r < R; r++) {
    float acc = ReduceAdd(acc0[r]);
    for (size_t j = i; j < dim; j++) acc += query[j] * rows[r][j].ToFloat();
    out[r] = acc;
  }
}

float Avx2Norm2F16(const Half* item, size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    const __m256 v = LoadHalf8(item + i);
    acc0 = _mm256_fmadd_ps(v, v, acc0);
  }
  float acc = ReduceAdd(acc0);
  for (; i < dim; i++) {
    const float v = item[i].ToFloat();
    acc += v * v;
  }
  return acc;
}

/// Loads 8 int8 codes, sign-extends to epi32, converts to fp32, and
/// applies the per-dimension affine decode with one FMA — the §V-E
/// dequantize-in-registers step. The row kernels load each scale/offset
/// chunk once and reuse it across their rows.
__m256 DecodeI8x8(const int8_t* code, __m256 scale, __m256 offset) {
  const __m256i w = _mm256_cvtepi8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(code)));
  return _mm256_fmadd_ps(_mm256_cvtepi32_ps(w), scale, offset);
}

inline float DecodeI8Scalar(int8_t code, float scale, float offset) {
  return static_cast<float>(code) * scale + offset;
}

template <size_t R>
void Avx2L2I8(const float* query, const int8_t* const* rows,
              const float* scale, const float* offset, size_t dim,
              float* out) {
  __m256 acc0[R], acc1[R];
  for (size_t r = 0; r < R; r++) acc0[r] = acc1[r] = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m256 q0 = _mm256_loadu_ps(query + i);
    const __m256 q1 = _mm256_loadu_ps(query + i + 8);
    const __m256 s0 = _mm256_loadu_ps(scale + i);
    const __m256 s1 = _mm256_loadu_ps(scale + i + 8);
    const __m256 o0 = _mm256_loadu_ps(offset + i);
    const __m256 o1 = _mm256_loadu_ps(offset + i + 8);
    for (size_t r = 0; r < R; r++) {
      const __m256 d0 = _mm256_sub_ps(q0, DecodeI8x8(rows[r] + i, s0, o0));
      const __m256 d1 =
          _mm256_sub_ps(q1, DecodeI8x8(rows[r] + i + 8, s1, o1));
      acc0[r] = _mm256_fmadd_ps(d0, d0, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(d1, d1, acc1[r]);
    }
  }
  for (; i + 8 <= dim; i += 8) {
    const __m256 q0 = _mm256_loadu_ps(query + i);
    const __m256 s0 = _mm256_loadu_ps(scale + i);
    const __m256 o0 = _mm256_loadu_ps(offset + i);
    for (size_t r = 0; r < R; r++) {
      const __m256 d = _mm256_sub_ps(q0, DecodeI8x8(rows[r] + i, s0, o0));
      acc0[r] = _mm256_fmadd_ps(d, d, acc0[r]);
    }
  }
  for (size_t r = 0; r < R; r++) {
    float acc = ReduceAdd(_mm256_add_ps(acc0[r], acc1[r]));
    for (size_t j = i; j < dim; j++) {
      const float d =
          query[j] - DecodeI8Scalar(rows[r][j], scale[j], offset[j]);
      acc += d * d;
    }
    out[r] = acc;
  }
}

template <size_t R>
void Avx2DotI8(const float* query, const int8_t* const* rows,
               const float* scale, const float* offset, size_t dim,
               float* out) {
  __m256 acc0[R], acc1[R];
  for (size_t r = 0; r < R; r++) acc0[r] = acc1[r] = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m256 q0 = _mm256_loadu_ps(query + i);
    const __m256 q1 = _mm256_loadu_ps(query + i + 8);
    const __m256 s0 = _mm256_loadu_ps(scale + i);
    const __m256 s1 = _mm256_loadu_ps(scale + i + 8);
    const __m256 o0 = _mm256_loadu_ps(offset + i);
    const __m256 o1 = _mm256_loadu_ps(offset + i + 8);
    for (size_t r = 0; r < R; r++) {
      acc0[r] = _mm256_fmadd_ps(q0, DecodeI8x8(rows[r] + i, s0, o0), acc0[r]);
      acc1[r] =
          _mm256_fmadd_ps(q1, DecodeI8x8(rows[r] + i + 8, s1, o1), acc1[r]);
    }
  }
  for (; i + 8 <= dim; i += 8) {
    const __m256 q0 = _mm256_loadu_ps(query + i);
    const __m256 s0 = _mm256_loadu_ps(scale + i);
    const __m256 o0 = _mm256_loadu_ps(offset + i);
    for (size_t r = 0; r < R; r++) {
      acc0[r] = _mm256_fmadd_ps(q0, DecodeI8x8(rows[r] + i, s0, o0), acc0[r]);
    }
  }
  for (size_t r = 0; r < R; r++) {
    float acc = ReduceAdd(_mm256_add_ps(acc0[r], acc1[r]));
    for (size_t j = i; j < dim; j++) {
      acc += query[j] * DecodeI8Scalar(rows[r][j], scale[j], offset[j]);
    }
    out[r] = acc;
  }
}

float Avx2Norm2I8(const int8_t* code, const float* scale, const float* offset,
                  size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    const __m256 v = DecodeI8x8(code + i, _mm256_loadu_ps(scale + i),
                                _mm256_loadu_ps(offset + i));
    acc0 = _mm256_fmadd_ps(v, v, acc0);
  }
  float acc = ReduceAdd(acc0);
  for (; i < dim; i++) {
    const float v = DecodeI8Scalar(code[i], scale[i], offset[i]);
    acc += v * v;
  }
  return acc;
}

// ADC LUT scan: widen 8 code bytes to epi32 lanes, add the per-lane
// subspace offsets (lane j of chunk i indexes table (8i+j)), and gather
// the fp32 table entries; a scalar loop sums the tail.
template <size_t R>
void Avx2Adc(const float* lut, const uint8_t* const* rows, size_t m,
             float* out) {
  const __m256i lane = _mm256_setr_epi32(
      0, 1 * kAdcTableStride, 2 * kAdcTableStride, 3 * kAdcTableStride,
      4 * kAdcTableStride, 5 * kAdcTableStride, 6 * kAdcTableStride,
      7 * kAdcTableStride);
  const __m256i step = _mm256_set1_epi32(8 * kAdcTableStride);
  __m256i base = lane;
  __m256 acc[R];
  for (size_t r = 0; r < R; r++) acc[r] = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    for (size_t r = 0; r < R; r++) {
      const __m256i idx = _mm256_add_epi32(
          base, _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                    reinterpret_cast<const __m128i*>(rows[r] + i))));
      acc[r] = _mm256_add_ps(acc[r], _mm256_i32gather_ps(lut, idx, 4));
    }
    base = _mm256_add_epi32(base, step);
  }
  for (size_t r = 0; r < R; r++) {
    float sum = ReduceAdd(acc[r]);
    for (size_t j = i; j < m; j++) {
      sum += lut[j * kAdcTableStride + rows[r][j]];
    }
    out[r] = sum;
  }
}

constexpr size_t kW = kMultiRowWidth;

constexpr KernelTable kAvx2Table = {
    "avx2",
    OneRow<Avx2L2F32<1>>, OneRow<Avx2DotF32<1>>,
    OneRow<Avx2L2F16<1>>, OneRow<Avx2DotF16<1>>, Avx2Norm2F16,
    OneRow<Avx2L2I8<1>>,  OneRow<Avx2DotI8<1>>,  Avx2Norm2I8,
    Avx2L2F32<kW>,        Avx2DotF32<kW>,        Avx2L2F16<kW>,
    Avx2DotF16<kW>,       Avx2L2I8<kW>,          Avx2DotI8<kW>,
    OneRow<Avx2Adc<1>>,   Avx2Adc<kW>,
};

}  // namespace

const KernelTable* Avx2Table() { return &kAvx2Table; }

}  // namespace distance_kernels
}  // namespace cagra

#else  // !(__AVX2__ && __FMA__ && __F16C__)

namespace cagra {
namespace distance_kernels {

const KernelTable* Avx2Table() { return nullptr; }

}  // namespace distance_kernels
}  // namespace cagra

#endif
