// AVX-512 kernels, 16-lane fp32 with masked tails so odd dims never
// fall back to a scalar remainder loop. Each kernel family is one body
// templated on its row count R (one shared query stream, R interleaved
// accumulator sets); the R = 1 instantiation fills the single-row slot
// and R = kMultiRowWidth the x4 slot, so both run the same op sequence
// per row. Requires F+BW+VL (masked 16-bit loads for the fp16 tails);
// dispatch.cc checks all three via CPUID.
#include "distance/kernels.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

#include <immintrin.h>

#include <cstdint>

namespace cagra {
namespace distance_kernels {

namespace {

/// Loads 16 halfs (optionally masked) and widens to fp32.
__m512 LoadHalf16(const Half* p) {
  return _mm512_cvtph_ps(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
}

__m512 LoadHalf16Masked(const Half* p, __mmask16 m) {
  return _mm512_cvtph_ps(
      _mm256_maskz_loadu_epi16(m, reinterpret_cast<const void*>(p)));
}

/// Lanes [0, n) of a masked tail, n < 16.
__mmask16 TailMask(size_t n) {
  return static_cast<__mmask16>((1u << n) - 1);
}

template <size_t R>
void Avx512L2F32(const float* query, const float* const* rows, size_t dim,
                 float* out) {
  __m512 acc0[R], acc1[R];
  for (size_t r = 0; r < R; r++) acc0[r] = acc1[r] = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= dim; i += 32) {
    const __m512 q0 = _mm512_loadu_ps(query + i);
    const __m512 q1 = _mm512_loadu_ps(query + i + 16);
    for (size_t r = 0; r < R; r++) {
      const __m512 d0 = _mm512_sub_ps(q0, _mm512_loadu_ps(rows[r] + i));
      const __m512 d1 = _mm512_sub_ps(q1, _mm512_loadu_ps(rows[r] + i + 16));
      acc0[r] = _mm512_fmadd_ps(d0, d0, acc0[r]);
      acc1[r] = _mm512_fmadd_ps(d1, d1, acc1[r]);
    }
  }
  for (; i + 16 <= dim; i += 16) {
    const __m512 q0 = _mm512_loadu_ps(query + i);
    for (size_t r = 0; r < R; r++) {
      const __m512 d = _mm512_sub_ps(q0, _mm512_loadu_ps(rows[r] + i));
      acc0[r] = _mm512_fmadd_ps(d, d, acc0[r]);
    }
  }
  if (i < dim) {
    const __mmask16 m = TailMask(dim - i);
    const __m512 q0 = _mm512_maskz_loadu_ps(m, query + i);
    for (size_t r = 0; r < R; r++) {
      const __m512 d =
          _mm512_sub_ps(q0, _mm512_maskz_loadu_ps(m, rows[r] + i));
      acc0[r] = _mm512_fmadd_ps(d, d, acc0[r]);
    }
  }
  for (size_t r = 0; r < R; r++) {
    out[r] = _mm512_reduce_add_ps(_mm512_add_ps(acc0[r], acc1[r]));
  }
}

template <size_t R>
void Avx512DotF32(const float* query, const float* const* rows, size_t dim,
                  float* out) {
  __m512 acc0[R], acc1[R];
  for (size_t r = 0; r < R; r++) acc0[r] = acc1[r] = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= dim; i += 32) {
    const __m512 q0 = _mm512_loadu_ps(query + i);
    const __m512 q1 = _mm512_loadu_ps(query + i + 16);
    for (size_t r = 0; r < R; r++) {
      acc0[r] = _mm512_fmadd_ps(q0, _mm512_loadu_ps(rows[r] + i), acc0[r]);
      acc1[r] = _mm512_fmadd_ps(q1, _mm512_loadu_ps(rows[r] + i + 16),
                                acc1[r]);
    }
  }
  for (; i + 16 <= dim; i += 16) {
    const __m512 q0 = _mm512_loadu_ps(query + i);
    for (size_t r = 0; r < R; r++) {
      acc0[r] = _mm512_fmadd_ps(q0, _mm512_loadu_ps(rows[r] + i), acc0[r]);
    }
  }
  if (i < dim) {
    const __mmask16 m = TailMask(dim - i);
    const __m512 q0 = _mm512_maskz_loadu_ps(m, query + i);
    for (size_t r = 0; r < R; r++) {
      acc0[r] = _mm512_fmadd_ps(q0, _mm512_maskz_loadu_ps(m, rows[r] + i),
                                acc0[r]);
    }
  }
  for (size_t r = 0; r < R; r++) {
    out[r] = _mm512_reduce_add_ps(_mm512_add_ps(acc0[r], acc1[r]));
  }
}

template <size_t R>
void Avx512L2F16(const float* query, const Half* const* rows, size_t dim,
                 float* out) {
  __m512 acc0[R];
  for (size_t r = 0; r < R; r++) acc0[r] = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m512 q0 = _mm512_loadu_ps(query + i);
    for (size_t r = 0; r < R; r++) {
      const __m512 d = _mm512_sub_ps(q0, LoadHalf16(rows[r] + i));
      acc0[r] = _mm512_fmadd_ps(d, d, acc0[r]);
    }
  }
  if (i < dim) {
    const __mmask16 m = TailMask(dim - i);
    const __m512 q0 = _mm512_maskz_loadu_ps(m, query + i);
    for (size_t r = 0; r < R; r++) {
      const __m512 d = _mm512_sub_ps(q0, LoadHalf16Masked(rows[r] + i, m));
      acc0[r] = _mm512_fmadd_ps(d, d, acc0[r]);
    }
  }
  for (size_t r = 0; r < R; r++) out[r] = _mm512_reduce_add_ps(acc0[r]);
}

template <size_t R>
void Avx512DotF16(const float* query, const Half* const* rows, size_t dim,
                  float* out) {
  __m512 acc0[R];
  for (size_t r = 0; r < R; r++) acc0[r] = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m512 q0 = _mm512_loadu_ps(query + i);
    for (size_t r = 0; r < R; r++) {
      acc0[r] = _mm512_fmadd_ps(q0, LoadHalf16(rows[r] + i), acc0[r]);
    }
  }
  if (i < dim) {
    const __mmask16 m = TailMask(dim - i);
    const __m512 q0 = _mm512_maskz_loadu_ps(m, query + i);
    for (size_t r = 0; r < R; r++) {
      acc0[r] =
          _mm512_fmadd_ps(q0, LoadHalf16Masked(rows[r] + i, m), acc0[r]);
    }
  }
  for (size_t r = 0; r < R; r++) out[r] = _mm512_reduce_add_ps(acc0[r]);
}

float Avx512Norm2F16(const Half* item, size_t dim) {
  __m512 acc0 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m512 v = LoadHalf16(item + i);
    acc0 = _mm512_fmadd_ps(v, v, acc0);
  }
  if (i < dim) {
    const __m512 v = LoadHalf16Masked(item + i, TailMask(dim - i));
    acc0 = _mm512_fmadd_ps(v, v, acc0);
  }
  return _mm512_reduce_add_ps(acc0);
}

/// Loads 16 int8 codes, widens to 16 epi32 lanes (vpmovsxbd), converts
/// to fp32, and applies the per-dimension affine decode with one FMA —
/// the §V-E dequantize-in-registers step. The row kernels load each
/// scale/offset chunk once and reuse it across their rows.
__m512 DecodeI8x16(const int8_t* code, __m512 scale, __m512 offset) {
  const __m512i w = _mm512_cvtepi8_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(code)));
  return _mm512_fmadd_ps(_mm512_cvtepi32_ps(w), scale, offset);
}

/// Masked decode for the tail: masked lanes of code/scale/offset load as
/// zero, so the decoded value is exactly 0 and contributes nothing.
__m512 DecodeI8x16Masked(const int8_t* code, const float* scale,
                         const float* offset, __mmask16 m) {
  const __m512i w =
      _mm512_cvtepi8_epi32(_mm_maskz_loadu_epi8(m, code));
  return _mm512_fmadd_ps(_mm512_cvtepi32_ps(w),
                         _mm512_maskz_loadu_ps(m, scale),
                         _mm512_maskz_loadu_ps(m, offset));
}

template <size_t R>
void Avx512L2I8(const float* query, const int8_t* const* rows,
                const float* scale, const float* offset, size_t dim,
                float* out) {
  __m512 acc0[R], acc1[R];
  for (size_t r = 0; r < R; r++) acc0[r] = acc1[r] = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= dim; i += 32) {
    const __m512 q0 = _mm512_loadu_ps(query + i);
    const __m512 q1 = _mm512_loadu_ps(query + i + 16);
    const __m512 s0 = _mm512_loadu_ps(scale + i);
    const __m512 s1 = _mm512_loadu_ps(scale + i + 16);
    const __m512 o0 = _mm512_loadu_ps(offset + i);
    const __m512 o1 = _mm512_loadu_ps(offset + i + 16);
    for (size_t r = 0; r < R; r++) {
      const __m512 d0 = _mm512_sub_ps(q0, DecodeI8x16(rows[r] + i, s0, o0));
      const __m512 d1 =
          _mm512_sub_ps(q1, DecodeI8x16(rows[r] + i + 16, s1, o1));
      acc0[r] = _mm512_fmadd_ps(d0, d0, acc0[r]);
      acc1[r] = _mm512_fmadd_ps(d1, d1, acc1[r]);
    }
  }
  for (; i + 16 <= dim; i += 16) {
    const __m512 q0 = _mm512_loadu_ps(query + i);
    const __m512 s0 = _mm512_loadu_ps(scale + i);
    const __m512 o0 = _mm512_loadu_ps(offset + i);
    for (size_t r = 0; r < R; r++) {
      const __m512 d = _mm512_sub_ps(q0, DecodeI8x16(rows[r] + i, s0, o0));
      acc0[r] = _mm512_fmadd_ps(d, d, acc0[r]);
    }
  }
  if (i < dim) {
    const __mmask16 m = TailMask(dim - i);
    const __m512 q0 = _mm512_maskz_loadu_ps(m, query + i);
    for (size_t r = 0; r < R; r++) {
      const __m512 d = _mm512_sub_ps(
          q0, DecodeI8x16Masked(rows[r] + i, scale + i, offset + i, m));
      acc0[r] = _mm512_fmadd_ps(d, d, acc0[r]);
    }
  }
  for (size_t r = 0; r < R; r++) {
    out[r] = _mm512_reduce_add_ps(_mm512_add_ps(acc0[r], acc1[r]));
  }
}

template <size_t R>
void Avx512DotI8(const float* query, const int8_t* const* rows,
                 const float* scale, const float* offset, size_t dim,
                 float* out) {
  __m512 acc0[R], acc1[R];
  for (size_t r = 0; r < R; r++) acc0[r] = acc1[r] = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= dim; i += 32) {
    const __m512 q0 = _mm512_loadu_ps(query + i);
    const __m512 q1 = _mm512_loadu_ps(query + i + 16);
    const __m512 s0 = _mm512_loadu_ps(scale + i);
    const __m512 s1 = _mm512_loadu_ps(scale + i + 16);
    const __m512 o0 = _mm512_loadu_ps(offset + i);
    const __m512 o1 = _mm512_loadu_ps(offset + i + 16);
    for (size_t r = 0; r < R; r++) {
      acc0[r] =
          _mm512_fmadd_ps(q0, DecodeI8x16(rows[r] + i, s0, o0), acc0[r]);
      acc1[r] = _mm512_fmadd_ps(q1, DecodeI8x16(rows[r] + i + 16, s1, o1),
                                acc1[r]);
    }
  }
  for (; i + 16 <= dim; i += 16) {
    const __m512 q0 = _mm512_loadu_ps(query + i);
    const __m512 s0 = _mm512_loadu_ps(scale + i);
    const __m512 o0 = _mm512_loadu_ps(offset + i);
    for (size_t r = 0; r < R; r++) {
      acc0[r] =
          _mm512_fmadd_ps(q0, DecodeI8x16(rows[r] + i, s0, o0), acc0[r]);
    }
  }
  if (i < dim) {
    const __mmask16 m = TailMask(dim - i);
    const __m512 q0 = _mm512_maskz_loadu_ps(m, query + i);
    for (size_t r = 0; r < R; r++) {
      acc0[r] = _mm512_fmadd_ps(
          q0, DecodeI8x16Masked(rows[r] + i, scale + i, offset + i, m),
          acc0[r]);
    }
  }
  for (size_t r = 0; r < R; r++) {
    out[r] = _mm512_reduce_add_ps(_mm512_add_ps(acc0[r], acc1[r]));
  }
}

float Avx512Norm2I8(const int8_t* code, const float* scale,
                    const float* offset, size_t dim) {
  __m512 acc0 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m512 v = DecodeI8x16(code + i, _mm512_loadu_ps(scale + i),
                                 _mm512_loadu_ps(offset + i));
    acc0 = _mm512_fmadd_ps(v, v, acc0);
  }
  if (i < dim) {
    const __m512 v = DecodeI8x16Masked(code + i, scale + i, offset + i,
                                       TailMask(dim - i));
    acc0 = _mm512_fmadd_ps(v, v, acc0);
  }
  return _mm512_reduce_add_ps(acc0);
}

// ADC LUT scan: 16 code bytes widen to epi32 lanes, add the per-lane
// subspace offsets, and one vgatherdps pulls 16 table entries. The tail
// masks both the byte load and the gather, so inactive lanes never touch
// memory.
template <size_t R>
void Avx512Adc(const float* lut, const uint8_t* const* rows, size_t m,
               float* out) {
  const __m512i lane = _mm512_setr_epi32(
      0, 1 * kAdcTableStride, 2 * kAdcTableStride, 3 * kAdcTableStride,
      4 * kAdcTableStride, 5 * kAdcTableStride, 6 * kAdcTableStride,
      7 * kAdcTableStride, 8 * kAdcTableStride, 9 * kAdcTableStride,
      10 * kAdcTableStride, 11 * kAdcTableStride, 12 * kAdcTableStride,
      13 * kAdcTableStride, 14 * kAdcTableStride, 15 * kAdcTableStride);
  const __m512i step = _mm512_set1_epi32(16 * kAdcTableStride);
  __m512i base = lane;
  __m512 acc[R];
  for (size_t r = 0; r < R; r++) acc[r] = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= m; i += 16) {
    for (size_t r = 0; r < R; r++) {
      const __m512i idx = _mm512_add_epi32(
          base, _mm512_cvtepu8_epi32(_mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(rows[r] + i))));
      acc[r] = _mm512_add_ps(acc[r], _mm512_i32gather_ps(idx, lut, 4));
    }
    base = _mm512_add_epi32(base, step);
  }
  if (i < m) {
    const __mmask16 k = TailMask(m - i);
    for (size_t r = 0; r < R; r++) {
      const __m512i idx = _mm512_add_epi32(
          base, _mm512_cvtepu8_epi32(_mm_maskz_loadu_epi8(k, rows[r] + i)));
      acc[r] = _mm512_add_ps(
          acc[r],
          _mm512_mask_i32gather_ps(_mm512_setzero_ps(), k, idx, lut, 4));
    }
  }
  for (size_t r = 0; r < R; r++) out[r] = _mm512_reduce_add_ps(acc[r]);
}

constexpr size_t kW = kMultiRowWidth;

constexpr KernelTable kAvx512Table = {
    "avx512",
    OneRow<Avx512L2F32<1>>, OneRow<Avx512DotF32<1>>,
    OneRow<Avx512L2F16<1>>, OneRow<Avx512DotF16<1>>, Avx512Norm2F16,
    OneRow<Avx512L2I8<1>>,  OneRow<Avx512DotI8<1>>,  Avx512Norm2I8,
    Avx512L2F32<kW>,        Avx512DotF32<kW>,        Avx512L2F16<kW>,
    Avx512DotF16<kW>,       Avx512L2I8<kW>,          Avx512DotI8<kW>,
    OneRow<Avx512Adc<1>>,   Avx512Adc<kW>,
};

}  // namespace

const KernelTable* Avx512Table() { return &kAvx512Table; }

}  // namespace distance_kernels
}  // namespace cagra

#else  // !(__AVX512F__ && __AVX512BW__ && __AVX512VL__)

namespace cagra {
namespace distance_kernels {

const KernelTable* Avx512Table() { return nullptr; }

}  // namespace distance_kernels
}  // namespace cagra

#endif
