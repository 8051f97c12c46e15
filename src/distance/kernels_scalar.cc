// Scalar reference kernels. Four independent accumulators let the
// compiler vectorize at the baseline target (SSE2 on x86-64) without
// reassociation flags; dim is typically 96-960 so the tail is cheap.
// The tier writes single-row kernels only; one generic loop over them
// fills every x4 slot.
#include "distance/kernels.h"

namespace cagra {
namespace distance_kernels {

namespace {

float ScalarL2F32(const float* a, const float* b, size_t dim) {
  float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
  size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const float d0 = a[i] - b[i];
    const float d1 = a[i + 1] - b[i + 1];
    const float d2 = a[i + 2] - b[i + 2];
    const float d3 = a[i + 3] - b[i + 3];
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  float acc = (acc0 + acc1) + (acc2 + acc3);
  for (; i < dim; i++) {
    const float d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

float ScalarDotF32(const float* a, const float* b, size_t dim) {
  float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
  size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  float acc = (acc0 + acc1) + (acc2 + acc3);
  for (; i < dim; i++) acc += a[i] * b[i];
  return acc;
}

float ScalarL2F16(const float* query, const Half* item, size_t dim) {
  float acc = 0.f;
  for (size_t i = 0; i < dim; i++) {
    const float d = query[i] - item[i].ToFloat();
    acc += d * d;
  }
  return acc;
}

float ScalarDotF16(const float* query, const Half* item, size_t dim) {
  float acc = 0.f;
  for (size_t i = 0; i < dim; i++) acc += query[i] * item[i].ToFloat();
  return acc;
}

float ScalarNorm2F16(const Half* item, size_t dim) {
  float acc = 0.f;
  for (size_t i = 0; i < dim; i++) {
    const float v = item[i].ToFloat();
    acc += v * v;
  }
  return acc;
}

// int8 kernels: per-dimension affine decode (code * scale + offset)
// fused into the reduction. These are the decode reference the SIMD
// tiers are pinned against, so they stay single-accumulator.

float ScalarL2I8(const float* query, const int8_t* code, const float* scale,
                 const float* offset, size_t dim) {
  float acc = 0.f;
  for (size_t i = 0; i < dim; i++) {
    const float v = static_cast<float>(code[i]) * scale[i] + offset[i];
    const float d = query[i] - v;
    acc += d * d;
  }
  return acc;
}

float ScalarDotI8(const float* query, const int8_t* code, const float* scale,
                  const float* offset, size_t dim) {
  float acc = 0.f;
  for (size_t i = 0; i < dim; i++) {
    acc += query[i] * (static_cast<float>(code[i]) * scale[i] + offset[i]);
  }
  return acc;
}

float ScalarNorm2I8(const int8_t* code, const float* scale,
                    const float* offset, size_t dim) {
  float acc = 0.f;
  for (size_t i = 0; i < dim; i++) {
    const float v = static_cast<float>(code[i]) * scale[i] + offset[i];
    acc += v * v;
  }
  return acc;
}

// ADC LUT scan: the gather-free scalar reference the SIMD variants are
// pinned against. One sequential accumulator so the sum order is the
// canonical one the PQ decode reference (PqDistance) mirrors.

float ScalarAdc(const float* lut, const uint8_t* code, size_t m) {
  float acc = 0.f;
  for (size_t s = 0; s < m; s++) {
    acc += lut[s * kAdcTableStride + code[s]];
  }
  return acc;
}

// The x4 slots: with no shared query stream to amortize, EachRow runs a
// single-row kernel on each row in turn, which is trivially
// bit-identical. The kernel's parameters after the row pointer are
// deduced from its type and passed through.
template <auto One>
struct EachRow;

template <typename Q, typename T, typename... Args,
          float (*One)(const Q*, const T*, Args...)>
struct EachRow<One> {
  static void Rows(const Q* query, const T* const* rows, Args... args,
                   float* out) {
    for (size_t r = 0; r < kMultiRowWidth; r++) {
      out[r] = One(query, rows[r], args...);
    }
  }
};

constexpr KernelTable kScalarTable = {
    "scalar",
    ScalarL2F32,                 ScalarDotF32,
    ScalarL2F16,                 ScalarDotF16,
    ScalarNorm2F16,              ScalarL2I8,
    ScalarDotI8,                 ScalarNorm2I8,
    EachRow<ScalarL2F32>::Rows,  EachRow<ScalarDotF32>::Rows,
    EachRow<ScalarL2F16>::Rows,  EachRow<ScalarDotF16>::Rows,
    EachRow<ScalarL2I8>::Rows,   EachRow<ScalarDotI8>::Rows,
    ScalarAdc,                   EachRow<ScalarAdc>::Rows,
};

}  // namespace

const KernelTable* ScalarTable() { return &kScalarTable; }

}  // namespace distance_kernels
}  // namespace cagra
