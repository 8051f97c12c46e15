// Dispatch bench: scalar vs SIMD distance-kernel throughput (fp32/fp16
// one-row kernels, int8 one-vs-many vs the per-element QuantizedDistance
// baseline, PQ ADC scans, multi-row batch vs one-row-per-call loops) and
// batch-search QPS at widths 1/2/4/8 (each row reports the width it ran,
// clamped to the global pool), emitted as one JSON object for the bench
// trajectory. The fp16, int8 and PQ one-vs-many rows time the gather
// kernels over sequential ids; only fp32 has a contiguous batch call.
// Not a google-benchmark binary on purpose — the output contract is
// machine-readable JSON on stdout; CI uploads it as a build artifact.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/index.h"
#include "core/search.h"
#include "dataset/pq.h"
#include "dataset/quantize.h"
#include "distance/simd.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace cagra;
using distance_kernels::KernelTable;

/// Measures one kernel's throughput in million distances/sec over a
/// pool of rows large enough to defeat L1 residency of the row side.
template <typename RowT>
double MeasureKernel(float (*kernel)(const float*, const RowT*, size_t),
                     const std::vector<float>& query,
                     const Matrix<RowT>& rows, double min_seconds = 0.2) {
  volatile float sink = 0.f;
  size_t reps = 0;
  Timer timer;
  do {
    for (size_t i = 0; i < rows.rows(); i++) {
      sink = sink + kernel(query.data(), rows.Row(i), rows.dim());
    }
    reps += rows.rows();
  } while (timer.Seconds() < min_seconds);
  (void)sink;
  return static_cast<double>(reps) / timer.Seconds() / 1e6;
}

struct KernelSample {
  size_t dim;
  const char* elem;
  double scalar_mdps;
  double simd_mdps;
};

std::vector<KernelSample> BenchKernels() {
  const KernelTable& scalar = KernelTableForLevel(SimdLevel::kScalar);
  const KernelTable& simd = ActiveKernelTable();

  std::vector<KernelSample> samples;
  for (size_t dim : {96ul, 128ul, 256ul, 960ul}) {
    // ~1MB of fp32 rows: larger than L1 (realistic misses) but
    // L2-resident, so the numbers measure the kernels, not DRAM.
    const size_t kRows = std::max<size_t>(256, (1ul << 20) / (dim * 4));
    Pcg32 rng(dim);
    std::vector<float> query(dim);
    for (auto& x : query) x = rng.NextFloat();
    Matrix<float> rows(kRows, dim);
    for (auto& x : *rows.mutable_data()) x = rng.NextFloat();
    const Matrix<Half> hrows = ToHalf(rows);

    samples.push_back({dim, "fp32", MeasureKernel(scalar.l2_f32, query, rows),
                       MeasureKernel(simd.l2_f32, query, rows)});
    samples.push_back({dim, "fp16",
                       MeasureKernel(scalar.l2_f16, query, hrows),
                       MeasureKernel(simd.l2_f16, query, hrows)});
  }
  return samples;
}

/// Measures a whole-batch functor (scoring `rows_per_call` rows per
/// invocation) in million distances/sec.
template <typename Fn>
double MeasureBatchFn(size_t rows_per_call, const Fn& fn,
                      double min_seconds = 0.2) {
  size_t reps = 0;
  Timer timer;
  do {
    fn();
    reps += rows_per_call;
  } while (timer.Seconds() < min_seconds);
  return static_cast<double>(reps) / timer.Seconds() / 1e6;
}

/// Ids 0..n-1: the gather kernels over sequential rows.
std::vector<uint32_t> SequentialIds(size_t n) {
  std::vector<uint32_t> ids(n);
  for (size_t i = 0; i < n; i++) ids[i] = static_cast<uint32_t>(i);
  return ids;
}

struct Int8Sample {
  size_t dim;
  double baseline_mdps;  ///< per-element QuantizedDistance, one row/call
  double active_mdps;    ///< dispatched int8 gather over sequential ids
};

/// int8 one-vs-many: the dispatched gather (vector-register decode,
/// multi-row kernels) against the per-element QuantizedDistance loop the
/// quantized search used before the int8 kernel tier existed.
std::vector<Int8Sample> BenchInt8() {
  std::vector<Int8Sample> samples;
  for (size_t dim : {96ul, 128ul, 256ul, 960ul}) {
    const size_t kRows = std::max<size_t>(256, (1ul << 20) / dim);
    Pcg32 rng(dim + 1);
    std::vector<float> query(dim);
    for (auto& x : query) x = rng.NextFloat();
    Matrix<float> rows(kRows, dim);
    for (auto& x : *rows.mutable_data()) x = rng.NextFloat() * 2.0f - 1.0f;
    const QuantizedDataset q = QuantizeInt8(rows);

    volatile float sink = 0.f;
    const double baseline = MeasureBatchFn(kRows, [&] {
      float acc = 0.f;
      for (size_t i = 0; i < kRows; i++) {
        acc += QuantizedDistance(Metric::kL2, query.data(), q, i);
      }
      sink = sink + acc;
    });
    std::vector<float> out(kRows);
    const std::vector<uint32_t> ids = SequentialIds(kRows);
    const double active = MeasureBatchFn(kRows, [&] {
      ComputeDistanceGather(Metric::kL2, query.data(), q.codes.data().data(),
                            q.scale.data(), q.offset.data(), dim, ids.data(),
                            kRows, out.data());
      sink = sink + out[0];
    });
    (void)sink;
    samples.push_back({dim, baseline, active});
  }
  return samples;
}

struct MultiRowSample {
  size_t dim;
  const char* elem;
  double single_mdps;  ///< one-row-per-call loop over the active kernel
  double multi_mdps;   ///< batch (fp32) or gather (x4 multi-row inside)
};

/// Multi-row scan: ComputeDistanceBatch for fp32 and ComputeDistanceGather
/// over sequential ids for fp16/int8 (4 rows per kernel call, shared
/// query stream) against the one-row-per-call loop the bruteforce scan
/// used before — same active tier on both sides, so the delta is purely
/// the multi-row batching.
std::vector<MultiRowSample> BenchMultiRow() {
  const KernelTable& simd = ActiveKernelTable();
  std::vector<MultiRowSample> samples;
  for (size_t dim : {96ul, 128ul, 256ul, 960ul}) {
    const size_t kRows = std::max<size_t>(256, (1ul << 20) / (dim * 4));
    Pcg32 rng(dim + 2);
    std::vector<float> query(dim);
    for (auto& x : query) x = rng.NextFloat();
    Matrix<float> rows(kRows, dim);
    for (auto& x : *rows.mutable_data()) x = rng.NextFloat() * 2.0f - 1.0f;
    const Matrix<Half> hrows = ToHalf(rows);
    const QuantizedDataset q = QuantizeInt8(rows);
    std::vector<float> out(kRows);
    const std::vector<uint32_t> ids = SequentialIds(kRows);

    samples.push_back(
        {dim, "fp32", MeasureBatchFn(kRows,
                                     [&] {
                                       for (size_t i = 0; i < kRows; i++) {
                                         out[i] = simd.l2_f32(
                                             query.data(), rows.Row(i), dim);
                                       }
                                     }),
         MeasureBatchFn(kRows, [&] {
           ComputeDistanceBatch(Metric::kL2, query.data(),
                                rows.data().data(), kRows, dim, out.data());
         })});
    samples.push_back(
        {dim, "fp16", MeasureBatchFn(kRows,
                                     [&] {
                                       for (size_t i = 0; i < kRows; i++) {
                                         out[i] = simd.l2_f16(
                                             query.data(), hrows.Row(i), dim);
                                       }
                                     }),
         MeasureBatchFn(kRows, [&] {
           ComputeDistanceGather(Metric::kL2, query.data(),
                                 hrows.data().data(), dim, ids.data(), kRows,
                                 out.data());
         })});
    samples.push_back(
        {dim, "int8",
         MeasureBatchFn(kRows,
                        [&] {
                          for (size_t i = 0; i < kRows; i++) {
                            out[i] = simd.l2_i8(query.data(), q.codes.Row(i),
                                                q.scale.data(),
                                                q.offset.data(), dim);
                          }
                        }),
         MeasureBatchFn(kRows, [&] {
           ComputeDistanceGather(Metric::kL2, query.data(),
                                 q.codes.data().data(), q.scale.data(),
                                 q.offset.data(), dim, ids.data(), kRows,
                                 out.data());
         })});
  }
  return samples;
}

struct PqSample {
  size_t dim;
  size_t m;
  double decode_mdps;      ///< PqDistance: per-element codebook decode
  double scalar_adc_mdps;  ///< scalar LUT scan, one row per call
  double batch_adc_mdps;   ///< dispatched ADC gather over sequential ids
  double cosine_twopass_mdps;  ///< retired two-scan cosine ADC (emulated)
  double cosine_fused_mdps;    ///< single-pass cosine ADC (precomputed norms)
};

/// PQ ADC scan: the gather-free scalar LUT reference against the
/// dispatched ADC gather (x4 kernels inside) over sequential ids.
/// Codebooks train on a small sample; scan throughput only depends on
/// the code bytes, which are drawn randomly to decouple the bench from
/// training cost.
std::vector<PqSample> BenchPq() {
  const KernelTable& scalar = KernelTableForLevel(SimdLevel::kScalar);
  std::vector<PqSample> samples;
  for (size_t dim : {96ul, 256ul, 960ul}) {
    const size_t m = dim / 4;
    // ~2MB of codes: past L1/L2 like the other kernel benches.
    const size_t kRows = std::max<size_t>(1024, (2ul << 20) / m);
    Pcg32 rng(dim + 3);
    Matrix<float> sample_rows(512, dim);
    for (auto& x : *sample_rows.mutable_data()) {
      x = rng.NextFloat() * 2.0f - 1.0f;
    }
    PqTrainParams tp;
    tp.kmeans_iterations = 2;
    tp.sample_size = 512;
    PqDataset pq = TrainPq(sample_rows, tp);
    pq.codes = Matrix<uint8_t>(kRows, m);
    for (auto& c : *pq.codes.mutable_data()) {
      c = static_cast<uint8_t>(rng.NextBounded(256));
    }
    RecomputePqRowNorms(&pq);  // codes were rewritten above

    std::vector<float> query(dim);
    for (auto& x : query) x = rng.NextFloat();
    PqAdcTable table;
    BuildAdcTable(pq, query.data(), Metric::kL2, &table);

    volatile float sink = 0.f;
    const double decode = MeasureBatchFn(kRows, [&] {
      float acc = 0.f;
      for (size_t i = 0; i < kRows; i++) {
        acc += PqDistance(Metric::kL2, query.data(), pq, i);
      }
      sink = sink + acc;
    });
    const double scalar_adc = MeasureBatchFn(kRows, [&] {
      float acc = 0.f;
      for (size_t i = 0; i < kRows; i++) {
        acc += scalar.adc(table.dist.data(), pq.codes.Row(i), m);
      }
      sink = sink + acc;
    });
    std::vector<float> out(kRows);
    const std::vector<uint32_t> ids = SequentialIds(kRows);
    const double batch_adc = MeasureBatchFn(kRows, [&] {
      ComputeDistanceAdcGather(table, pq.codes.data().data(), ids.data(),
                               kRows, out.data());
      sink = sink + out[0];
    });

    // Cosine ADC: the fused single pass (per-row precomputed norms)
    // against an emulation of the retired two-pass form (dot scan +
    // query-independent centroid-norm scan), both through the active
    // multi-row kernels.
    PqAdcTable ctable;
    BuildAdcTable(pq, query.data(), Metric::kCosine, &ctable);
    const double cosine_fused = MeasureBatchFn(kRows, [&] {
      ComputeDistanceAdcGather(ctable, pq.codes.data().data(), ids.data(),
                               kRows, out.data());
      sink = sink + out[0];
    });
    const KernelTable& active = ActiveKernelTable();
    std::vector<float> norms(kRows);
    const double cosine_twopass = MeasureBatchFn(kRows, [&] {
      for (size_t i = 0; i + 4 <= kRows; i += 4) {
        const uint8_t* rows4[4] = {
            pq.codes.Row(i), pq.codes.Row(i + 1), pq.codes.Row(i + 2),
            pq.codes.Row(i + 3)};
        active.adcx4(ctable.dist.data(), rows4, m, &out[i]);
        active.adcx4(pq.centroid_norm2.data(), rows4, m, &norms[i]);
        for (size_t r = 0; r < 4; r++) {
          const float denom =
              std::sqrt(ctable.query_norm2) * std::sqrt(norms[i + r]);
          out[i + r] = denom == 0.0f ? 1.0f : 1.0f - out[i + r] / denom;
        }
      }
      sink = sink + out[0];
    });
    (void)sink;
    samples.push_back(
        {dim, m, decode, scalar_adc, batch_adc, cosine_twopass, cosine_fused});
  }
  return samples;
}

struct ScalingSample {
  /// The width the search ran (SearchResult::host_threads): a request
  /// above the global pool clamps to it.
  size_t threads;
  double qps;
  double speedup;
};

std::vector<ScalingSample> BenchBatchScaling() {
  // A build small enough to finish quickly but large enough that a
  // batch search has real per-query work.
  auto data = GenerateDataset(*FindProfile("DEEP-1M"), 20000, 512, 11);
  BuildParams bp;
  bp.graph_degree = 16;
  auto index = CagraIndex::Build(data.base, bp);
  if (!index.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 index.status().ToString().c_str());
    std::abort();
  }

  SearchParams params;
  params.k = 10;
  params.itopk = 64;
  params.algo = SearchAlgo::kSingleCta;

  std::vector<ScalingSample> samples;
  double base_qps = 0;
  for (size_t threads : {1ul, 2ul, 4ul, 8ul}) {
    params.num_threads = threads;
    // Warm once (thread pool spin-up, cache priming), then measure the
    // best of three runs.
    (void)Search(*index, data.queries, params);
    double best = 0;
    size_t ran = 0;
    for (int rep = 0; rep < 3; rep++) {
      auto result = Search(*index, data.queries, params);
      if (!result.ok()) {
        std::fprintf(stderr, "search failed: %s\n",
                     result.status().ToString().c_str());
        std::abort();
      }
      if (result->host_qps > best) best = result->host_qps;
      ran = result->host_threads;
    }
    if (threads == 1) base_qps = best;
    samples.push_back({ran, best, base_qps > 0 ? best / base_qps : 0});
  }
  return samples;
}

}  // namespace

int main() {
  const std::string active = SimdLevelName(ActiveSimdLevel());
  std::printf("{\n");
  std::printf("  \"bench\": \"dispatch\",\n");
  std::printf("  \"simd_level\": \"%s\",\n", active.c_str());
  std::printf("  \"hardware_threads\": %u,\n",
              std::thread::hardware_concurrency());

  std::printf("  \"distance_kernels\": [\n");
  const auto kernels = BenchKernels();
  for (size_t i = 0; i < kernels.size(); i++) {
    const auto& s = kernels[i];
    std::printf("    {\"dim\": %zu, \"elem\": \"%s\", "
                "\"scalar_mdist_per_sec\": %.2f, "
                "\"active_mdist_per_sec\": %.2f, \"speedup\": %.2f}%s\n",
                s.dim, s.elem, s.scalar_mdps, s.simd_mdps,
                s.scalar_mdps > 0 ? s.simd_mdps / s.scalar_mdps : 0,
                i + 1 < kernels.size() ? "," : "");
  }
  std::printf("  ],\n");

  std::printf("  \"int8_kernels\": [\n");
  const auto int8 = BenchInt8();
  for (size_t i = 0; i < int8.size(); i++) {
    const auto& s = int8[i];
    std::printf("    {\"dim\": %zu, "
                "\"quantized_distance_mdist_per_sec\": %.2f, "
                "\"batch_mdist_per_sec\": %.2f, \"speedup\": %.2f}%s\n",
                s.dim, s.baseline_mdps, s.active_mdps,
                s.baseline_mdps > 0 ? s.active_mdps / s.baseline_mdps : 0,
                i + 1 < int8.size() ? "," : "");
  }
  std::printf("  ],\n");

  std::printf("  \"pq_kernels\": [\n");
  const auto pq = BenchPq();
  for (size_t i = 0; i < pq.size(); i++) {
    const auto& s = pq[i];
    std::printf("    {\"dim\": %zu, \"m\": %zu, "
                "\"decode_mdist_per_sec\": %.2f, "
                "\"scalar_adc_mdist_per_sec\": %.2f, "
                "\"batch_adc_mdist_per_sec\": %.2f, "
                "\"batch_adc_speedup\": %.2f, "
                "\"cosine_twopass_mdist_per_sec\": %.2f, "
                "\"cosine_fused_mdist_per_sec\": %.2f, "
                "\"cosine_fused_speedup\": %.2f}%s\n",
                s.dim, s.m, s.decode_mdps, s.scalar_adc_mdps,
                s.batch_adc_mdps,
                s.scalar_adc_mdps > 0 ? s.batch_adc_mdps / s.scalar_adc_mdps
                                      : 0,
                s.cosine_twopass_mdps, s.cosine_fused_mdps,
                s.cosine_twopass_mdps > 0
                    ? s.cosine_fused_mdps / s.cosine_twopass_mdps
                    : 0,
                i + 1 < pq.size() ? "," : "");
  }
  std::printf("  ],\n");

  std::printf("  \"multirow\": [\n");
  const auto multirow = BenchMultiRow();
  for (size_t i = 0; i < multirow.size(); i++) {
    const auto& s = multirow[i];
    std::printf("    {\"dim\": %zu, \"elem\": \"%s\", "
                "\"single_row_mdist_per_sec\": %.2f, "
                "\"multi_row_mdist_per_sec\": %.2f, \"speedup\": %.2f}%s\n",
                s.dim, s.elem, s.single_mdps, s.multi_mdps,
                s.single_mdps > 0 ? s.multi_mdps / s.single_mdps : 0,
                i + 1 < multirow.size() ? "," : "");
  }
  std::printf("  ],\n");

  std::printf("  \"batch_search_scaling\": [\n");
  const auto scaling = BenchBatchScaling();
  for (size_t i = 0; i < scaling.size(); i++) {
    const auto& s = scaling[i];
    std::printf("    {\"threads\": %zu, \"qps\": %.1f, \"speedup\": %.2f}%s\n",
                s.threads, s.qps, s.speedup,
                i + 1 < scaling.size() ? "," : "");
  }
  std::printf("  ]\n");
  std::printf("}\n");
  return 0;
}
