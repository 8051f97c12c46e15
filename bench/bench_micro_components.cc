// Component microbenchmarks (google-benchmark): the §IV-B building
// blocks — the per-iteration candidate sort + top-M merge at the slot
// fills the benchmark workloads' traversals see, visited-set probing,
// distance kernels fp32 vs fp16, fp32 and ADC gathers of random rows,
// lone multi-CTA PQ requests on one serving-shaped shard, NN-descent vs
// exact kNN-graph construction, and PQ codebook training plus encode
// (plain and OPQ).
#include <benchmark/benchmark.h>

#include "core/index.h"
#include "core/search.h"
#include "core/search_internal.h"
#include "dataset/pq.h"
#include "dataset/profile.h"
#include "dataset/synthetic.h"
#include "distance/distance.h"
#include "knn/bruteforce.h"
#include "knn/nn_descent.h"
#include "util/rng.h"
#include "util/sort.h"
#include "util/visited_set.h"

namespace {

using namespace cagra;

std::vector<KeyValue> RandomKv(size_t n, Pcg32* rng) {
  std::vector<KeyValue> data(n);
  for (auto& kv : data) kv = {rng->NextFloat(), rng->Next() >> 1};
  return data;
}

/// One SortAndMerge of a 16-slot round into a sorted `itopk`-entry
/// top-M, `filled` of the slots holding fresh candidates as the
/// traversal sees them: 8 into 32 is batch_deep's single-CTA iteration,
/// 5 into 64 churn's, 3 into 32 each multi-CTA CTA's. Late in a search
/// most fresh candidates lose to the M-th entry, so a quarter of the
/// keys fall inside the top-M's range [0, 1) and the rest beyond it.
/// Each round's candidates are ids and distances, as a scored batch
/// holds them. Every round starts from the same top-M; its copy is
/// timed too.
void BM_SortAndMerge(benchmark::State& state) {
  constexpr size_t kSlots = 16;
  constexpr size_t kRounds = 64;
  const size_t itopk = state.range(0);
  const size_t filled = state.range(1);
  Pcg32 rng(1);
  std::vector<KeyValue> start = RandomKv(itopk, &rng);
  std::sort(start.begin(), start.end(), KeyValueLess);
  std::vector<uint32_t> ids;
  std::vector<float> dists;
  for (size_t i = 0; i < kRounds; i++) {
    for (const KeyValue& kv : RandomKv(filled, &rng)) {
      ids.push_back(kv.value);
      dists.push_back(rng.NextBounded(4) != 0 ? kv.key + 1.f : kv.key);
    }
  }
  std::vector<KeyValue> topm;
  std::vector<KeyValue> merged;
  KernelCounters counters;
  size_t round = 0;
  for (auto _ : state) {
    topm = start;
    const size_t begin = (round++ % kRounds) * filled;
    internal_search::SortAndMerge(topm.data(), itopk, ids.data() + begin,
                                  dists.data() + begin, filled, kSlots,
                                  &merged, &counters);
    benchmark::DoNotOptimize(topm.data());
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(counters.sort_exchanges);
  state.SetItemsProcessed(state.iterations() * kSlots);
}
BENCHMARK(BM_SortAndMerge)->Args({32, 8})->Args({64, 5})->Args({32, 3});

/// 4096 random inserts into a half-full 8192-slot table, wiped between
/// rounds through Reset() as OpenVisited reuses a search's table.
void BM_VisitedSetInsert(benchmark::State& state) {
  Pcg32 rng(7);
  VisitedSet set(8192);
  for (auto _ : state) {
    set.Reset();
    for (int i = 0; i < 4096; i++) {
      benchmark::DoNotOptimize(set.InsertIfAbsent(rng.Next()));
    }
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_VisitedSetInsert);

void BM_VisitedSetResetCycle(benchmark::State& state) {
  VisitedSet set(1024);
  Pcg32 rng(9);
  for (auto _ : state) {
    for (int i = 0; i < 512; i++) set.InsertIfAbsent(rng.Next());
    set.Reset();
  }
}
BENCHMARK(BM_VisitedSetResetCycle);

void BM_DistanceFp32(benchmark::State& state) {
  const size_t dim = state.range(0);
  Pcg32 rng(3);
  std::vector<float> a(dim), b(dim);
  for (size_t i = 0; i < dim; i++) {
    a[i] = rng.NextFloat();
    b[i] = rng.NextFloat();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeDistance(Metric::kL2, a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations() * dim);
}
BENCHMARK(BM_DistanceFp32)->Arg(96)->Arg(128)->Arg(200)->Arg(960);

void BM_DistanceFp16(benchmark::State& state) {
  const size_t dim = state.range(0);
  Pcg32 rng(3);
  std::vector<float> a(dim);
  std::vector<Half> b(dim);
  for (size_t i = 0; i < dim; i++) {
    a[i] = rng.NextFloat();
    b[i] = Half(rng.NextFloat());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeDistance(Metric::kL2, a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations() * dim);
}
BENCHMARK(BM_DistanceFp16)->Arg(96)->Arg(960);

/// 20k DEEP rows, their PQ codes, and batches of 64 random row ids.
struct GatherFixture {
  static constexpr size_t kRows = 20000;
  static constexpr size_t kBatches = 256;
  SyntheticData data;
  PqDataset pq;
  std::vector<uint32_t> ids;
};

const GatherFixture& Gather() {
  static const GatherFixture f = [] {
    GatherFixture g;
    g.data =
        GenerateDataset(*FindProfile("DEEP-1M"), GatherFixture::kRows, 1, 5);
    g.pq = TrainPq(g.data.base);
    Pcg32 rng(11);
    g.ids.resize(GatherFixture::kBatches * 64);
    for (auto& id : g.ids) id = rng.NextBounded(GatherFixture::kRows);
    return g;
  }();
  return f;
}

/// One query's L2 distances to n rows gathered by random id: arg 0 picks
/// fp32 rows (0) or PQ codes through an ADC table (1), arg 1 is n. The
/// search's expansions and NN-descent's joins gather 7 to 64 rows a
/// call; 7 is one group of four plus a three-row single-row tail. Each
/// call takes the next batch of ids, so rows come from cache as they do
/// in a traversal, not from L1.
void BM_DistanceGather(benchmark::State& state) {
  const GatherFixture& f = Gather();
  const bool adc = state.range(0) != 0;
  const size_t n = state.range(1);
  const float* query = f.data.queries.Row(0);
  PqAdcTable table;
  BuildAdcTable(f.pq, query, Metric::kL2, &table);
  std::vector<float> out(n);
  size_t batch = 0;
  for (auto _ : state) {
    const uint32_t* ids = &f.ids[(batch++ % GatherFixture::kBatches) * 64];
    if (adc) {
      ComputeDistanceAdcGather(table, f.pq.codes.data().data(), ids, n,
                               out.data());
    } else {
      ComputeDistanceGather(Metric::kL2, query, f.data.base.data().data(),
                            f.data.base.dim(), ids, n, out.data());
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DistanceGather)->ArgsProduct({{0, 1}, {7, 32, 64}});

/// Blocks of 100 lone requests against one shard of online_pq's shape
/// (10k DEEP rows, degree 16, PQ codes with an fp32 rerank of 32),
/// pinned as the serving scheduler pins them: uniform seed and the
/// batch-of-one shape, which is multi-CTA at 64 CTAs, run on the
/// calling thread alone. Time is per block; the counters are the work
/// per request, equal in every block.
void BM_MultiCtaLoneQuery(benchmark::State& state) {
  constexpr size_t kRequests = 100;
  static const SyntheticData data =
      GenerateDataset(*FindProfile("DEEP-1M"), 10000, kRequests, 5);
  static const CagraIndex* shard = [] {
    BuildParams params;
    params.graph_degree = 16;
    auto built = CagraIndex::Build(data.base, params);
    if (!built.ok()) return static_cast<CagraIndex*>(nullptr);
    auto* index = new CagraIndex(std::move(built.value()));
    index->EnablePq();
    return index;
  }();
  if (shard == nullptr) {
    state.SkipWithError("shard build failed");
    return;
  }
  SearchParams params;
  params.k = 10;
  params.precision = Precision::kPq;
  params.rerank = 32;
  params.num_threads = 1;
  params.uniform_seed = true;
  const SearchParams pinned = ResolveBatchShape(params, DeviceSpec{}, 1);
  std::vector<Matrix<float>> requests;
  for (size_t q = 0; q < kRequests; q++) {
    requests.push_back(SliceQueries(data.queries, q, 1));
  }
  KernelCounters work;
  for (auto _ : state) {
    work = KernelCounters{};
    for (const Matrix<float>& request : requests) {
      auto r = Search(*shard, request, pinned);
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(r->neighbors.ids.data());
      work.Add(r->counters);
    }
  }
  state.SetItemsProcessed(state.iterations() * kRequests);
  state.counters["dist_evals"] =
      static_cast<double>(work.distance_computations) / kRequests;
  state.counters["hash_probes"] =
      static_cast<double>(work.hash_probes_device) / kRequests;
}
BENCHMARK(BM_MultiCtaLoneQuery)->Unit(benchmark::kMillisecond);

void BM_NnDescentBuild(benchmark::State& state) {
  const size_t n = state.range(0);
  auto data = GenerateDataset(*FindProfile("DEEP-1M"), n, 1, 5);
  NnDescentStats stats;
  for (auto _ : state) {
    NnDescentParams params;
    params.k = 32;
    benchmark::DoNotOptimize(
        BuildKnnGraphNnDescent(data.base, params, Metric::kL2, &stats));
  }
  state.SetItemsProcessed(state.iterations() * n);
  // The build's work, equal in every repetition (DESIGN.md §2). Not
  // named "iterations", which is google-benchmark's own JSON field.
  state.counters["nn_descent_iters"] = static_cast<double>(stats.iterations);
  state.counters["dist_evals"] =
      static_cast<double>(stats.distance_computations);
  state.counters["sampled_recall"] = stats.sampled_recall;
}
BENCHMARK(BM_NnDescentBuild)
    ->Arg(1000)
    ->Arg(2000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_ExactKnnGraphBuild(benchmark::State& state) {
  const size_t n = state.range(0);
  auto data = GenerateDataset(*FindProfile("DEEP-1M"), n, 1, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactKnnGraph(data.base, 32, Metric::kL2));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExactKnnGraphBuild)->Arg(1000)->Arg(2000)->Unit(benchmark::kMillisecond);

/// TrainPq on 10k DEEP rows with the default parameters: the subspace
/// k-means on the pool, then the encode. Arg 1 adds the OPQ rotation
/// (PCA init and opq_iterations more trainings).
void BM_TrainPq(benchmark::State& state) {
  auto data = GenerateDataset(*FindProfile("DEEP-1M"), 10000, 1, 5);
  PqTrainParams params;
  params.rotate = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(TrainPq(data.base, params));
  }
  state.SetItemsProcessed(state.iterations() * data.base.rows());
}
BENCHMARK(BM_TrainPq)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
