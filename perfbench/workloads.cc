#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <optional>
#include <thread>

#include <malloc.h>

#include "core/optimize.h"
#include "dataset/pq.h"
#include "dataset/profile.h"
#include "dataset/recall.h"
#include "dataset/synthetic.h"
#include "distance/distance.h"
#include "knn/bruteforce.h"
#include "knn/nn_descent.h"
#include "serving/serving.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using cagra::CagraIndex;
using cagra::Matrix;
using cagra::NeighborList;
using cagra::SearchParams;
using cagra::SearchResult;

constexpr size_t kK = 10;
constexpr uint32_t kPad = 0xffffffffu;
/// batch_deep's itopk: lands recall@10 in the paper's 0.90-0.95 band.
constexpr size_t kBatchItopk = 32;
/// online_pq's index and serving shape.
constexpr size_t kPqShards = 2;
constexpr size_t kPqRerank = 32;
constexpr size_t kPqWorkers = 4;
/// churn's Search calls per round. A background compaction pass publishes
/// only if no write lands while it runs, so the reads between two writes
/// must outlast a pass (~0.1 s at 20k rows on a 4-vCPU host).
constexpr size_t kChurnSearchCalls = 18;
/// churn's itopk, the default: at 32, recall@10 after the schedule fell
/// to ~0.7.
constexpr size_t kChurnItopk = 64;
/// churn's rounds per second of --seconds. The schedule is fixed by the
/// run length, not the clock, so every commit does the same writes; about
/// half the rows are replaced, one compaction pass lands per run.
constexpr double kChurnRoundsPerS = 1.5;
/// Recall@10 floors of the output check: below every run measured on the
/// workload's seeds, so they catch a broken search or write path; the
/// recall_at_10 metric's bound catches gradual loss.
constexpr double kBatchRecallFloor = 0.80;
constexpr double kPqRecallFloor = 0.85;
constexpr double kChurnRecallFloor = 0.70;
/// Cap on repeated failure messages of one check.
constexpr size_t kMaxFailures = 8;

double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Linear-interpolated percentile (p in [0, 100]) of `v`.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : Sum(v) / static_cast<double>(v.size());
}

/// Peak resident set size (the kernel's VmHWM) in MB since the process
/// started or since the last ResetPeakRss().
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  return 0;
}

/// Starts a new peak-RSS window: hands freed heap pages back to the kernel,
/// then sets VmHWM to the current RSS. peak_rss_mb is the larger of the
/// first set-up's peak and the measured phase's, so it leaves out the
/// benchmark's repeated set-ups and its ground truth: the repeats' freed
/// memory stayed in the allocator's per-thread arenas and raised the exit
/// VmHWM of online_pq by 20-30 MB, by a different amount in each run.
void ResetPeakRss(Report* r) {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  if (!clear_refs.good()) {
    r->notes.push_back("could not reset VmHWM: peak_rss_mb covers the whole run");
  }
}

const cagra::DatasetProfile& Deep() { return *cagra::FindProfile("DEEP-1M"); }

/// How a result row must be ordered. CagraIndex search documents rows
/// sorted by ascending distance, with equal distances in no set order;
/// the shard merge documents (distance, id) order.
enum class Order { kDistance, kDistanceThenId };

/// Checks one result row: ordered per `order`, no repeated id, and every
/// id accepted by `valid`. Returns an empty string when it holds.
template <typename Valid>
std::string CheckRow(const uint32_t* ids, const float* dist, size_t k,
                     Order order, const Valid& valid) {
  for (size_t j = 0; j < k; j++) {
    if (ids[j] == kPad || !valid(ids[j])) {
      return "id " + std::to_string(ids[j]) + " is not in the index";
    }
    if (j > 0 && (dist[j] < dist[j - 1] ||
                  (order == Order::kDistanceThenId && dist[j] == dist[j - 1] &&
                   ids[j] < ids[j - 1]))) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), ": (%.9g, %u) after (%.9g, %u)", dist[j],
                    ids[j], dist[j - 1], ids[j - 1]);
      return "row out of order at rank " + std::to_string(j) + buf;
    }
    for (size_t i = 0; i < j; i++) {
      if (ids[i] == ids[j]) return "id " + std::to_string(ids[j]) + " repeats";
    }
  }
  return "";
}

template <typename Valid>
void CheckRows(const NeighborList& nl, const Valid& valid,
               const std::string& where, Report* report) {
  size_t shown = 0;
  for (size_t q = 0; q < nl.num_queries(); q++) {
    const std::string bad =
        CheckRow(nl.Row(q), nl.distances.data() + q * nl.k, nl.k,
                 Order::kDistance, valid);
    if (!bad.empty() && shown++ < kMaxFailures) {
      report->Fail(where + ", query " + std::to_string(q) + ": " + bad);
    }
  }
}

double RecallAgainst(const NeighborList& found, const NeighborList& exact) {
  Matrix<uint32_t> gt(exact.num_queries(), exact.k);
  std::copy(exact.ids.begin(), exact.ids.end(), gt.mutable_data()->begin());
  return cagra::ComputeRecall(found, gt);
}

/// Host ns per fp32 element of ComputeDistanceGather over random rows of
/// `base`, 64 ids per call as in one graph expansion; median of 5 trials.
double Fp32GatherNsPerElem(const Matrix<float>& base,
                           const Matrix<float>& queries, uint64_t seed) {
  constexpr size_t kIds = 64;
  cagra::Pcg32 rng(seed, 0xd15);
  const size_t calls = std::min<size_t>(queries.rows(), 2000);
  std::vector<uint32_t> ids(calls * kIds);
  for (auto& id : ids) id = rng.NextBounded(static_cast<uint32_t>(base.rows()));
  std::vector<float> out(kIds);
  std::vector<double> trials;
  for (int t = 0; t < 5; t++) {
    const auto t0 = Clock::now();
    for (size_t c = 0; c < calls; c++) {
      cagra::ComputeDistanceGather(cagra::Metric::kL2, queries.Row(c),
                                   base.data().data(), base.dim(),
                                   ids.data() + c * kIds, kIds, out.data());
    }
    trials.push_back(Us(Clock::now() - t0) * 1e3 /
                     static_cast<double>(calls * kIds * base.dim()));
  }
  return Median(trials);
}

/// Accumulates the Search calls of a closed loop.
struct SearchTally {
  std::vector<double> call_us;
  cagra::KernelCounters counters;
  double thread_s = 0;
  double modeled_s = 0;

  void Add(const SearchResult& r, double us) {
    call_us.push_back(us);
    counters.Add(r.counters);
    thread_s += r.host_seconds * static_cast<double>(r.host_threads);
    modeled_s += r.modeled_seconds;
  }
};

void PutSearchLayers(const SearchTally& t, Report* r) {
  const double q = std::max<double>(1, static_cast<double>(t.counters.queries));
  const auto per_query = [&](size_t v) { return static_cast<double>(v) / q; };
  r->per_layer.emplace_back("search.call_p50_us", Median(t.call_us));
  r->per_layer.emplace_back("search.call_p99_us", Percentile(t.call_us, 99));
  r->per_layer.emplace_back("search.dist_evals_per_query",
                            per_query(t.counters.distance_computations));
  r->per_layer.emplace_back("search.iters_per_query",
                            per_query(t.counters.iterations));
  r->per_layer.emplace_back(
      "search.hash_probes_per_query",
      per_query(t.counters.hash_probes_shared + t.counters.hash_probes_device));
  r->per_layer.emplace_back("search.sort_exchanges_per_query",
                            per_query(t.counters.sort_exchanges));
  r->per_layer.emplace_back("modeled.qps",
                            t.modeled_s > 0 ? q / t.modeled_s : 0);
}

/// Median over spans named `parent` of the summed durations (s) of their
/// direct children named `child`.
double MedianChildSumS(const Tracer& tr, const std::string& parent,
                       const std::string& child) {
  const auto& spans = tr.spans();
  std::vector<double> sums;
  for (size_t p = 0; p < spans.size(); p++) {
    if (spans[p].name != parent) continue;
    double s = 0;
    for (size_t c = 0; c < spans.size(); c++) {
      if (spans[c].parent == static_cast<int>(p) && spans[c].name == child) {
        s += tr.DurationUs(static_cast<int>(c)) / 1e6;
      }
    }
    sums.push_back(s);
  }
  return Median(sums);
}

void PutBuildLayers(const Tracer& tr, const std::string& parent,
                    const cagra::NnDescentStats& knn, Report* r) {
  r->per_layer.emplace_back("knn.nn_descent_s",
                            MedianChildSumS(tr, parent, "knn.nn_descent"));
  r->per_layer.emplace_back("knn.nn_descent_iters",
                            static_cast<double>(knn.iterations));
  r->per_layer.emplace_back("knn.nn_descent_dist_evals",
                            static_cast<double>(knn.distance_computations));
  r->per_layer.emplace_back("optimize.prune_s",
                            MedianChildSumS(tr, parent, "optimize.prune"));
  r->per_layer.emplace_back("optimize.reverse_s",
                            MedianChildSumS(tr, parent, "optimize.reverse"));
  r->per_layer.emplace_back("optimize.merge_s",
                            MedianChildSumS(tr, parent, "optimize.merge"));
}

/// Every per-layer metric a workload does not exercise is reported as
/// zero work: those layers did nothing on it.
void ZeroMissingLayers(Report* r) {
  static const char* const kAll[] = {
      "knn.nn_descent_s",        "knn.nn_descent_iters",
      "knn.nn_descent_dist_evals", "optimize.prune_s",
      "optimize.reverse_s",      "optimize.merge_s",
      "dataset.pq_train_s",      "search.call_p50_us",
      "search.call_p99_us",      "search.dist_evals_per_query",
      "search.iters_per_query",  "search.hash_probes_per_query",
      "search.sort_exchanges_per_query", "distance.fp32_ns_per_elem",
      "distance.share_of_search", "distance.adc_table_us",
      "distance.adc_ns_per_row", "distance.rerank_us",
      "serving.request_p99_us",  "serving.queue_p50_us",
      "serving.queue_p99_us",    "serving.search_p50_us",
      "serving.search_p99_us",   "serving.batch_rows_mean",
      "serving.shed",            "serving.failed",
      "sharded.shard_search_us", "sharded.merge_us",
      "sharded.overhead_us",     "index.add_us_per_row",
      "index.remove_us",         "index.dead_frac",
      "index.compactions",       "modeled.qps"};
  for (const char* name : kAll) {
    const bool present =
        std::any_of(r->per_layer.begin(), r->per_layer.end(),
                    [&](const auto& kv) { return kv.first == name; });
    if (!present) r->per_layer.emplace_back(name, 0.0);
  }
}

/// What a workload's set-up cost: the median time over its repeats, and
/// the peak RSS of the first one, which starts from a fresh process.
struct SetupCost {
  double seconds = 0;
  double first_peak_mb = 0;
};

/// Builds the workload index `reps` times (the last one is kept). Traced
/// runs build in stages.
std::optional<CagraIndex> SetupIndex(const Matrix<float>& base,
                                     const cagra::BuildParams& params,
                                     size_t reps, Tracer* tracer,
                                     cagra::NnDescentStats* knn,
                                     SetupCost* cost, Report* report) {
  std::optional<CagraIndex> index;
  std::vector<double> times;
  for (size_t rep = 0; rep < reps; rep++) {
    index.reset();
    ScopedSpan span(tracer, "setup");
    const auto t0 = Clock::now();
    auto built = tracer->enabled()
                     ? BuildInStages(base, params, tracer, span.id(), knn)
                     : CagraIndex::Build(base, params);
    times.push_back(Us(Clock::now() - t0) / 1e6);
    if (!built.ok()) {
      report->Fail("build: " + built.status().ToString());
      return std::nullopt;
    }
    index.emplace(std::move(built.value()));
    if (rep == 0) cost->first_peak_mb = PeakRssMb();
  }
  cost->seconds = Median(times);
  return index;
}

/// Closed-loop end-to-end metrics shared by batch_deep and churn. `qps`
/// is every query answered over the measured phase's wall time `phase_us`;
/// `p50_us` is the median Search call, which every query of the call waits
/// for.
void PutClosedLoopMetrics(const std::vector<double>& call_us,
                          size_t queries_per_call, double phase_us, Report* r) {
  const double queries =
      static_cast<double>(call_us.size() * queries_per_call);
  r->end_to_end.emplace_back("qps", queries / (phase_us / 1e6));
  r->end_to_end.emplace_back("p50_us", Median(call_us));
  r->notes.push_back("closed loop: " + std::to_string(call_us.size()) +
                     " Search calls of " + std::to_string(queries_per_call) +
                     " queries");
}

}  // namespace

cagra::BuildParams IndexParams(uint64_t seed) {
  cagra::BuildParams p;
  // Degree 16 (d_init 32) instead of the DEEP profile's 32: NN-descent
  // cost grows with d_init^2, and a run repeats its setup three times.
  p.graph_degree = 16;
  p.metric = cagra::Metric::kL2;
  p.seed = seed;
  return p;
}

cagra::Result<CagraIndex> BuildInStages(const Matrix<float>& rows,
                                        const cagra::BuildParams& params,
                                        Tracer* tracer, int parent,
                                        cagra::NnDescentStats* knn_stats) {
  // Mirrors CagraIndex::Build (core/index.cc) step for step; the
  // benchmark's test pins the resulting graph to Build's.
  cagra::NnDescentParams nnd;
  nnd.k = params.intermediate_degree != 0 ? params.intermediate_degree
                                          : 2 * params.graph_degree;
  if (nnd.k >= rows.rows()) nnd.k = rows.rows() - 1;
  nnd.sample_rate = params.nn_descent_sample_rate;
  nnd.max_iterations = params.nn_descent_max_iterations;
  nnd.termination_delta = params.nn_descent_termination_delta;
  nnd.seed = params.seed;

  cagra::FixedDegreeGraph initial;
  {
    ScopedSpan s(tracer, "knn.nn_descent", parent);
    initial = cagra::BuildKnnGraphNnDescent(rows, nnd, params.metric, knn_stats);
  }
  const size_t degree = std::min(params.graph_degree, initial.degree());
  cagra::FixedDegreeGraph pruned;
  {
    ScopedSpan s(tracer, "optimize.prune", parent);
    pruned = cagra::ReorderAndPrune(initial, degree, params.reorder, rows,
                                    params.metric);
  }
  cagra::AdjacencyGraph reversed;
  {
    ScopedSpan s(tracer, "optimize.reverse", parent);
    reversed = cagra::BuildReverseGraph(pruned);
  }
  cagra::FixedDegreeGraph merged;
  {
    ScopedSpan s(tracer, "optimize.merge", parent);
    merged = cagra::MergeGraphs(pruned, reversed, params.forward_fraction);
  }
  ScopedSpan s(tracer, "index.from_graph", parent);
  return CagraIndex::FromGraph(rows, std::move(merged), params.metric);
}

SearchParams PinnedRequestParams(const SearchParams& params) {
  SearchParams p = params;
  p.uniform_seed = true;
  return cagra::ResolveBatchShape(p, cagra::DeviceSpec{}, 1);
}

cagra::Result<ReplayResult> ReplayShardedRequest(
    const cagra::ShardedCagraIndex& index, const Matrix<float>& query,
    const SearchParams& pinned, Tracer* tracer, int parent, int64_t request) {
  const size_t n = index.num_shards();
  std::vector<SearchResult> shard_results;
  std::vector<std::vector<uint32_t>> id_maps(n);
  std::vector<cagra::ShardMergeList> lists(n);
  ReplayResult out;
  for (size_t s = 0; s < n; s++) {
    ScopedSpan span(tracer, "sharded.shard_search", parent, request);
    auto r = cagra::Search(index.shard(s), query, pinned);
    if (!r.ok()) return r.status();
    shard_results.push_back(std::move(r.value()));
  }
  for (size_t s = 0; s < n; s++) {
    // Round-robin layout: shard s's local row i is global row i * n + s.
    const SearchResult& r = shard_results[s];
    id_maps[s].resize(index.shard(s).size());
    for (size_t i = 0; i < id_maps[s].size(); i++) {
      id_maps[s][i] = static_cast<uint32_t>(i * n + s);
    }
    lists[s] = cagra::ShardMergeList{r.neighbors.distances.data(),
                                     r.neighbors.ids.data(), r.neighbors.k,
                                     id_maps[s].data(), id_maps[s].size()};
    out.counters.Add(r.counters);
    out.search_thread_s += r.host_seconds * static_cast<double>(r.host_threads);
  }
  out.ids.resize(pinned.k);
  out.distances.resize(pinned.k);
  ScopedSpan span(tracer, "sharded.merge", parent, request);
  cagra::MergeShardTopK(lists.data(), n, pinned.k, out.ids.data(),
                        out.distances.data());
  return out;
}

// ---------------------------------------------------------------------------
// batch_deep: offline large-batch fp32 search (paper Fig. 13 regime).
// ---------------------------------------------------------------------------
Report RunBatchDeep(const RunOptions& o, Tracer* tracer) {
  Report r;
  const Shape& sh = o.shape;
  const cagra::SyntheticData data =
      cagra::GenerateDataset(Deep(), sh.batch_rows, sh.batch_queries, o.seed);
  cagra::NnDescentStats knn;
  SetupCost setup;
  auto index = SetupIndex(data.base, IndexParams(o.seed), sh.setup_reps,
                          tracer, &knn, &setup, &r);
  if (!index) return r;
  const Matrix<uint32_t> gt = cagra::ComputeGroundTruth(
      data.base, data.queries, kK, cagra::Metric::kL2);
  ResetPeakRss(&r);

  SearchParams sp;
  sp.k = kK;
  sp.itopk = kBatchItopk;
  const auto valid = [&](uint32_t id) { return id < sh.batch_rows; };

  // Warm-up call: fills the pool's per-worker scratch. Its result is the
  // reference every measured call must reproduce.
  auto first = cagra::Search(*index, data.queries, sp);
  if (!first.ok()) {
    r.Fail("search: " + first.status().ToString());
    return r;
  }
  const NeighborList reference = first->neighbors;
  CheckRows(reference, valid, "batch_deep search", &r);
  const double recall = cagra::ComputeRecall(reference, gt);
  if (recall < kBatchRecallFloor) {
    r.Fail("batch_deep recall@10 " + std::to_string(recall) + " below floor");
  }

  SearchTally tally;
  const auto phase_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(o.seconds));
  while (Clock::now() < phase_end || tally.call_us.size() < 3) {
    r.attempted++;
    ScopedSpan span(tracer, "search", -1);
    const auto t0 = Clock::now();
    auto res = cagra::Search(*index, data.queries, sp);
    const double us = Us(Clock::now() - t0);
    if (!res.ok()) {
      r.failed++;
      r.Fail("batch_deep search: " + res.status().ToString());
      break;
    }
    tally.Add(*res, us);
    if (res->neighbors.ids != reference.ids ||
        res->neighbors.distances != reference.distances) {
      r.Fail("batch_deep: a repeated Search call returned different results");
      break;
    }
  }

  r.end_to_end.emplace_back("setup_s", setup.seconds);
  PutClosedLoopMetrics(tally.call_us, sh.batch_queries, Sum(tally.call_us), &r);
  r.end_to_end.emplace_back("recall_at_10", recall);
  r.end_to_end.emplace_back("peak_rss_mb",
                            std::max(setup.first_peak_mb, PeakRssMb()));

  if (tracer->enabled()) {
    PutBuildLayers(*tracer, "setup", knn, &r);
    PutSearchLayers(tally, &r);
    const double ns_elem =
        Fp32GatherNsPerElem(data.base, data.queries, o.seed);
    r.per_layer.emplace_back("distance.fp32_ns_per_elem", ns_elem);
    r.per_layer.emplace_back(
        "distance.share_of_search",
        ns_elem * static_cast<double>(tally.counters.distance_elements) /
            (tally.thread_s * 1e9));
    ZeroMissingLayers(&r);
  }
  return r;
}

// ---------------------------------------------------------------------------
// online_pq: single-query requests through the serving scheduler over a
// 2-shard PQ index with exact fp32 rerank (paper Fig. 14 regime). Two
// closed-loop phases against one scheduler, half of --seconds each; a
// client sends its next request when the last one is answered.
//  - latency: one client, so every request finds the scheduler idle and
//    p50_us is the collect window plus the search, with no wait behind
//    other requests;
//  - throughput: kPqLoadClients clients keep every worker's next
//    micro-batch queued while it searches, so qps is the served capacity.
// ---------------------------------------------------------------------------
namespace {

/// Where served throughput levels off: on one seed on a 4-vCPU host, 4, 8,
/// 16 and 32 clients were answered at 434, 670-683, 728-792 and 805 req/s.
constexpr size_t kPqLoadClients = 16;

struct Served {
  size_t query;
  Clock::time_point sent;
  double latency_us;  ///< Submit -> response ready, seen by the caller
  cagra::Result<cagra::QueryResponse> response;
};

/// Runs the closed loop with `num_clients` clients for `seconds`; client c
/// asks queries c, c + C, ...
std::vector<Served> ServeClosedLoop(cagra::ServingScheduler* sched,
                                    const Matrix<float>& queries,
                                    size_t num_clients, double seconds) {
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  std::vector<std::vector<Served>> per_client(num_clients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < num_clients; c++) {
    clients.emplace_back([&, c] {
      for (size_t q = c; Clock::now() < end; q += num_clients) {
        const size_t row = q % queries.rows();
        const auto t0 = Clock::now();
        auto response = sched->Submit(queries.Row(row), kK).get();
        per_client[c].push_back(
            Served{row, t0, Us(Clock::now() - t0), std::move(response)});
      }
    });
  }
  for (std::thread& t : clients) t.join();
  std::vector<Served> all;
  for (auto& v : per_client) {
    for (Served& s : v) all.push_back(std::move(s));
  }
  return all;
}

}  // namespace

Report RunOnlinePq(const RunOptions& o, Tracer* tracer) {
  Report r;
  const Shape& sh = o.shape;
  const cagra::SyntheticData data =
      cagra::GenerateDataset(Deep(), sh.pq_rows, sh.pq_queries, o.seed);
  const cagra::BuildParams params = IndexParams(o.seed);

  std::optional<cagra::ShardedCagraIndex> index;
  std::vector<double> setup_times;
  SetupCost setup;
  for (size_t rep = 0; rep < sh.setup_reps; rep++) {
    index.reset();
    ScopedSpan span(tracer, "setup");
    const auto t0 = Clock::now();
    auto built = [&] {
      ScopedSpan b(tracer, "sharded.build", span.id());
      return cagra::ShardedCagraIndex::Build(data.base, params, kPqShards);
    }();
    if (!built.ok()) {
      r.Fail("sharded build: " + built.status().ToString());
      return r;
    }
    {
      ScopedSpan p(tracer, "dataset.enable_pq", span.id());
      built->EnablePq();
    }
    setup_times.push_back(Us(Clock::now() - t0) / 1e6);
    index.emplace(std::move(built.value()));
    if (rep == 0) setup.first_peak_mb = PeakRssMb();
  }
  setup.seconds = Median(setup_times);
  const Matrix<uint32_t> gt = cagra::ComputeGroundTruth(
      data.base, data.queries, kK, cagra::Metric::kL2);
  ResetPeakRss(&r);

  cagra::ServingOptions opts;
  opts.params.k = kK;
  opts.params.precision = cagra::Precision::kPq;
  opts.params.rerank = kPqRerank;
  // One scheduler worker per vCPU of a 4-vCPU host, each running its
  // micro-batches serially. Through the global pool instead, served
  // throughput varied by up to 1.5x between identical runs on such a VM.
  opts.params.num_threads = 1;
  opts.num_workers = kPqWorkers;

  cagra::ServingScheduler sched(*index, opts);
  // Warm-up, not measured.
  ServeClosedLoop(&sched, data.queries, kPqLoadClients, 1.0);
  std::vector<Served> served =
      ServeClosedLoop(&sched, data.queries, 1, o.seconds / 2);
  const size_t latency_phase = served.size();
  const cagra::ServingStats before = sched.Snapshot();
  const auto t0 = Clock::now();
  std::vector<Served> load =
      ServeClosedLoop(&sched, data.queries, kPqLoadClients, o.seconds / 2);
  const double load_s = Us(Clock::now() - t0) / 1e6;
  const cagra::ServingStats after = sched.Snapshot();
  sched.Shutdown();
  for (Served& s : load) served.push_back(std::move(s));

  // Output checks over both phases; the latency splits come from the
  // latency phase, the throughput from the other.
  const uint32_t rows = static_cast<uint32_t>(sh.pq_rows);
  std::vector<double> latency_us, queue_us, search_us;
  size_t load_answered = 0;
  size_t hits = 0;
  size_t shown = 0;
  for (size_t i = 0; i < served.size(); i++) {
    const Served& s = served[i];
    r.attempted++;
    if (!s.response.ok()) {
      r.failed++;
      if (shown++ < kMaxFailures) {
        r.Fail("online_pq request: " + s.response.status().ToString());
      }
      continue;
    }
    const cagra::QueryResponse& resp = *s.response;
    if (i < latency_phase) {
      latency_us.push_back(s.latency_us);
      queue_us.push_back(resp.queue_us);
      search_us.push_back(resp.search_us);
    } else {
      load_answered++;
    }
    if (tracer->enabled()) {
      // One request's spans share its id; the serving split comes from
      // the response's own queue/search times.
      const int64_t id = static_cast<int64_t>(r.attempted);
      const int64_t sent = tracer->ToNs(s.sent);
      const int64_t queued = sent + static_cast<int64_t>(resp.queue_us * 1e3);
      const int req = tracer->Add(
          "online.request", sent,
          sent + static_cast<int64_t>(s.latency_us * 1e3), -1, id);
      tracer->Add("serving.queue", sent, queued, req, id);
      tracer->Add("serving.search", queued,
                  queued + static_cast<int64_t>(resp.search_us * 1e3), req, id);
    }
    if (resp.ids.size() != kK || !resp.complete) {
      if (shown++ < kMaxFailures) r.Fail("online_pq: short or partial response");
      continue;
    }
    const std::string bad =
        CheckRow(resp.ids.data(), resp.distances.data(), kK,
                 Order::kDistanceThenId, [&](uint32_t id) { return id < rows; });
    if (!bad.empty() && shown++ < kMaxFailures) r.Fail("online_pq: " + bad);
    const uint32_t* truth = gt.Row(s.query);
    for (uint32_t id : resp.ids) {
      hits += static_cast<size_t>(std::count(truth, truth + kK, id));
    }
  }
  const double answered =
      static_cast<double>(latency_us.size() + load_answered);
  const double recall = answered == 0 ? 0 : static_cast<double>(hits) / (answered * kK);
  if (recall < kPqRecallFloor) {
    r.Fail("online_pq recall@10 " + std::to_string(recall) + " below floor");
  }
  r.notes.push_back("latency phase: 1 client, " +
                    std::to_string(latency_us.size()) + " samples; throughput " +
                    "phase: " + std::to_string(kPqLoadClients) + " clients, " +
                    std::to_string(load_answered) + " answered");

  r.end_to_end.emplace_back("setup_s", setup.seconds);
  r.end_to_end.emplace_back("qps", static_cast<double>(load_answered) / load_s);
  r.end_to_end.emplace_back("p50_us", Median(latency_us));
  r.end_to_end.emplace_back("recall_at_10", recall);
  r.end_to_end.emplace_back("peak_rss_mb",
                            std::max(setup.first_peak_mb, PeakRssMb()));

  if (!tracer->enabled()) return r;

  // Layer timings of the setup: each shard's rows through the build
  // stages (round-robin split, as ShardedCagraIndex::Build does), plus
  // PQ training; the staged graphs must equal the served shards'.
  cagra::NnDescentStats knn_total;
  {
    ScopedSpan staged(tracer, "setup.staged");
    for (size_t s = 0; s < kPqShards; s++) {
      Matrix<float> shard_rows((sh.pq_rows - s + kPqShards - 1) / kPqShards,
                               data.base.dim());
      for (size_t i = s, l = 0; i < sh.pq_rows; i += kPqShards, l++) {
        std::copy(data.base.Row(i), data.base.Row(i) + data.base.dim(),
                  shard_rows.MutableRow(l));
      }
      cagra::NnDescentStats knn;
      auto staged_index =
          BuildInStages(shard_rows, params, tracer, staged.id(), &knn);
      knn_total.iterations += knn.iterations;
      knn_total.distance_computations += knn.distance_computations;
      if (!staged_index.ok() ||
          staged_index->snapshot()->GraphRef().edges() !=
              index->shard(s).snapshot()->GraphRef().edges()) {
        r.Fail("online_pq: staged build of shard " + std::to_string(s) +
               " differs from ShardedCagraIndex::Build");
      }
    }
  }
  PutBuildLayers(*tracer, "setup.staged", knn_total, &r);
  r.per_layer.emplace_back("dataset.pq_train_s",
                           MedianChildSumS(*tracer, "setup", "dataset.enable_pq"));

  // Replay a sample of the requests layer by layer and check it
  // reproduces the composed ShardedCagraIndex::Search exactly.
  const SearchParams pinned = PinnedRequestParams(opts.params);
  SearchTally tally;
  std::vector<double> shard_us, merge_us, overhead_us;
  const size_t replays = std::min(sh.pq_replay, data.queries.rows());
  for (size_t j = 0; j < replays; j++) {
    const Matrix<float> q = cagra::SliceQueries(data.queries, j, 1);
    const int64_t id = static_cast<int64_t>(served.size() + 1 + j);
    ScopedSpan req(tracer, "replay.request", -1, id);
    auto replay = ReplayShardedRequest(*index, q, pinned, tracer, req.id(), id);
    cagra::Result<SearchResult> composed = [&] {
      ScopedSpan c(tracer, "sharded.search", req.id(), id);
      return index->Search(q, pinned);
    }();
    if (!replay.ok() || !composed.ok() ||
        replay->ids != composed->neighbors.ids ||
        replay->distances != composed->neighbors.distances) {
      if (shown++ < kMaxFailures) {
        r.Fail("online_pq: shard replay differs from ShardedCagraIndex::Search");
      }
      continue;
    }
    tally.counters.Add(replay->counters);
    tally.thread_s += replay->search_thread_s;
    tally.modeled_s += composed->modeled_seconds;
  }
  // Per-request spans: shard searches, merge and the composed call. The
  // served params run the pipeline inline (num_threads = 1), so the shard
  // searches run one after another and the composed call pays their sum.
  const auto& spans = tracer->spans();
  for (size_t i = 0; i < spans.size(); i++) {
    if (spans[i].name != "replay.request") continue;
    double shards = 0, merge = 0, composed = 0;
    for (size_t c = i + 1;
         c < spans.size() && spans[c].parent == static_cast<int>(i); c++) {
      const double d = tracer->DurationUs(static_cast<int>(c));
      if (spans[c].name == "sharded.shard_search") {
        shards += d;
        shard_us.push_back(d);
      } else if (spans[c].name == "sharded.merge") {
        merge = d;
      } else if (spans[c].name == "sharded.search") {
        composed = d;
      }
    }
    merge_us.push_back(merge);
    overhead_us.push_back(composed - shards - merge);
  }
  tally.call_us = shard_us;
  PutSearchLayers(tally, &r);
  r.per_layer.emplace_back("sharded.shard_search_us", Median(shard_us));
  r.per_layer.emplace_back("sharded.merge_us", Median(merge_us));
  r.per_layer.emplace_back("sharded.overhead_us", Median(overhead_us));

  // Kernel costs on shard 0's own rows.
  const auto snap = index->shard(0).snapshot();
  const Matrix<float>& shard_base = snap->DatasetRef();
  const cagra::PqDataset& pq = snap->PqRef();
  const double ns_elem = Fp32GatherNsPerElem(shard_base, data.queries, o.seed);
  r.per_layer.emplace_back("distance.fp32_ns_per_elem", ns_elem);
  {
    cagra::Pcg32 rng(o.seed, 0xadc);
    constexpr size_t kIds = 64;
    const size_t nq = std::min<size_t>(data.queries.rows(), 1000);
    std::vector<uint32_t> ids(kIds);
    std::vector<float> out(std::max(kIds, kPqRerank));
    std::vector<double> table_us, row_ns, rerank_us;
    cagra::PqAdcTable table;
    for (size_t q = 0; q < nq; q++) {
      const float* query = data.queries.Row(q);
      auto start = Clock::now();
      cagra::BuildAdcTable(pq, query, cagra::Metric::kL2, &table);
      table_us.push_back(Us(Clock::now() - start));
      for (auto& id : ids) id = rng.NextBounded(static_cast<uint32_t>(pq.rows()));
      start = Clock::now();
      cagra::ComputeDistanceAdcGather(table, pq.codes.data().data(), ids.data(),
                                      kIds, out.data());
      row_ns.push_back(Us(Clock::now() - start) * 1e3 / kIds);
      // Rerank: exact fp32 distances of kPqRerank candidate rows.
      start = Clock::now();
      cagra::ComputeDistanceGather(cagra::Metric::kL2, query,
                                   shard_base.data().data(), shard_base.dim(),
                                   ids.data(), std::min(kIds, kPqRerank),
                                   out.data());
      rerank_us.push_back(Us(Clock::now() - start));
    }
    r.per_layer.emplace_back("distance.adc_table_us", Median(table_us));
    r.per_layer.emplace_back("distance.adc_ns_per_row", Median(row_ns));
    r.per_layer.emplace_back("distance.rerank_us", Median(rerank_us));
    // The PQ traversal's distance evaluations are ADC rows.
    r.per_layer.emplace_back(
        "distance.share_of_search",
        Median(row_ns) * static_cast<double>(tally.counters.distance_computations) /
            (tally.thread_s * 1e9));
  }
  r.per_layer.emplace_back("serving.request_p99_us", Percentile(latency_us, 99));
  r.per_layer.emplace_back("serving.queue_p50_us", Median(queue_us));
  r.per_layer.emplace_back("serving.queue_p99_us", Percentile(queue_us, 99));
  r.per_layer.emplace_back("serving.search_p50_us", Median(search_us));
  r.per_layer.emplace_back("serving.search_p99_us", Percentile(search_us, 99));
  r.per_layer.emplace_back(
      "serving.batch_rows_mean",
      static_cast<double>(after.completed - before.completed) /
          static_cast<double>(std::max<size_t>(1, after.batches - before.batches)));
  r.per_layer.emplace_back("serving.shed",
                           static_cast<double>(after.shed - before.shed));
  r.per_layer.emplace_back("serving.failed",
                           static_cast<double>(after.failed - before.failed));
  ZeroMissingLayers(&r);
  return r;
}

// ---------------------------------------------------------------------------
// churn: writes beside reads — rounds of Add, Remove and Search from one
// thread, with background compaction at its defaults.
// ---------------------------------------------------------------------------
Report RunChurn(const RunOptions& o, Tracer* tracer) {
  Report r;
  const Shape& sh = o.shape;
  const size_t rounds = std::max<size_t>(
      3, static_cast<size_t>(std::lround(o.seconds * kChurnRoundsPerS)));
  const size_t fresh = rounds * sh.churn_batch;
  const cagra::SyntheticData data = cagra::GenerateDataset(
      Deep(), sh.churn_rows + fresh, sh.churn_queries, o.seed);
  const Matrix<float> base = cagra::SliceQueries(data.base, 0, sh.churn_rows);
  cagra::NnDescentStats knn;
  SetupCost setup;
  auto index = SetupIndex(base, IndexParams(o.seed), sh.setup_reps, tracer,
                          &knn, &setup, &r);
  if (!index) return r;
  ResetPeakRss(&r);

  SearchParams sp;
  sp.k = kK;
  sp.itopk = kChurnItopk;

  // The benchmark's model of the live set, by external id.
  const size_t total_ids = sh.churn_rows + fresh;
  std::vector<uint8_t> live_flag(total_ids, 0);
  std::vector<uint32_t> live(sh.churn_rows);
  for (uint32_t i = 0; i < sh.churn_rows; i++) {
    live[i] = i;
    live_flag[i] = 1;
  }
  uint32_t next_id = static_cast<uint32_t>(sh.churn_rows);
  const auto valid = [&](uint32_t id) { return id < total_ids && live_flag[id]; };

  if (!cagra::Search(*index, data.queries, sp).ok()) {
    r.Fail("churn: warm-up search failed");
    return r;
  }

  cagra::Pcg32 rng(o.seed, 0xc4u);
  std::vector<double> add_us, remove_us;
  SearchTally tally;
  size_t compactions = 0;
  size_t last_dead = 0;
  std::vector<double> dead_frac;
  for (size_t round = 0; round < rounds; round++) {
    ScopedSpan rs(tracer, "churn.round");
    const Matrix<float> rows =
        cagra::SliceQueries(data.base, sh.churn_rows + round * sh.churn_batch,
                            sh.churn_batch);
    std::vector<uint32_t> ids;
    r.attempted++;
    auto t0 = Clock::now();
    cagra::Status st = [&] {
      ScopedSpan s(tracer, "index.add", rs.id());
      return index->Add(rows, &ids);
    }();
    add_us.push_back(Us(Clock::now() - t0));
    if (!st.ok()) {
      r.failed++;
      r.Fail("churn add: " + st.ToString());
      break;
    }
    for (size_t j = 0; j < ids.size(); j++) {
      if (ids[j] != next_id + j) {
        r.Fail("churn: Add assigned an unexpected id");
        break;
      }
    }
    for (uint32_t id : ids) {
      live_flag[id] = 1;
      live.push_back(id);
    }
    next_id += static_cast<uint32_t>(ids.size());

    std::vector<uint32_t> victims;
    for (size_t j = 0; j < sh.churn_batch; j++) {
      const size_t pick = rng.NextBounded(static_cast<uint32_t>(live.size()));
      victims.push_back(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
    r.attempted++;
    t0 = Clock::now();
    st = [&] {
      ScopedSpan s(tracer, "index.remove", rs.id());
      return index->Remove(victims);
    }();
    remove_us.push_back(Us(Clock::now() - t0));
    if (!st.ok()) {
      r.failed++;
      r.Fail("churn remove: " + st.ToString());
      break;
    }
    for (uint32_t id : victims) live_flag[id] = 0;
    if (index->live_size() != live.size()) {
      r.Fail("churn: live_size() " + std::to_string(index->live_size()) +
             " disagrees with the model's " + std::to_string(live.size()));
    }

    for (size_t call = 0; call < kChurnSearchCalls; call++) {
      r.attempted++;
      t0 = Clock::now();
      auto res = [&] {
        ScopedSpan s(tracer, "search", rs.id());
        return cagra::Search(*index, data.queries, sp);
      }();
      const double us = Us(Clock::now() - t0);
      if (!res.ok()) {
        r.failed++;
        r.Fail("churn search: " + res.status().ToString());
        break;
      }
      tally.Add(*res, us);
      CheckRows(res->neighbors, valid, "churn round " + std::to_string(round),
                &r);
    }
    if (!r.correct()) break;

    const size_t dead = index->tombstone_count();
    if (dead < last_dead) compactions++;
    last_dead = dead;
    dead_frac.push_back(static_cast<double>(dead) /
                        static_cast<double>(index->size()));
  }

  const double phase_peak_mb = PeakRssMb();

  // Recall against exact search over the final snapshot's live rows.
  index->WaitForCompaction();
  const auto snap = index->snapshot();
  double recall = 0;
  auto final_res = cagra::Search(*index, data.queries, sp);
  if (!final_res.ok()) {
    r.Fail("churn final search: " + final_res.status().ToString());
  } else {
    CheckRows(final_res->neighbors, valid, "churn final search", &r);
    recall = RecallAgainst(final_res->neighbors,
                           cagra::ExactSearch(*snap, data.queries, kK));
    if (recall < kChurnRecallFloor) {
      r.Fail("churn recall@10 " + std::to_string(recall) + " below floor");
    }
  }
  if (tally.call_us.empty()) return r;

  // Rounds are timed whole — Add, Remove and the Searches, with whatever
  // background compaction overlaps them — so write cost moves qps too.
  r.end_to_end.emplace_back("setup_s", setup.seconds);
  PutClosedLoopMetrics(tally.call_us, sh.churn_queries,
                       Sum(add_us) + Sum(remove_us) + Sum(tally.call_us), &r);
  r.end_to_end.emplace_back("recall_at_10", recall);
  r.end_to_end.emplace_back("peak_rss_mb",
                            std::max(setup.first_peak_mb, phase_peak_mb));
  r.notes.push_back("churn: " + std::to_string(rounds) + " rounds, " +
                    std::to_string(compactions) + " compactions observed");

  if (tracer->enabled()) {
    PutBuildLayers(*tracer, "setup", knn, &r);
    PutSearchLayers(tally, &r);
    const double ns_elem = Fp32GatherNsPerElem(base, data.queries, o.seed);
    r.per_layer.emplace_back("distance.fp32_ns_per_elem", ns_elem);
    r.per_layer.emplace_back(
        "distance.share_of_search",
        ns_elem * static_cast<double>(tally.counters.distance_elements) /
            (tally.thread_s * 1e9));
    r.per_layer.emplace_back(
        "index.add_us_per_row",
        Sum(add_us) / static_cast<double>(add_us.size() * sh.churn_batch));
    r.per_layer.emplace_back("index.remove_us", Median(remove_us));
    r.per_layer.emplace_back("index.dead_frac", Mean(dead_frac));
    r.per_layer.emplace_back("index.compactions",
                             static_cast<double>(compactions));
    ZeroMissingLayers(&r);
  }
  return r;
}

}  // namespace perfbench
