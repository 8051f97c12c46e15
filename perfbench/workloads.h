// The three benchmark workloads and the layer decompositions their traced
// runs time. Shared by the benchmark binary (perfbench.cc) and the
// benchmark's own test (perfbench_test.cc).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/index.h"
#include "core/search.h"
#include "core/sharded.h"
#include "trace.h"

namespace perfbench {

/// Sizes of the workloads. The defaults are the benchmark's; the test
/// runs the same code on smaller shapes.
struct Shape {
  // batch_deep
  size_t batch_rows = 30000;
  size_t batch_queries = 10000;
  // online_pq
  size_t pq_rows = 20000;
  size_t pq_queries = 2000;
  size_t pq_replay = 200;  ///< requests replayed layer by layer (traced)
  // churn
  size_t churn_rows = 20000;
  size_t churn_batch = 500;     ///< rows added and removed per round
  size_t churn_queries = 1000;  ///< queries per Search call
  // all
  size_t setup_reps = 3;
};

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  Shape shape;
};

/// What a workload run reports. Metric values only; names and units are
/// declared in BENCHMARK.json.
struct Report {
  std::vector<std::string> failures;  ///< output checks that failed
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> end_to_end;
  std::vector<std::pair<std::string, double>> per_layer;
  std::vector<std::string> notes;  ///< informational lines for stdout

  bool correct() const { return failures.empty(); }
  void Fail(const std::string& what) { failures.push_back(what); }
};

/// Runs one workload. With an enabled tracer the run also decomposes
/// its calls layer by layer and fills `per_layer`; `end_to_end` is
/// filled either way.
Report RunBatchDeep(const RunOptions& options, Tracer* tracer);
Report RunOnlinePq(const RunOptions& options, Tracer* tracer);
Report RunChurn(const RunOptions& options, Tracer* tracer);

/// Index build parameters shared by every workload.
cagra::BuildParams IndexParams(uint64_t seed);

/// Builds through the public stages CagraIndex::Build composes —
/// BuildKnnGraphNnDescent, ReorderAndPrune, BuildReverseGraph,
/// MergeGraphs, CagraIndex::FromGraph — with one span per stage under
/// `parent`.
cagra::Result<cagra::CagraIndex> BuildInStages(
    const cagra::Matrix<float>& rows, const cagra::BuildParams& params,
    Tracer* tracer, int parent, cagra::NnDescentStats* knn_stats);

/// The search parameters the serving scheduler applies to one online_pq
/// request: uniform seeding and the batch-of-one shape pinned.
cagra::SearchParams PinnedRequestParams(const cagra::SearchParams& params);

/// One request replayed as a Search on every shard(i) followed by
/// MergeShardTopK — the work ShardedCagraIndex::Search composes.
struct ReplayResult {
  std::vector<uint32_t> ids;
  std::vector<float> distances;
  cagra::KernelCounters counters;  ///< summed over the shards
  double search_thread_s = 0;      ///< summed shard Search thread-seconds
};
cagra::Result<ReplayResult> ReplayShardedRequest(
    const cagra::ShardedCagraIndex& index, const cagra::Matrix<float>& query,
    const cagra::SearchParams& pinned, Tracer* tracer, int parent,
    int64_t request);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
