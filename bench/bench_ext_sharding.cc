// Extension: multi-GPU sharding (§IV-C2 discussion / §V-E / §V-F).
// Sweeps the shard count, modeling each shard on its own device: every
// shard searches the whole batch, then the host merges the per-shard
// top-k lists. Reports the build time, the host wall-clock and modeled
// device throughput of the search, and recall per shard count. Emits
// one JSON object on stdout — the machine-readable bench-trajectory
// contract CI uploads as an artifact.
#include <algorithm>
#include <cstdio>

#include "bench/common.h"
#include "core/sharded.h"
#include "util/timer.h"

namespace {

using namespace cagra;

struct Sample {
  double host_seconds = 0.0;
  double modeled_qps = 0.0;
  double recall = 0.0;
  bool error = false;  ///< a rep failed; metrics cover the reps that ran
};

/// Best-of-reps host wall-clock (min filters scheduler noise) plus the
/// modeled metrics of the last successful run. A failing rep marks the
/// sample (emitted in-band in the JSON) but keeps what was measured.
Sample Measure(const bench::Workbench& wb, const ShardedCagraIndex& index,
               const SearchParams& sp, int reps = 3) {
  Sample out;
  out.host_seconds = 1e30;
  for (int r = 0; r < reps; r++) {
    Timer timer;
    auto result = index.Search(wb.data.queries, sp);
    const double host = timer.Seconds();
    if (!result.ok()) {
      std::fprintf(stderr, "search failed: %s\n",
                   result.status().ToString().c_str());
      out.error = true;
      continue;
    }
    out.host_seconds = std::min(out.host_seconds, host);
    out.modeled_qps =
        result->modeled_seconds > 0
            ? static_cast<double>(wb.data.queries.rows()) /
                  result->modeled_seconds
            : 0.0;
    out.recall = ComputeRecall(result->neighbors, bench::GtAtK(wb, 10));
  }
  if (out.host_seconds >= 1e30) out.host_seconds = 0.0;  // nothing succeeded
  return out;
}

}  // namespace

int main() {
  const auto wb = bench::MakeWorkbench("DEEP-1M", 300, 10, 16000);

  std::printf("{\n");
  std::printf("  \"bench\": \"ext_sharding\",\n");
  std::printf("  \"dataset\": \"DEEP-1M\",\n");
  std::printf("  \"rows\": %zu,\n", wb.data.base.rows());
  std::printf("  \"queries\": %zu,\n", wb.data.queries.rows());
  std::printf("  \"itopk\": 64,\n");
  std::printf("  \"configs\": [\n");

  const size_t shard_counts[] = {1, 2, 4, 8};
  bool first = true;
  for (size_t shards : shard_counts) {
    BuildParams bp;
    bp.graph_degree = wb.profile->cagra_degree;
    bp.metric = wb.profile->metric;
    ShardedBuildStats stats;
    auto index = ShardedCagraIndex::Build(wb.data.base, bp, shards, &stats);
    if (!index.ok()) continue;

    SearchParams sp;
    sp.k = 10;
    sp.itopk = 64;
    sp.algo = SearchAlgo::kSingleCta;
    const Sample sample = Measure(wb, *index, sp);

    if (!first) std::printf(",\n");
    first = false;
    std::printf("    {\"shards\": %zu, \"build_seconds\": %.3f, "
                "\"host_seconds\": %.4f, \"modeled_qps\": %.4e, "
                "\"recall_at_10\": %.4f, \"error\": %s}",
                shards, stats.total_seconds, sample.host_seconds,
                sample.modeled_qps, sample.recall,
                sample.error ? "true" : "false");
  }
  std::printf("\n  ],\n");
  std::printf(
      "  \"notes\": \"recall holds across shard counts (every shard is "
      "searched at full breadth); modeled time is the slowest shard plus "
      "the host merge of every (query, shard) list\"\n");
  std::printf("}\n");
  return 0;
}
