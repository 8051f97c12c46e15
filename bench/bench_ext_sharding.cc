// Extension: multi-GPU sharding (§IV-C2 discussion / §V-E / §V-F).
// Sweeps the shard count, modeling each shard on its own device, and
// compares the barrier schedule (one chunk: every shard finishes the
// whole batch, then one serial merge tail) against the streaming
// pipeline (chunked per-shard searches with the merge overlapped) on
// both the host wall-clock and the modeled device axis. Emits one JSON
// object on stdout — the machine-readable bench-trajectory contract CI
// uploads as an artifact.
#include <algorithm>
#include <cstdio>

#include "bench/common.h"
#include "core/sharded.h"
#include "util/timer.h"

namespace {

using namespace cagra;

struct PathSample {
  double host_seconds = 0.0;
  double modeled_qps = 0.0;
  double recall = 0.0;
  bool error = false;  ///< a rep failed; metrics cover the reps that ran
};

/// Best-of-reps host wall-clock (min filters scheduler noise) plus the
/// modeled metrics of the last successful run. A failing rep marks the
/// sample (emitted in-band in the JSON) but keeps what was measured.
template <typename SearchFn>
PathSample MeasurePath(const bench::Workbench& wb, SearchFn&& search,
                       int reps = 3) {
  PathSample out;
  out.host_seconds = 1e30;
  for (int r = 0; r < reps; r++) {
    Timer timer;
    auto result = search();
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

    // Barrier schedule: one chunk, so every shard scans the full batch
    // and the whole merge runs as a serial tail.
    SearchParams one_chunk = sp;
    one_chunk.shard_chunk_queries = wb.data.queries.rows();
    const PathSample barrier = MeasurePath(
        wb, [&] { return index->Search(wb.data.queries, one_chunk); });

    // Streaming pipeline at the auto chunk size.
    const PathSample streaming =
        MeasurePath(wb, [&] { return index->Search(wb.data.queries, sp); });

    if (!first) std::printf(",\n");
    first = false;
    std::printf("    {\"shards\": %zu, \"build_seconds\": %.3f, "
                "\"error\": %s,\n",
                shards, stats.total_seconds,
                barrier.error || streaming.error ? "true" : "false");
    std::printf("     \"barrier\": {\"host_seconds\": %.4f, "
                "\"modeled_qps\": %.4e, \"recall_at_10\": %.4f},\n",
                barrier.host_seconds, barrier.modeled_qps, barrier.recall);
    std::printf("     \"streaming\": {\"host_seconds\": %.4f, "
                "\"modeled_qps\": %.4e, \"recall_at_10\": %.4f,\n",
                streaming.host_seconds, streaming.modeled_qps,
                streaming.recall);
    std::printf("                   \"host_speedup_vs_barrier\": %.3f, "
                "\"modeled_speedup_vs_barrier\": %.3f}}",
                streaming.host_seconds > 0
                    ? barrier.host_seconds / streaming.host_seconds
                    : 0.0,
                barrier.modeled_qps > 0
                    ? streaming.modeled_qps / barrier.modeled_qps
                    : 0.0);
  }
  std::printf("\n  ],\n");
  std::printf(
      "  \"notes\": \"recall holds across shard counts (every shard is "
      "searched at full breadth); streaming overlaps the host merge with "
      "still-running chunk scans, so its modeled time drops the full-batch "
      "merge tail to the final chunk's\"\n");
  std::printf("}\n");
  return 0;
}
