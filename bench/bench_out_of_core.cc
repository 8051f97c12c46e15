// Out-of-core serving bench: mmap-backed fp32 rerank over RAM-resident
// PQ (the DiskANN-shaped tier behind CagraIndex::LoadOutOfCore). The
// claim under test is the whole point of the tier: the fp32 dataset can
// be several times larger than the process is allowed to keep resident,
// while PQ-guided search with exact-fp32 rerank still clears the
// pinned recall floor.
//
// Method: sweep dataset sizes at 1x / 2x / 4x a configured RSS cap.
// Each point builds + saves an index, frees every resident copy
// (malloc_trim so the allocator actually returns pages), snapshots
// VmRSS from /proc/self/status, reopens the index with LoadOutOfCore,
// runs the PQ+rerank query batch, and charges the VmRSS growth —
// graph + PQ codes + scratch + every mapped page the rerank touched —
// against the cap. The bench exits nonzero if the largest point's
// fp32 bytes are not >= 4x the cap, if its RSS growth exceeds the cap
// (i.e. the tier silently fell back to resident), if the index did not
// actually open out-of-core, or if rerank recall@10 drops below the
// floor. CI runs `bench_out_of_core smoke` and uploads the JSON.
//
// GIST-1M is the profile: at dim 960 an fp32 row is 3840 bytes while
// the resident per-row footprint (degree-16 graph + 96 PQ codes) is
// 160 bytes, so the out-of-core ratio is limited by touched mapped
// pages (~1 page per reranked row), not by the resident structures.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#if defined(__GLIBC__) || defined(__linux__)
#include <malloc.h>
#endif

#include "bench/common.h"
#include "core/index.h"
#include "core/search.h"
#include "dataset/recall.h"

namespace {

using namespace cagra;

/// Current VmRSS in bytes from /proc/self/status (0 if unreadable —
/// non-Linux hosts run the functional sweep without the cap check).
uint64_t ReadVmRssBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "rb");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %lu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb * 1024;
}

/// Returns freed heap pages to the kernel so the post-free VmRSS
/// snapshot reflects what the process actually holds, not what the
/// allocator is caching.
void TrimHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// Evicts `path` from the OS page cache. The build just wrote the whole
/// index file, so without this every page is still cached and the
/// kernel's fault-around maps them into the process wholesale on the
/// first touch — VmRSS would report the warm-cache case instead of the
/// regime the tier exists for (a dataset too big for RAM, where only
/// the pages the rerank actually asks for can be resident).
void EvictFromPageCache(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);  // dirty pages survive DONTNEED; flush them first
  (void)::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
}

struct SweepPoint {
  size_t rows = 0;
  uint64_t fp32_bytes = 0;       ///< the section that lives in the file
  uint64_t resident_bytes = 0;   ///< graph + PQ codes (by-design resident)
  uint64_t rss_before = 0;       ///< after build teardown, before reopen
  uint64_t rss_after = 0;        ///< after the full query sweep
  uint64_t rss_delta = 0;        ///< what the out-of-core tier cost us
  bool out_of_core = false;      ///< loaded->out_of_core() — no fallback
  double recall_pq = 0;          ///< raw PQ, no rerank
  double recall_rerank = 0;      ///< PQ + exact-fp32 rerank via the map
  double rerank_qps = 0;         ///< host wall QPS of the rerank sweep
};

SweepPoint RunPoint(const std::string& profile_name, size_t rows,
                    size_t num_queries, size_t k, size_t itopk,
                    size_t rerank) {
  SweepPoint pt;
  pt.rows = rows;

  const std::string path =
      "/tmp/bench_out_of_core_" + std::to_string(rows) + ".cagra";

  // Queries + ground truth stay alive across the RSS baseline — they
  // are the client's memory, not the index's, so they are allocated
  // before the snapshot and never counted against the cap.
  auto wb = bench::MakeWorkbench(profile_name, num_queries, k, rows);
  const Matrix<float> queries = wb.data.queries;
  const Matrix<uint32_t> gt = bench::GtAtK(wb, k);

  {
    BuildParams bp;
    bp.graph_degree = 16;
    bp.metric = wb.profile->metric;
    auto built = CagraIndex::Build(wb.data.base, bp);
    if (!built.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   built.status().ToString().c_str());
      std::exit(1);
    }
    PqTrainParams pq;
    pq.num_subspaces = wb.profile->dim / 10;  // 96 codes/row for GIST
    pq.kmeans_iterations = 2;
    pq.sample_size = 1024;
    built->EnablePq(pq);
    pt.fp32_bytes = uint64_t{rows} * wb.profile->dim * sizeof(float);
    pt.resident_bytes =
        uint64_t{rows} * (bp.graph_degree * sizeof(uint32_t) +
                          pq.num_subspaces * sizeof(uint8_t));
    Status s = built->Save(path);
    if (!s.ok()) {
      std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
    // `built` and the fp32 base matrix die here: from this point on the
    // only copy of the dataset is the file.
  }
  EvictFromPageCache(path);
  wb.data.base = Matrix<float>();
  wb.data.queries = Matrix<float>();
  wb.gt = Matrix<uint32_t>();
  TrimHeap();
  pt.rss_before = ReadVmRssBytes();

  auto loaded = CagraIndex::LoadOutOfCore(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "LoadOutOfCore failed: %s\n",
                 loaded.status().ToString().c_str());
    std::exit(1);
  }
  pt.out_of_core = loaded->out_of_core();

  SearchParams params;
  params.k = k;
  params.itopk = itopk;
  params.precision = Precision::kPq;

  // Raw PQ first: it never touches the mapped file, so any RSS growth
  // it causes is scratch, charged against the cap like everything else.
  auto pq_res = Search(*loaded, queries, params);
  if (!pq_res.ok()) {
    std::fprintf(stderr, "pq search failed: %s\n",
                 pq_res.status().ToString().c_str());
    std::exit(1);
  }
  pt.recall_pq = ComputeRecall(pq_res->neighbors, gt);

  params.rerank = rerank;
  auto rr_res = Search(*loaded, queries, params);
  if (!rr_res.ok()) {
    std::fprintf(stderr, "rerank search failed: %s\n",
                 rr_res.status().ToString().c_str());
    std::exit(1);
  }
  pt.recall_rerank = ComputeRecall(rr_res->neighbors, gt);
  pt.rerank_qps = rr_res->host_qps;

  pt.rss_after = ReadVmRssBytes();
  pt.rss_delta =
      pt.rss_after > pt.rss_before ? pt.rss_after - pt.rss_before : 0;
  std::remove(path.c_str());
  return pt;
}

void PrintPoint(const SweepPoint& pt, uint64_t cap, bool last) {
  std::printf(
      "    {\"rows\": %zu, \"fp32_bytes\": %llu, \"resident_bytes\": %llu, "
      "\"fp32_over_cap\": %.2f, \"rss_before_bytes\": %llu, "
      "\"rss_after_bytes\": %llu, \"rss_delta_bytes\": %llu, "
      "\"out_of_core\": %s, \"recall10_pq\": %.4f, "
      "\"recall10_rerank\": %.4f, \"rerank_host_qps\": %.1f}%s\n",
      pt.rows, static_cast<unsigned long long>(pt.fp32_bytes),
      static_cast<unsigned long long>(pt.resident_bytes),
      cap > 0 ? static_cast<double>(pt.fp32_bytes) / static_cast<double>(cap)
              : 0.0,
      static_cast<unsigned long long>(pt.rss_before),
      static_cast<unsigned long long>(pt.rss_after),
      static_cast<unsigned long long>(pt.rss_delta),
      pt.out_of_core ? "true" : "false", pt.recall_pq, pt.recall_rerank,
      pt.rerank_qps, last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "smoke") == 0;

  // The configured cap the sweep is measured against. The largest point
  // serves an fp32 section 4x this size; the bench fails if VmRSS ever
  // grows past it while doing so.
  const uint64_t rss_cap = smoke ? (24ull << 20) : (48ull << 20);
  const size_t k = 10;
  const size_t itopk = 96;
  const size_t rerank = 64;
  // The rerank floor: PQ+rerank recall@10 the largest point must clear.
  // Raw PQ on GIST-scale vectors sits well below this — the margin is
  // what the exact-fp32 rerank pass buys.
  const double recall_floor = 0.80;
  const std::string profile = "GIST-1M";
  const size_t dim = 960;  // GIST-1M; fp32 row = 3840 bytes
  const size_t num_queries = smoke ? 24 : 64;

  // 1x / 2x / 4x the cap, in rows (rounded up so the largest point's
  // fp32 section is >= 4x the cap, never a page short of it).
  const size_t row_bytes = dim * sizeof(float);
  const size_t rows_per_cap =
      static_cast<size_t>((rss_cap + row_bytes - 1) / row_bytes);
  const size_t sweep_rows[] = {rows_per_cap, 2 * rows_per_cap,
                               4 * rows_per_cap};
  const size_t num_points = sizeof(sweep_rows) / sizeof(sweep_rows[0]);

  std::printf("{\n");
  std::printf("  \"bench\": \"out_of_core\",\n");
  std::printf("  \"dataset\": \"%s\",\n", profile.c_str());
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"rss_cap_bytes\": %llu,\n",
              static_cast<unsigned long long>(rss_cap));
  std::printf("  \"k\": %zu,\n", k);
  std::printf("  \"itopk\": %zu,\n", itopk);
  std::printf("  \"rerank\": %zu,\n", rerank);
  std::printf("  \"num_queries\": %zu,\n", num_queries);
  std::printf("  \"recall_floor\": %.2f,\n", recall_floor);
  std::printf("  \"sweep\": [\n");

  std::vector<SweepPoint> points;
  for (size_t i = 0; i < num_points; i++) {
    points.push_back(
        RunPoint(profile, sweep_rows[i], num_queries, k, itopk, rerank));
    PrintPoint(points.back(), rss_cap, i + 1 == num_points);
    std::fflush(stdout);
  }
  std::printf("  ],\n");

  // Enforcement on the largest point: this is what makes a silent
  // fall-back-to-resident fail CI instead of quietly passing.
  const SweepPoint& big = points.back();
  const bool rss_ok = ReadVmRssBytes() == 0  // no /proc: skip the cap
                          ? true
                          : big.rss_delta <= rss_cap;
  const bool size_ok = big.fp32_bytes >= 4 * rss_cap;
  const bool recall_ok = big.recall_rerank >= recall_floor;
  const bool mode_ok = big.out_of_core;
  const bool pass = rss_ok && size_ok && recall_ok && mode_ok;
  std::printf("  \"enforced\": {\"fp32_ge_4x_cap\": %s, "
              "\"rss_delta_le_cap\": %s, \"recall_ge_floor\": %s, "
              "\"out_of_core\": %s, \"pass\": %s},\n",
              size_ok ? "true" : "false", rss_ok ? "true" : "false",
              recall_ok ? "true" : "false", mode_ok ? "true" : "false",
              pass ? "true" : "false");
  std::printf(
      "  \"notes\": \"rss_delta_bytes = VmRSS growth across "
      "LoadOutOfCore + the full query sweep, measured after freeing the "
      "build-time copies (malloc_trim). It charges the RAM-resident "
      "graph + PQ codes, search scratch, and every mapped fp32 page the "
      "rerank touched. recall10_pq never touches the mapped file; the "
      "recall10_rerank margin over it is what the exact-fp32 rerank "
      "pass buys at %zu candidates per query.\"\n",
      rerank);
  std::printf("}\n");
  if (!pass) {
    std::fprintf(stderr,
                 "out-of-core enforcement failed: size_ok=%d rss_ok=%d "
                 "recall_ok=%d out_of_core=%d\n",
                 size_ok, rss_ok, recall_ok, mode_ok);
    return 1;
  }
  return 0;
}
