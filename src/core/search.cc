#include "core/search.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "core/search_internal.h"
#include "util/bounded_heap.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace cagra {

namespace {

using internal_search::DatasetView;
using internal_search::kMultiCtaLocalTopM;
using internal_search::ResolveConfig;
using internal_search::ResolvedConfig;
using internal_search::SearchScratch;

/// Per-thread scratch reused across Search() calls, one entry per slot
/// of the global pool. The serving scheduler's workers call Search once
/// per micro-batch on the same thread, and before this cache every call
/// re-allocated the visited tables, search buffers, and — the expensive
/// one for PQ — the M x 256 ADC-table storage that DatasetView::Prepare
/// rebuilds per query. Reuse is invisible to results (every query fully
/// reinitializes the state it reads; the ADC table *contents* are still
/// rebuilt per query, only the allocation persists). Safety: slot
/// entries are handed to pool workers only for the duration of one
/// ParallelForSlotted, which guarantees distinct slots for concurrent
/// iterations of one call; concurrent Search calls come from distinct
/// calling threads and therefore distinct thread_local caches.
std::vector<std::unique_ptr<SearchScratch>>& ScratchCache() {
  static thread_local std::vector<std::unique_ptr<SearchScratch>> cache(
      GlobalThreadPool().num_slots());
  return cache;
}

size_t ResolveCtaPerQuery(const SearchParams& params, const DeviceSpec& dev,
                          size_t batch, size_t itopk) {
  if (params.cta_per_query != 0) return params.cta_per_query;
  // Enough CTAs to cover the requested breadth (each holds a 32-entry
  // local list) and to saturate the device at small batch sizes. An
  // empty batch launches nothing; resolve it like batch 1 so the
  // division below cannot fault.
  if (batch == 0) batch = 1;
  size_t by_breadth = (itopk + kMultiCtaLocalTopM - 1) / kMultiCtaLocalTopM;
  size_t by_fill = batch < dev.sm_count
                       ? (2 * dev.sm_count + batch - 1) / batch
                       : 1;
  return std::clamp<size_t>(std::max(by_breadth, by_fill), 2, 64);
}

}  // namespace

Matrix<float> SliceQueries(const Matrix<float>& queries, size_t begin,
                           size_t count) {
  Matrix<float> out(count, queries.dim());
  for (size_t r = 0; r < count; r++) {
    const float* src = queries.Row(begin + r);
    std::copy(src, src + queries.dim(), out.MutableRow(r));
  }
  return out;
}

SearchParams ResolveBatchShape(const SearchParams& params,
                               const DeviceSpec& device, size_t batch) {
  SearchParams out = params;
  ModeThresholds thresholds;
  thresholds.max_batch_for_multi = device.sm_count;
  const size_t itopk = internal_search::ResolveItopk(params);
  if (out.algo == SearchAlgo::kAuto) {
    out.algo = ChooseAlgo(batch, itopk, thresholds);
  }
  if (out.algo == SearchAlgo::kMultiCta && out.cta_per_query == 0) {
    out.cta_per_query = ResolveCtaPerQuery(params, device, batch, itopk);
  }
  return out;
}

size_t PickTeamSize(const DeviceSpec& device, size_t dim, size_t elem_bytes,
                    size_t threads_per_cta, size_t candidates_per_iter) {
  size_t best = device.warp_size;
  double best_score = -1.0;
  for (size_t ts : {2, 4, 8, 16, 32}) {
    KernelLaunchConfig cfg;
    cfg.batch = device.sm_count;  // occupancy probe at full fill
    cfg.ctas_per_query = 1;
    cfg.threads_per_cta = threads_per_cta;
    cfg.team_size = ts;
    cfg.dim = dim;
    cfg.elem_bytes = elem_bytes;
    cfg.candidates_per_iter = candidates_per_iter;
    const OccupancyInfo info = AnalyzeOccupancy(device, cfg);
    const double score =
        info.load_efficiency * info.occupancy * info.round_efficiency;
    if (score > best_score) {
      best_score = score;
      best = ts;
    }
  }
  return best;
}

Status ValidateSearchParams(const SearchParams& params) {
  if (params.k == 0) return Status::InvalidArgument("k must be >= 1");
  // itopk == 0 is the auto default (ResolveItopk widens it past k); an
  // *explicit* itopk below k is a degenerate request — the old check
  // here compared k against max(itopk, k) and could never fire.
  if (params.itopk != 0 && params.k > params.itopk) {
    return Status::InvalidArgument("k must be <= itopk");
  }
  // The kernels size the visited table as 1 << hash_bits: past 63 bits
  // the shift is undefined, and past 32 the table outgrows what 31-bit
  // ids can ever fill at the 2x rule (§IV-B3).
  if (params.hash_bits > 32) {
    return Status::InvalidArgument("hash_bits must be <= 32");
  }
  return Status::Ok();
}

Result<SearchResult> Search(const CagraIndex& index,
                            const Matrix<float>& queries,
                            const SearchParams& params) {
  const DeviceSpec device;
  const Precision precision = params.precision;
  // The whole search consumes ONE pinned version of the index: every
  // read below — validation, kernels, rerank, id translation — goes
  // through `snap`, so a concurrent Add/Remove/Compact (which publishes
  // a successor snapshot) can never change or tear this call's view.
  const std::shared_ptr<const IndexSnapshot> snap = index.snapshot();
  if (snap->size() == 0) return Status::InvalidArgument("index is empty");
  if (queries.dim() != snap->dim()) {
    return Status::InvalidArgument("query dim does not match index dim");
  }
  Status valid = ValidateSearchParams(params);
  if (!valid.ok()) return valid;
  if (precision == Precision::kFp16 && !snap->HasHalf()) {
    return Status::InvalidArgument(
        "fp16 search requires EnableHalfPrecision() on the index");
  }
  if (precision == Precision::kInt8 && !snap->HasInt8()) {
    return Status::InvalidArgument(
        "int8 search requires EnableInt8Quantization() on the index");
  }
  if (precision == Precision::kPq && !snap->HasPq()) {
    return Status::InvalidArgument(
        "PQ search requires EnablePq() on the index");
  }

  const size_t batch = queries.rows();
  const size_t d = snap->degree();

  // --- Mode selection (Fig. 7 rule; thresholds track the device).
  // ResolveBatchShape is the single owner of the batch-shape auto
  // choices so callers that pin them (the serving scheduler) pick
  // exactly what this call would.
  ResolvedConfig cfg =
      ResolveConfig(ResolveBatchShape(params, device, batch), d, snap->size());
  cfg.cancel = params.cancel;

  // --- Exact-fp32 rerank depth (params.rerank doc). The kernels consume
  // cfg.k only at output emission (EmitTopK), so widening it to r keeps
  // the traversal — and therefore the candidate frontier — identical to
  // a plain top-k search; the search just emits more of the frontier it
  // already had. The lists hold at most num_lists x list_len entries;
  // asking past that only pads.
  const size_t out_k = cfg.k;
  size_t rerank_n = 0;
  if (params.rerank != 0) {
    rerank_n = std::max(
        out_k, std::min({params.rerank, cfg.itopk,
                         cfg.num_lists * cfg.list_len}));
    cfg.k = rerank_n;
  }

  const DatasetView dataset(*snap, precision);

  // --- Functional execution, one query at a time (parallel on the host;
  // counters are accumulated per query then reduced).
  SearchResult result;
  result.neighbors.k = out_k;
  result.neighbors.ids.assign(batch * out_k, internal_search::kInvalidEntry);
  result.neighbors.distances.assign(batch * out_k,
                                    std::numeric_limits<float>::infinity());
  // With rerank on, the kernels emit their top-r into a staging buffer
  // and the rescore below writes the final top-k into the result.
  std::vector<uint32_t> cand_ids;
  std::vector<float> cand_dists;
  if (rerank_n != 0) {
    cand_ids.assign(batch * rerank_n, internal_search::kInvalidEntry);
    cand_dists.assign(batch * rerank_n,
                      std::numeric_limits<float>::infinity());
  }
  uint32_t* const emit_ids =
      rerank_n != 0 ? cand_ids.data() : result.neighbors.ids.data();
  float* const emit_dists =
      rerank_n != 0 ? cand_dists.data() : result.neighbors.distances.data();
  std::vector<KernelCounters> per_query(batch);
  // Per-query cancellation marks (uint8_t, not vector<bool>: distinct
  // queries write distinct slots concurrently).
  std::vector<uint8_t> truncated(batch, 0);

  // Queries are independent (the "one CTA per query" mapping, executed
  // as host threads): each worker slot keeps its own scratch — visited
  // table + search buffers — allocated lazily on first use, so results
  // are byte-identical to a serial run at any thread count.
  const auto kernel = cfg.algo == SearchAlgo::kMultiCta
                          ? internal_search::SearchMultiCta
                          : internal_search::SearchSingleCta;
  auto run_query = [&](SearchScratch* scratch, size_t q) {
    KernelCounters& counters = per_query[q];
    counters.queries = 1;
    // Once the token has expired no further query starts: one
    // unamortized check before each query seeds. A query that never
    // starts stays padding, scores no rows and marks the batch partial.
    if (cfg.cancel != nullptr && cfg.cancel->Expired()) {
      truncated[q] = 1;
      return;
    }
    // uniform_seed: every row samples like a batch-of-one (row 0 gets
    // cfg.seed either way) so coalescing requests into micro-batches
    // cannot change any request's result.
    const uint64_t query_seed =
        params.uniform_seed ? cfg.seed : cfg.seed + 0x1000003ULL * q;
    uint32_t* ids = emit_ids + q * cfg.k;
    float* dists = emit_dists + q * cfg.k;
    bool cut = false;
    const size_t iters =
        kernel(dataset, snap->GraphRef(), queries.Row(q), cfg, query_seed, ids,
               dists, &counters, scratch, &cut);
    if (cut) truncated[q] = 1;
    counters.iterations = iters;
    counters.max_iterations = iters;
  };

  Timer timer;
  // Every loop below runs on the global pool, at most params.num_threads
  // wide with the calling thread included (0 = the whole pool). The
  // reported width is also clamped to the batch: ParallelForSlotted runs
  // at most one thread per iteration, so a 1-query batch is serial.
  ThreadPool& pool = GlobalThreadPool();
  const size_t host_threads =
      std::max<size_t>(1, std::min(batch, pool.Width(params.num_threads)));
  auto& scratch = ScratchCache();
  pool.ParallelForSlotted(
      0, batch,
      [&](size_t slot, size_t q) {
        if (scratch[slot] == nullptr) {
          scratch[slot] = std::make_unique<SearchScratch>();
        }
        run_query(scratch[slot].get(), q);
      },
      params.num_threads);

  // --- Exact-fp32 rerank over the emitted top-r candidates.
  if (rerank_n != 0) {
    // Fault site between traversal and rerank: a stall here lets a
    // deadline expire after every query has its candidates.
    CAGRA_FAULT_POINT("search_rerank_stall");
    // Lookahead prefetch (out-of-core only): tell the kernel which
    // pages the rescore is about to fault in, one sorted+coalesced
    // MADV_WILLNEED pass per query, so the reads overlap the rescoring
    // of earlier queries instead of serializing behind it.
    if (const MmapMatrix* mapped = snap->mmap.get()) {
      pool.ParallelFor(
          0, batch,
          [&](size_t q) {
            mapped->PrefetchRows(cand_ids.data() + q * rerank_n, rerank_n);
          },
          params.num_threads);
    }
    const float* base = snap->Fp32Data();
    constexpr size_t kRerankBlock = 256;
    auto rerank_query = [&](size_t q) {
      uint32_t* out_ids = result.neighbors.ids.data() + q * out_k;
      float* out_dists = result.neighbors.distances.data() + q * out_k;
      const uint32_t* cids = cand_ids.data() + q * rerank_n;
      const float* cdists = cand_dists.data() + q * rerank_n;
      size_t n = 0;  // kernels pad past the frontier with kInvalidEntry
      while (n < rerank_n && cids[n] != internal_search::kInvalidEntry) n++;
      KernelCounters& counters = per_query[q];
      // Deadline/cancellation at rerank-block granularity: checked
      // before each block of row fetches — the unit of I/O an
      // out-of-core rescore cannot abandon midway.
      CancelCheck check(cfg.cancel, /*stride=*/1);
      std::vector<float> exact(n);
      bool cut = false;
      for (size_t i0 = 0; i0 < n; i0 += kRerankBlock) {
        if (check.ExpiredNow()) {
          cut = true;
          break;
        }
        const size_t b = std::min(kRerankBlock, n - i0);
        ComputeDistanceGather(snap->metric, queries.Row(q), base,
                              snap->dim(), cids + i0, b, exact.data() + i0);
        counters.distance_computations += b;
        counters.distance_elements += b * snap->dim();
        counters.device_vector_bytes += b * snap->dim() * sizeof(float);
      }
      if (cut) {
        // Partial per the SearchResult::complete contract: fall back to
        // the approximate-ranked candidates (already sorted, deduped,
        // padded) — well-formed, just un-rescored.
        truncated[q] = 1;
        const size_t have = std::min(out_k, n);
        std::copy(cids, cids + have, out_ids);
        std::copy(cdists, cdists + have, out_dists);
        return;
      }
      // (distance, id) order matches the kernels' emission tiebreak, so
      // the final top-k is deterministic under duplicate distances.
      BoundedHeap top(out_k);
      for (size_t i = 0; i < n; i++) top.Push(exact[i], cids[i]);
      const auto best = top.ExtractSorted();
      for (size_t i = 0; i < best.size(); i++) {
        out_ids[i] = best[i].id;
        out_dists[i] = best[i].distance;
      }
    };
    pool.ParallelFor(0, batch, rerank_query, params.num_threads);
  }
  // Translate internal row ids to stable external ids. A no-op (null
  // map) until compaction has renumbered rows, so unmutated indexes
  // return exactly the pre-refactor ids. This runs after the rerank,
  // which fetches rows by internal id.
  if (snap->id_map != nullptr) {
    const std::vector<uint32_t>& map = *snap->id_map;
    for (uint32_t& id : result.neighbors.ids) {
      if (id != internal_search::kInvalidEntry) id = map[id];
    }
  }
  result.host_seconds = timer.Seconds();
  result.host_threads = host_threads;
  result.host_qps = result.host_seconds > 0
                        ? static_cast<double>(batch) / result.host_seconds
                        : 0.0;

  for (const auto& c : per_query) result.counters.Add(c);
  result.counters.kernel_launches = 1;  // single fused kernel (§IV-C1)

  // Partial-result bookkeeping: per-query rows scored (the counters
  // already track exactly that) and the batch-level completion flag.
  result.rows_examined.resize(batch);
  for (size_t q = 0; q < batch; q++) {
    result.rows_examined[q] = per_query[q].distance_computations;
    if (truncated[q] != 0) result.complete = false;
  }

  // --- Launch configuration for the cost model.
  KernelLaunchConfig launch;
  launch.batch = batch;
  launch.ctas_per_query = cfg.num_lists;
  launch.threads_per_cta = cfg.threads_per_cta;
  // The cost model prices row traffic as dim * elem_bytes: PQ rows are
  // M one-byte code lookups, not dim decoded elements, so the launch
  // reports the per-distance element count (M for PQ, dim otherwise).
  launch.dim = dataset.ElementsPerDistance();
  launch.elem_bytes = dataset.ElemBytes();
  launch.candidates_per_iter = cfg.parents * d;
  launch.team_size =
      params.team_size != 0
          ? params.team_size
          : PickTeamSize(device, launch.dim, launch.elem_bytes,
                         launch.threads_per_cta, launch.candidates_per_iter);

  // Shared memory per CTA: search buffer + query staging, plus the
  // visited table when it lives in shared memory (Table II).
  const size_t buffer_entries = cfg.list_len + launch.candidates_per_iter;
  launch.shared_mem_per_cta =
      buffer_entries * sizeof(KeyValue) + snap->dim() * sizeof(float);
  if (cfg.hash_in_shared) {
    launch.shared_mem_per_cta += (1ull << cfg.hash_bits) * sizeof(uint32_t);
  }

  result.launch = launch;
  result.cost = EstimateKernelTime(device, launch, result.counters);
  result.modeled_seconds = result.cost.total;
  result.modeled_qps =
      result.modeled_seconds > 0
          ? static_cast<double>(batch) / result.modeled_seconds
          : 0.0;
  result.algo_used = cfg.algo;
  result.team_size_used = launch.team_size;
  return result;
}

}  // namespace cagra
