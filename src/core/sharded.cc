#include "core/sharded.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "util/bounded_heap.h"
#include "util/cancel.h"
#include "util/fault_injection.h"
#include "util/mpsc_queue.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace cagra {

namespace {
/// Host-side cost of gathering and merging S sorted k-lists for one
/// query (PCIe transfer of k entries per shard + merge).
constexpr double kMergeOverheadPerQueryShard = 2e-7;  // 200ns

constexpr float kInf = std::numeric_limits<float>::infinity();

/// How long the merger waits for already-cancelling tasks after it
/// observes expiry, before abandoning whoever still hasn't published.
/// Cooperative cancellation inside a search is observed within a few
/// iterations (tens of microseconds here), so a small grace drains every
/// well-behaved task; only a genuinely stalled one gets abandoned.
constexpr std::chrono::milliseconds kCancelDrainGrace{2};

/// Poll period of the merger's wait under a caller token: bounds how
/// late a manual Cancel() from another thread is forwarded into the
/// pipeline while no chunk arrives.
constexpr std::chrono::milliseconds kCancelPollPeriod{1};

/// Effective chunk size of the streaming pipeline: the explicit request
/// clamped to the batch, or the auto default of ~4 chunks per batch
/// (minimum 8 rows, so tiny batches don't dissolve into per-row tasks).
size_t ResolveShardChunk(size_t requested, size_t batch) {
  if (requested == 0) requested = std::max<size_t>(8, (batch + 3) / 4);
  return std::min(requested, batch);
}

/// The marker a task records when it skips its scan because the token
/// expired first. Not an error of the search — the merger folds the
/// shards that did run and marks the result incomplete.
Status CancelMarker(const CancelToken& token) {
  return token.has_deadline()
             ? Status::DeadlineExceeded(
                   "deadline expired before this shard scan started")
             : Status::Cancelled("cancelled before this shard scan started");
}

bool IsCancelMarker(const Status& s) {
  return s.code() == StatusCode::kDeadlineExceeded ||
         s.code() == StatusCode::kCancelled;
}

/// Heap-owned state of one streaming pipeline run, shared (shared_ptr)
/// between the merging caller and every pool helper. The caller may
/// return before every task has run — abandoned helpers keep the state
/// alive and finish against it harmlessly — so nothing here references
/// the caller's stack: the query chunks are sliced into it up front.
///
/// Synchronization contract (latch-published, not mutex-guarded — so
/// outside CAGRA_GUARDED_BY's vocabulary; the mutex+2cv protocol lives
/// inside the annotated MpscBoundedQueue member `ready`):
///  - Task t is (chunk t / num_shards, shard t % num_shards); `next_task`
///    hands each t to exactly one thread, chunk-major, so early chunks
///    finish first.
///  - `results[t]` is written by that thread alone, which then
///    decrements `remaining[c]` (acq_rel). The final decrement pushes c
///    into `ready`; the consumer's pop acquires, so a popped chunk's
///    slots are all ordered-before the read. Slots of never-popped
///    chunks still belong to (possibly abandoned) helpers and must not
///    be read — Search tracks popped chunks explicitly.
///  - Everything else is set before the first task is claimed and
///    read-only afterwards (`token` is internally atomic).
struct StreamState {
  StreamState(const Matrix<float>& queries, size_t chunk_rows_in,
              size_t num_shards_in, const CancelToken* parent)
      : num_shards(num_shards_in),
        chunk_rows(chunk_rows_in),
        remaining((queries.rows() + chunk_rows_in - 1) / chunk_rows_in),
        ready(remaining.size()),
        // The derived token helpers consult: the caller's deadline is
        // copied in (so helpers observe it on their own clock reads), a
        // cancel that already happened is copied too, and later manual
        // cancels are forwarded by the merger while it is still around.
        // Helpers never touch the caller's token, whose lifetime ends
        // with the call.
        token(parent != nullptr && parent->has_deadline()
                  ? CancelToken(parent->deadline())
                  : CancelToken()) {
    if (parent != nullptr && parent->Expired()) token.Cancel();
    for (auto& r : remaining) r.store(num_shards, std::memory_order_relaxed);
    chunks.reserve(remaining.size());
    for (size_t begin = 0; begin < queries.rows(); begin += chunk_rows) {
      chunks.push_back(SliceQueries(
          queries, begin, std::min(chunk_rows, queries.rows() - begin)));
    }
    results.resize(chunks.size() * num_shards);
  }

  const size_t num_shards;
  const size_t chunk_rows;
  const std::vector<CagraIndex>* shards = nullptr;
  SearchParams task_params;
  DeviceSpec device;
  std::vector<Matrix<float>> chunks;
  std::vector<std::optional<Result<SearchResult>>> results;
  std::vector<std::atomic<size_t>> remaining;
  std::atomic<size_t> next_task{0};
  /// Carries chunk ids only (results are preallocated above), sized to
  /// hold every chunk: a helper that finishes a chunk never blocks
  /// behind a busy merger — and an abandoned helper's final push cannot
  /// block either.
  MpscBoundedQueue<size_t> ready;
  CancelToken token;
};

/// Claims the next (chunk, shard) task and runs it under `token`: the
/// caller's own token for tasks the caller runs, the derived one for
/// helpers, null for a token-free search. Returns false once every task
/// is claimed. Touches only the shared state, so it runs correctly even
/// after a cancelled merger has returned.
bool RunNextTask(StreamState& st, const CancelToken* token) {
  const size_t t = st.next_task.fetch_add(1, std::memory_order_relaxed);
  if (t >= st.results.size()) return false;
  const size_t c = t / st.num_shards;
  std::optional<Result<SearchResult>>& slot = st.results[t];

  CAGRA_FAULT_POINT("shard_scan_stall");
  Status injected = CAGRA_FAULT_STATUS("shard_scan_fail");
  if (!injected.ok()) {
    slot.emplace(injected);
  } else if (token != nullptr && token->Expired()) {
    // Shed before scanning once the pipeline is cancelled: nobody is
    // waiting for this chunk anymore.
    slot.emplace(CancelMarker(*token));
  } else {
    SearchParams p = st.task_params;
    p.cancel = token;
    // Chunk-local row q is global row c * chunk_rows + q; offsetting the
    // seed by the chunk base keeps every per-query seed equal to the
    // unchunked run's (Search derives them as seed + 0x1000003 * row).
    // Under uniform_seed every row uses the seed verbatim, so the offset
    // must be skipped to stay identical to the unchunked run.
    if (!p.uniform_seed) p.seed += 0x1000003ULL * (c * st.chunk_rows);
    slot.emplace(cagra::Search((*st.shards)[t % st.num_shards], st.chunks[c],
                               p, st.device));
  }
  if (st.remaining[c].fetch_sub(1, std::memory_order_acq_rel) == 1) {
    CAGRA_FAULT_POINT("queue_push_stall");
    st.ready.Push(c);
  }
  return true;
}

/// The merger's one wait for the next finished chunk. With a caller
/// token it forwards that token into the derived one on every step, so
/// helpers see a manual Cancel() at their next boundary; once expired it
/// grants kCancelDrainGrace for in-flight chunks to publish, then
/// reports nullopt — the signal to abandon the stragglers.
std::optional<size_t> NextChunk(StreamState& st, const CancelToken* caller) {
  if (caller == nullptr) return st.ready.Pop();
  while (true) {
    if (caller->Expired()) {
      st.token.Cancel();
      return st.ready.PopUntil(CancelToken::Clock::now() + kCancelDrainGrace);
    }
    auto until = CancelToken::Clock::now() + kCancelPollPeriod;
    if (caller->has_deadline() && caller->deadline() < until) {
      until = caller->deadline();
    }
    std::optional<size_t> c = st.ready.PopUntil(until);
    if (c.has_value()) return c;
  }
}

}  // namespace

void MergeShardTopK(const ShardMergeList* lists, size_t num_lists, size_t k,
                    uint32_t* out_ids, float* out_distances) {
  BoundedHeap heap(k);
  for (size_t l = 0; l < num_lists; l++) {
    const ShardMergeList& list = lists[l];
    for (size_t i = 0; i < list.len; i++) {
      uint32_t id = list.ids[i];
      if (list.id_map != nullptr) {
        if (id >= list.id_map_size) continue;  // padding
        id = list.id_map[id];
      } else if (id == kInvalidShardEntry) {
        continue;
      }
      const float d = list.distances[i];
      // Lists are sorted ascending by distance, so once the heap is full
      // and this entry is strictly worse than the retained worst, the
      // rest of the list cannot qualify either. Equal distances still
      // enter — a smaller id can displace the worst under the
      // (distance, id) order.
      if (heap.Full() && d > heap.WorstDistance()) break;
      heap.Push(d, id);
    }
  }
  const auto sorted = heap.ExtractSorted();
  for (size_t i = 0; i < k; i++) {
    out_ids[i] = i < sorted.size() ? sorted[i].id : kInvalidShardEntry;
    out_distances[i] = i < sorted.size() ? sorted[i].distance : kInf;
  }
}

Result<ShardedCagraIndex> ShardedCagraIndex::Build(
    const Matrix<float>& dataset, const BuildParams& params,
    size_t num_shards, ShardedBuildStats* stats) {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (dataset.rows() < num_shards * (params.graph_degree + 1)) {
    return Status::InvalidArgument(
        "dataset too small for the requested shard count and degree");
  }

  Timer total;
  ShardedCagraIndex index;
  index.shards_.resize(num_shards);
  index.global_ids_.resize(num_shards);
  ShardedBuildStats local;
  local.per_shard.resize(num_shards);

  // Round-robin split (the paper notes real shard assignment involves
  // shuffling/splitting the indices; round-robin on a shuffled-identity
  // synthetic set is equivalent in distribution).
  {
    std::vector<std::vector<uint32_t>> split(num_shards);
    for (size_t i = 0; i < dataset.rows(); i++) {
      split[i % num_shards].push_back(static_cast<uint32_t>(i));
    }
    for (size_t s = 0; s < num_shards; s++) {
      index.global_ids_[s] =
          std::make_shared<const std::vector<uint32_t>>(std::move(split[s]));
    }
  }

  // Shard builds run in parallel, mirroring the one-GPU-per-shard build.
  // Each build is seeded and touches only its own slot, so the graphs
  // and deterministic stats are identical to a sequential build (pinned
  // by tests/sharded_test.cc); nested build parallelism composes via the
  // re-entrant pool.
  std::vector<Status> shard_status(num_shards);
  GlobalThreadPool().ParallelFor(0, num_shards, [&](size_t s) {
    const auto& ids = *index.global_ids_[s];
    Matrix<float> shard_data(ids.size(), dataset.dim());
    for (size_t local_row = 0; local_row < ids.size(); local_row++) {
      std::copy(dataset.Row(ids[local_row]),
                dataset.Row(ids[local_row]) + dataset.dim(),
                shard_data.MutableRow(local_row));
    }
    auto shard = CagraIndex::Build(shard_data, params, &local.per_shard[s]);
    if (!shard.ok()) {
      shard_status[s] = shard.status();
      return;
    }
    index.shards_[s] = std::move(shard.value());
  });
  for (const Status& s : shard_status) {
    CAGRA_RETURN_IF_ERROR(s);
  }

  local.total_seconds = total.Seconds();
  if (stats != nullptr) *stats = local;
  return index;
}

void ShardedCagraIndex::EnableHalfPrecision() {
  for (auto& shard : shards_) shard.EnableHalfPrecision();
}

void ShardedCagraIndex::EnableInt8Quantization() {
  for (auto& shard : shards_) shard.EnableInt8Quantization();
}

void ShardedCagraIndex::EnablePq(const PqTrainParams& params) {
  for (auto& shard : shards_) shard.EnablePq(params);
}

Status ShardedCagraIndex::Add(const Matrix<float>& rows,
                              std::vector<uint32_t>* global_ids) {
  if (shards_.empty()) {
    return Status::FailedPrecondition(
        "Add on an unbuilt sharded index: Build() first");
  }
  if (rows.rows() == 0) {
    if (global_ids != nullptr) global_ids->clear();
    return Status::Ok();
  }
  if (rows.dim() != dim()) {
    return Status::InvalidArgument("row dim does not match index dim");
  }
  const size_t num_shards = shards_.size();
  // The next global id: every id ever assigned has exactly one entry in
  // global_ids_ (removals tombstone; they never shrink the map).
  size_t next = 0;
  for (const auto& ids : global_ids_) next += ids->size();

  // Pre-validate so the per-shard loop below cannot fail halfway: the
  // only remaining CagraIndex::Add failure is capacity, checked here
  // against each shard's ever-assigned row count (>= its internal rows).
  std::vector<size_t> incoming(num_shards, 0);
  for (size_t j = 0; j < rows.rows(); j++) incoming[(next + j) % num_shards]++;
  for (size_t s = 0; s < num_shards; s++) {
    if (shards_[s].out_of_core()) {
      return Status::FailedPrecondition(
          "Add on an out-of-core sharded index: the mapped fp32 tiers "
          "cannot grow in place");
    }
    if (global_ids_[s]->size() + incoming[s] > CagraIndex::kMaxDatasetSize) {
      return Status::CapacityExceeded("shard would exceed 2^31 - 1 rows");
    }
  }

  // Route each row to its shard, preserving input order within a shard:
  // shard s receives its global ids in increasing order, which keeps
  // shard-local external ids equal to global / num_shards. The shard
  // mutates first, then the grown id map publishes (atomic_store), so a
  // concurrent search that pinned the old map merely treats the new
  // rows as padding until its next call.
  for (size_t s = 0; s < num_shards; s++) {
    if (incoming[s] == 0) continue;
    Matrix<float> shard_rows(incoming[s], rows.dim());
    size_t w = 0;
    for (size_t j = 0; j < rows.rows(); j++) {
      if ((next + j) % num_shards != s) continue;
      std::copy(rows.Row(j), rows.Row(j) + rows.dim(),
                shard_rows.MutableRow(w++));
    }
    CAGRA_RETURN_IF_ERROR(shards_[s].Add(shard_rows));
    auto grown = std::make_shared<std::vector<uint32_t>>(*global_ids_[s]);
    for (size_t j = 0; j < rows.rows(); j++) {
      if ((next + j) % num_shards != s) continue;
      grown->push_back(static_cast<uint32_t>(next + j));
    }
    std::atomic_store_explicit(&global_ids_[s],
                               IdMapPtr(std::move(grown)),
                               std::memory_order_release);
  }
  if (global_ids != nullptr) {
    for (size_t j = 0; j < rows.rows(); j++) {
      global_ids->push_back(static_cast<uint32_t>(next + j));
    }
  }
  return Status::Ok();
}

Status ShardedCagraIndex::Remove(const uint32_t* global_ids, size_t n) {
  if (shards_.empty()) {
    return Status::FailedPrecondition(
        "Remove on an unbuilt sharded index: Build() first");
  }
  const size_t num_shards = shards_.size();
  // Validate everything against the current per-shard snapshots before
  // any shard mutates (all-or-nothing across shards, matching the
  // single-index contract within one).
  std::vector<std::shared_ptr<const IndexSnapshot>> snaps(num_shards);
  for (size_t s = 0; s < num_shards; s++) snaps[s] = shards_[s].snapshot();
  std::vector<std::vector<uint32_t>> per_shard(num_shards);
  for (size_t i = 0; i < n; i++) {
    const uint32_t g = global_ids[i];
    const size_t s = g % num_shards;
    const uint32_t local = g / num_shards;
    const uint32_t internal = snaps[s]->InternalId(local);
    if (internal == IndexSnapshot::kNoInternal || snaps[s]->Deleted(internal)) {
      return Status::NotFound("global id " + std::to_string(g) +
                              " is not a live row");
    }
    per_shard[s].push_back(local);
  }
  for (size_t s = 0; s < num_shards; s++) {
    if (per_shard[s].empty()) continue;
    CAGRA_RETURN_IF_ERROR(
        shards_[s].Remove(per_shard[s].data(), per_shard[s].size()));
  }
  return Status::Ok();
}

Status ShardedCagraIndex::Compact() {
  for (auto& shard : shards_) {
    CAGRA_RETURN_IF_ERROR(shard.Compact());
  }
  return Status::Ok();
}

void ShardedCagraIndex::SetCompactionOptions(const CompactionOptions& options) {
  for (auto& shard : shards_) shard.SetCompactionOptions(options);
}

void ShardedCagraIndex::WaitForCompaction() const {
  for (const auto& shard : shards_) shard.WaitForCompaction();
}

size_t ShardedCagraIndex::live_size() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard.live_size();
  return total;
}

size_t ShardedCagraIndex::tombstone_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard.tombstone_count();
  return total;
}

Status ShardedCagraIndex::ValidateSearch(const SearchParams& params) const {
  if (shards_.empty()) return Status::InvalidArgument("no shards built");
  // Shared with the single-index front door so identical bad inputs
  // fail identically on either path (pinned by tests/searcher_test.cc).
  return ValidateSearchParams(params);
}

std::vector<ShardedCagraIndex::IdMapPtr> ShardedCagraIndex::PinIdMaps()
    const {
  std::vector<IdMapPtr> maps(global_ids_.size());
  for (size_t s = 0; s < global_ids_.size(); s++) {
    maps[s] = std::atomic_load_explicit(&global_ids_[s],
                                        std::memory_order_acquire);
  }
  return maps;
}

void ShardedCagraIndex::MergeRows(
    const std::vector<std::pair<size_t, const SearchResult*>>& shard_results,
    const std::vector<IdMapPtr>& maps, size_t begin, size_t rows, size_t k,
    NeighborList* out) const {
  const size_t num_lists = shard_results.size();
  std::vector<ShardMergeList> lists(num_lists);
  for (size_t q = 0; q < rows; q++) {
    for (size_t l = 0; l < num_lists; l++) {
      const size_t s = shard_results[l].first;
      const NeighborList& n = shard_results[l].second->neighbors;
      lists[l] = {n.distances.data() + q * k, n.ids.data() + q * k, k,
                  maps[s]->data(), maps[s]->size()};
    }
    MergeShardTopK(lists.data(), num_lists, k,
                   out->ids.data() + (begin + q) * k,
                   out->distances.data() + (begin + q) * k);
  }
}

Result<SearchResult> ShardedCagraIndex::Search(const Matrix<float>& queries,
                                               const SearchParams& params) const {
  return Search(queries, params, DeviceSpec{});
}

Result<SearchResult> ShardedCagraIndex::Search(const Matrix<float>& queries,
                                               const SearchParams& params,
                                               const DeviceSpec& device) const {
  CAGRA_RETURN_IF_ERROR(ValidateSearch(params));

  const size_t batch = queries.rows();
  const size_t k = params.k;
  // Nothing to stream over (and no chunk size to divide by).
  if (batch == 0) {
    SearchResult empty;
    empty.neighbors.k = k;
    return empty;
  }

  const size_t num_shards = shards_.size();
  const CancelToken* caller_token = params.cancel;
  // Pinned once for the whole streaming run; every chunk merge
  // translates through the same maps (see PinIdMaps).
  const std::vector<IdMapPtr> maps = PinIdMaps();

  // Auto choices that depend on the batch shape (execution mode,
  // multi-CTA width) are resolved once on the full batch: a chunk must
  // never search differently than the same rows would in an unchunked
  // run, or chunking would change the results.
  const size_t chunk_rows =
      ResolveShardChunk(params.shard_chunk_queries, batch);
  Timer host;
  auto st = std::make_shared<StreamState>(queries, chunk_rows, num_shards,
                                          caller_token);
  st->shards = &shards_;
  st->task_params = ResolveBatchShape(params, device, batch);
  st->device = device;
  const size_t num_chunks = st->chunks.size();

  SearchResult out;
  out.neighbors.k = k;
  out.neighbors.ids.assign(batch * k, kInvalidShardEntry);
  out.neighbors.distances.assign(batch * k, kInf);
  out.rows_examined.assign(batch, 0);

  // Which chunks the merger has popped. A popped chunk's result slots
  // are all written and ordered-before the pop (the latch's acq_rel
  // decrement), so only popped chunks may be read after the loop —
  // under abandonment the other slots still belong to live helpers.
  std::vector<uint8_t> chunk_popped(num_chunks, 0);

  auto merge_chunk = [&](size_t c) {
    chunk_popped[c] = 1;
    std::vector<std::pair<size_t, const SearchResult*>> shard_results;
    shard_results.reserve(num_shards);
    for (size_t s = 0; s < num_shards; s++) {
      Result<SearchResult>& r = *st->results[c * num_shards + s];
      if (!r.ok()) {
        if (IsCancelMarker(r.status())) {
          // This shard shed its scan at the deadline; merge the shards
          // that did run — best-effort partial rows.
          out.complete = false;
          continue;
        }
        return;  // real error: reported after the pipeline drains
      }
      if (!r->complete) out.complete = false;
      const size_t begin = c * chunk_rows;
      const size_t rows = std::min(chunk_rows, batch - begin);
      for (size_t q = 0; q < rows && q < r->rows_examined.size(); q++) {
        out.rows_examined[begin + q] += r->rows_examined[q];
      }
      shard_results.emplace_back(s, &r.value());
    }
    if (shard_results.empty()) return;  // fully shed chunk: padding stays
    const size_t begin = c * chunk_rows;
    MergeRows(shard_results, maps, begin,
              std::min(chunk_rows, batch - begin), k, &out.neighbors);
  };

  // One schedule; the only free choice is who runs the tasks. At width 0
  // pool helpers drain them and this thread only merges, folding each
  // chunk into the output while later chunks are still searching. An
  // explicit width is a total budget: no helpers, this thread runs each
  // chunk's tasks itself with every per-chunk search at that width.
  const bool caller_runs = params.num_threads != 0;
  if (!caller_runs) {
    ThreadPool& pool = GlobalThreadPool();
    const CancelToken* helper_token =
        caller_token != nullptr ? &st->token : nullptr;
    const size_t helpers = std::min(pool.num_threads(), st->results.size());
    for (size_t h = 0; h < helpers; h++) {
      pool.Submit([st, helper_token] {
        while (RunNextTask(*st, helper_token)) {
        }
      });
    }
  }
  for (size_t m = 0; m < num_chunks; m++) {
    if (caller_runs) {
      for (size_t s = 0; s < num_shards; s++) RunNextTask(*st, caller_token);
    }
    std::optional<size_t> c = NextChunk(*st, caller_token);
    if (!c.has_value()) {
      // Expired and the grace drain went dry: abandon the stragglers.
      // They hold the shared state (and observe the cancelled derived
      // token at their next boundary), so they finish harmlessly after
      // we return. Unpopped chunks keep their (kInvalidShardEntry, +inf)
      // padding — well-formed.
      out.complete = false;
      break;
    }
    merge_chunk(*c);
  }
  out.host_seconds = host.Seconds();
  out.host_qps = out.host_seconds > 0
                     ? static_cast<double>(batch) / out.host_seconds
                     : 0.0;

  // Errors surface in deterministic (chunk, shard) order, over the
  // chunks whose results we own (all of them unless abandoned).
  for (size_t c = 0; c < num_chunks; c++) {
    if (chunk_popped[c] == 0) continue;
    for (size_t s = 0; s < num_shards; s++) {
      const Result<SearchResult>& r = *st->results[c * num_shards + s];
      if (!r.ok() && !IsCancelMarker(r.status())) return r.status();
    }
  }

  // Metadata aggregation, in fixed (shard, chunk) order so the result
  // is scheduling-independent: counters sum over everything and
  // host_threads takes the widest task. Each shard's modeled time
  // re-prices its summed chunk counters at the full-batch launch shape:
  // the shard's device streams its chunks back-to-back (asynchronous
  // launches overlap), so the batch fills the device exactly as an
  // unchunked run would and the serial per-query iteration floor is
  // paid once — only the per-launch overhead multiplies with the chunk
  // count (already summed into counters.kernel_launches). With a single
  // chunk this reduces to the chunk's own estimate. The slowest shard
  // contributes the reported breakdown. Under cancellation only popped
  // chunks' finished results contribute (partial work is still real
  // work, but unfinished slots are unreadable).
  double slowest_seconds = 0.0;
  bool have_meta = false;
  out.host_threads = 0;
  for (size_t s = 0; s < num_shards; s++) {
    KernelCounters shard_counters;
    const SearchResult* first_done = nullptr;
    for (size_t c = 0; c < num_chunks; c++) {
      if (chunk_popped[c] == 0) continue;
      const Result<SearchResult>& r = *st->results[c * num_shards + s];
      if (!r.ok()) continue;  // cancel marker (errors returned above)
      shard_counters.Add(r->counters);
      out.host_threads = std::max(out.host_threads, r->host_threads);
      if (first_done == nullptr) first_done = &r.value();
    }
    if (first_done == nullptr) continue;
    out.counters.Add(shard_counters);
    KernelLaunchConfig launch = first_done->launch;
    launch.batch = batch;  // the shape every chunk shares, at full fill
    const CostBreakdown shard_cost =
        EstimateKernelTime(device, launch, shard_counters);
    if (!have_meta || shard_cost.total > slowest_seconds) {
      have_meta = true;
      slowest_seconds = shard_cost.total;
      out.cost = shard_cost;
      out.launch = launch;
      out.algo_used = first_done->algo_used;
      out.team_size_used = first_done->team_size_used;
    }
  }

  // Overlap model: per-chunk merges hide under still-running scans, so
  // a batch pays the slowest shard's summed chunk time plus only the
  // merge tail of the final chunk. A single chunk (the barrier schedule)
  // pays the whole batch's merge after its global wait.
  const size_t last_rows = batch - (num_chunks - 1) * chunk_rows;
  out.modeled_seconds =
      slowest_seconds + kMergeOverheadPerQueryShard *
                            static_cast<double>(last_rows * num_shards);
  out.modeled_qps = out.modeled_seconds > 0
                        ? static_cast<double>(batch) / out.modeled_seconds
                        : 0.0;
  return out;
}

}  // namespace cagra
