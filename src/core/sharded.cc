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

/// How long the merger waits for already-cancelling shards after it
/// observes expiry, before abandoning whoever still hasn't published.
/// Cooperative cancellation inside a search is observed within a few
/// iterations (tens of microseconds here), so a small grace drains every
/// well-behaved shard; only a genuinely stalled one gets abandoned.
constexpr std::chrono::milliseconds kCancelDrainGrace{2};

/// Poll period of the merger's wait under a caller token: bounds how
/// late a manual Cancel() from another thread is forwarded to the
/// helpers while no shard arrives.
constexpr std::chrono::milliseconds kCancelPollPeriod{1};

/// The marker a shard records when it skips its scan because the token
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

/// Heap-owned state of one sharded search, shared (shared_ptr) between
/// the merging caller and every pool helper. The caller may return
/// before every shard has run — abandoned helpers keep the state alive
/// and finish against it harmlessly — so nothing here references the
/// caller's stack: the queries are copied in up front.
///
/// Synchronization contract (queue-published, not mutex-guarded — so
/// outside CAGRA_GUARDED_BY's vocabulary; the mutex+2cv protocol lives
/// inside the annotated MpscBoundedQueue member `ready`):
///  - `next_shard` hands each shard to exactly one thread.
///  - `results[s]` is written by that thread alone, which then pushes s
///    into `ready`; the consumer's pop acquires, so a popped shard's
///    slot is ordered-before the read. Slots of never-popped shards
///    still belong to (possibly abandoned) helpers and must not be
///    read — Search tracks popped shards explicitly.
///  - Everything else is set before the first shard is claimed and
///    read-only afterwards (`token` is internally atomic).
struct ShardedRun {
  ShardedRun(const std::vector<CagraIndex>& shards_in,
             const Matrix<float>& queries_in, const SearchParams& params_in,
             const CancelToken* parent)
      : shards(&shards_in),
        queries(queries_in),
        params(params_in),
        results(shards_in.size()),
        ready(shards_in.size()),
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
  }

  const std::vector<CagraIndex>* shards;
  const Matrix<float> queries;
  const SearchParams params;
  std::vector<std::optional<Result<SearchResult>>> results;
  std::atomic<size_t> next_shard{0};
  /// Carries shard ids only (results are preallocated above), sized to
  /// hold every shard: a helper that finishes never blocks behind a
  /// busy merger — and an abandoned helper's final push cannot block
  /// either.
  MpscBoundedQueue<size_t> ready;
  CancelToken token;
};

/// Claims the next shard and searches the whole batch on it under
/// `token`: the caller's own token for shards the caller runs, the
/// derived one for helpers, null for a token-free search. Returns false
/// once every shard is claimed. Touches only the shared state, so it
/// runs correctly even after a cancelled merger has returned.
bool RunNextShard(ShardedRun& run, const CancelToken* token) {
  const size_t s = run.next_shard.fetch_add(1, std::memory_order_relaxed);
  if (s >= run.results.size()) return false;
  std::optional<Result<SearchResult>>& slot = run.results[s];

  CAGRA_FAULT_POINT("shard_scan_stall");
  Status injected = CAGRA_FAULT_STATUS("shard_scan_fail");
  if (!injected.ok()) {
    slot.emplace(injected);
  } else if (token != nullptr && token->Expired()) {
    // Shed before scanning once the search is cancelled: nobody is
    // waiting for this shard anymore.
    slot.emplace(CancelMarker(*token));
  } else {
    SearchParams p = run.params;
    p.cancel = token;
    slot.emplace(cagra::Search((*run.shards)[s], run.queries, p));
  }
  CAGRA_FAULT_POINT("queue_push_stall");
  run.ready.Push(s);
  return true;
}

/// The merger's one wait for the next finished shard. With a caller
/// token it forwards that token into the derived one on every step, so
/// helpers see a manual Cancel() at their next boundary; once expired it
/// grants kCancelDrainGrace for in-flight shards to publish, then
/// reports nullopt — the signal to abandon the stragglers.
std::optional<size_t> NextShard(ShardedRun& run, const CancelToken* caller) {
  if (caller == nullptr) return run.ready.Pop();
  while (true) {
    if (caller->Expired()) {
      run.token.Cancel();
      return run.ready.PopUntil(CancelToken::Clock::now() + kCancelDrainGrace);
    }
    auto until = CancelToken::Clock::now() + kCancelPollPeriod;
    if (caller->has_deadline() && caller->deadline() < until) {
      until = caller->deadline();
    }
    std::optional<size_t> s = run.ready.PopUntil(until);
    if (s.has_value()) return s;
  }
}

}  // namespace

void MergeShardTopK(const ShardMergeList* lists, size_t num_lists, size_t k,
                    uint32_t* out_ids, float* out_distances) {
  BoundedHeap heap(k);
  for (size_t l = 0; l < num_lists; l++) {
    const ShardMergeList& list = lists[l];
    for (size_t i = 0; i < list.len; i++) {
      const uint32_t local = list.ids[i];
      if (local >= list.id_map_size) continue;  // padding
      const uint32_t id = list.id_map[local];
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
    const std::vector<IdMapPtr>& maps, size_t k, NeighborList* out) const {
  const size_t num_lists = shard_results.size();
  std::vector<ShardMergeList> lists(num_lists);
  for (size_t q = 0; q < out->ids.size() / k; q++) {
    for (size_t l = 0; l < num_lists; l++) {
      const size_t s = shard_results[l].first;
      const NeighborList& n = shard_results[l].second->neighbors;
      lists[l] = {n.distances.data() + q * k, n.ids.data() + q * k, k,
                  maps[s]->data(), maps[s]->size()};
    }
    MergeShardTopK(lists.data(), num_lists, k, out->ids.data() + q * k,
                   out->distances.data() + q * k);
  }
}

Result<SearchResult> ShardedCagraIndex::Search(const Matrix<float>& queries,
                                               const SearchParams& params) const {
  CAGRA_RETURN_IF_ERROR(ValidateSearch(params));

  const size_t batch = queries.rows();
  const size_t k = params.k;
  if (batch == 0) {  // nothing to search
    SearchResult empty;
    empty.neighbors.k = k;
    return empty;
  }

  const size_t num_shards = shards_.size();
  const CancelToken* caller_token = params.cancel;
  // Pinned once for the whole search (see PinIdMaps).
  const std::vector<IdMapPtr> maps = PinIdMaps();

  Timer host;
  auto run =
      std::make_shared<ShardedRun>(shards_, queries, params, caller_token);

  // One schedule; the only free choice is who runs the shards. An
  // explicit width is a total budget: no helpers, this thread runs every
  // shard itself, each search at that width. At width 0 pool helpers run
  // them and this thread only waits and merges — it must not run a shard
  // itself, or a stalled shard would hold it past the deadline that
  // abandonment guarantees.
  if (params.num_threads != 0) {
    while (RunNextShard(*run, caller_token)) {
    }
  } else {
    ThreadPool& pool = GlobalThreadPool();
    const CancelToken* helper_token =
        caller_token != nullptr ? &run->token : nullptr;
    const size_t helpers = std::min(pool.num_threads(), num_shards);
    for (size_t h = 0; h < helpers; h++) {
      pool.Submit([run, helper_token] {
        while (RunNextShard(*run, helper_token)) {
        }
      });
    }
  }

  // Which shards the merger has popped. A popped shard's slot is written
  // and ordered-before the pop, so only popped shards may be read below —
  // under abandonment the other slots still belong to live helpers.
  SearchResult out;
  std::vector<uint8_t> popped(num_shards, 0);
  for (size_t m = 0; m < num_shards; m++) {
    std::optional<size_t> s = NextShard(*run, caller_token);
    if (!s.has_value()) {
      // Expired and the grace drain went dry: abandon the stragglers.
      // They hold the shared state (and observe the cancelled derived
      // token at their next boundary), so they finish harmlessly after
      // we return.
      out.complete = false;
      break;
    }
    popped[*s] = 1;
  }

  // Aggregation in fixed shard order, so the result (and the error a
  // failed shard surfaces) is scheduling-independent: counters and
  // rows_examined sum over the shards that finished, host_threads takes
  // the widest, and the slowest shard — what the parallel devices wait
  // for — contributes the reported cost breakdown. A shard that shed its
  // scan at the deadline or was abandoned leaves only the others in the
  // merge: best-effort rows.
  std::vector<std::pair<size_t, const SearchResult*>> finished;
  double slowest_seconds = 0.0;
  out.host_threads = 0;
  out.rows_examined.assign(batch, 0);
  for (size_t s = 0; s < num_shards; s++) {
    if (popped[s] == 0) continue;
    const Result<SearchResult>& r = *run->results[s];
    if (!r.ok()) {
      if (!IsCancelMarker(r.status())) return r.status();
      out.complete = false;
      continue;
    }
    if (!r->complete) out.complete = false;
    for (size_t q = 0; q < batch; q++) {
      out.rows_examined[q] += r->rows_examined[q];
    }
    out.counters.Add(r->counters);
    out.host_threads = std::max(out.host_threads, r->host_threads);
    if (finished.empty() || r->cost.total > slowest_seconds) {
      slowest_seconds = r->cost.total;
      out.cost = r->cost;
      out.launch = r->launch;
      out.algo_used = r->algo_used;
      out.team_size_used = r->team_size_used;
    }
    finished.emplace_back(s, &r.value());
  }
  out.neighbors.k = k;
  out.neighbors.ids.resize(batch * k);
  out.neighbors.distances.resize(batch * k);
  MergeRows(finished, maps, k, &out.neighbors);
  out.host_seconds = host.Seconds();
  out.host_qps = out.host_seconds > 0
                     ? static_cast<double>(batch) / out.host_seconds
                     : 0.0;

  // One launch per shard, each on its own device: the batch waits for
  // the slowest shard, then the host gathers and merges every
  // (query, shard) list.
  out.modeled_seconds =
      slowest_seconds + kMergeOverheadPerQueryShard *
                            static_cast<double>(batch * num_shards);
  out.modeled_qps = out.modeled_seconds > 0
                        ? static_cast<double>(batch) / out.modeled_seconds
                        : 0.0;
  return out;
}

}  // namespace cagra
