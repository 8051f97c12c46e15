#include "core/index.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/search_internal.h"
#include "dataset/io.h"
#include "gpusim/counters.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace cagra {

CagraIndex::CagraIndex() : core_(std::make_shared<Core>()) {
  core_->snapshot = std::make_shared<const IndexSnapshot>();
}

CagraIndex::CagraIndex(const CagraIndex& other) : CagraIndex() {
  // The copy shares the source's current version (cheap: one shared_ptr
  // per tier) and gets its own writer state, so mutating either side
  // copy-on-writes away from the other. Like any copy, this reads
  // `other` at one instant — callers racing a writer on `other` get
  // some published version, never a torn one.
  StoreSnapshot(other.snapshot());
  core_->next_external_id.store(
      other.core_->next_external_id.load(std::memory_order_acquire),
      std::memory_order_relaxed);
}

CagraIndex& CagraIndex::operator=(const CagraIndex& other) {
  if (this != &other) {
    // Copy-and-swap: the old core is dropped whole, so an in-flight
    // background compaction keeps it alive and publishes into the
    // orphan harmlessly.
    CagraIndex copy(other);
    std::swap(core_, copy.core_);
  }
  return *this;
}

void CagraIndex::StoreSnapshot(std::shared_ptr<const IndexSnapshot> snap) {
  std::atomic_store_explicit(&core_->snapshot, std::move(snap),
                             std::memory_order_release);
}

Result<CagraIndex> CagraIndex::Build(const Matrix<float>& dataset,
                                     const BuildParams& params,
                                     BuildStats* stats) {
  if (dataset.rows() == 0 || dataset.dim() == 0) {
    return Status::InvalidArgument("dataset is empty");
  }
  if (dataset.rows() > kMaxDatasetSize) {
    return Status::CapacityExceeded(
        "dataset exceeds 2^31-1 vectors (MSB parent-flag limit, §IV-B4)");
  }
  if (params.graph_degree < 2) {
    return Status::InvalidArgument("graph_degree must be >= 2");
  }

  Timer total;
  BuildStats local;

  NnDescentParams nnd;
  nnd.k = params.intermediate_degree != 0 ? params.intermediate_degree
                                          : 2 * params.graph_degree;
  // d_init cannot exceed n - 1 distinct neighbors.
  if (nnd.k >= dataset.rows()) nnd.k = dataset.rows() - 1;
  nnd.sample_rate = params.nn_descent_sample_rate;
  nnd.max_iterations = params.nn_descent_max_iterations;
  nnd.termination_delta = params.nn_descent_termination_delta;
  nnd.seed = params.seed;

  FixedDegreeGraph initial =
      BuildKnnGraphNnDescent(dataset, nnd, params.metric, &local.knn);

  BuildParams effective = params;
  if (effective.graph_degree > initial.degree()) {
    effective.graph_degree = initial.degree();
  }
  FixedDegreeGraph optimized =
      OptimizeGraph(initial, effective, dataset, &local.optimize);

  Timer indexing;
  CagraIndex index;
  auto snap = std::make_shared<IndexSnapshot>();
  snap->num_rows = dataset.rows();
  snap->num_dims = dataset.dim();
  snap->metric = params.metric;
  snap->dataset = std::make_shared<const Matrix<float>>(dataset);
  snap->graph =
      std::make_shared<const FixedDegreeGraph>(std::move(optimized));
  index.StoreSnapshot(std::move(snap));
  index.core_->next_external_id.store(
      static_cast<uint32_t>(dataset.rows()), std::memory_order_relaxed);
  local.indexing_seconds = indexing.Seconds();
  local.total_seconds = total.Seconds();
  if (stats != nullptr) *stats = local;
  return index;
}

Result<CagraIndex> CagraIndex::FromGraph(const Matrix<float>& dataset,
                                         FixedDegreeGraph graph,
                                         Metric metric) {
  if (dataset.rows() != graph.num_nodes()) {
    return Status::InvalidArgument(
        "graph node count does not match dataset rows");
  }
  if (dataset.rows() > kMaxDatasetSize) {
    return Status::CapacityExceeded(
        "dataset exceeds 2^31-1 vectors (MSB parent-flag limit, §IV-B4)");
  }
  CagraIndex index;
  auto snap = std::make_shared<IndexSnapshot>();
  snap->num_rows = dataset.rows();
  snap->num_dims = dataset.dim();
  snap->metric = metric;
  snap->dataset = std::make_shared<const Matrix<float>>(dataset);
  snap->graph = std::make_shared<const FixedDegreeGraph>(std::move(graph));
  index.StoreSnapshot(std::move(snap));
  index.core_->next_external_id.store(
      static_cast<uint32_t>(dataset.rows()), std::memory_order_relaxed);
  return index;
}

void CagraIndex::EnableHalfPrecision() {
  MutexLock lock(core_->writer_mu);
  const std::shared_ptr<const IndexSnapshot> cur = snapshot();
  if (cur->HasHalf() || cur->dataset == nullptr || cur->dataset->empty()) {
    return;
  }
  auto next = std::make_shared<IndexSnapshot>(*cur);
  next->half = std::make_shared<const Matrix<Half>>(ToHalf(*cur->dataset));
  StoreSnapshot(std::move(next));
}

void CagraIndex::EnableInt8Quantization() {
  MutexLock lock(core_->writer_mu);
  const std::shared_ptr<const IndexSnapshot> cur = snapshot();
  if (cur->HasInt8() || cur->dataset == nullptr || cur->dataset->empty()) {
    return;
  }
  auto next = std::make_shared<IndexSnapshot>(*cur);
  next->int8 =
      std::make_shared<const QuantizedDataset>(QuantizeInt8(*cur->dataset));
  StoreSnapshot(std::move(next));
}

void CagraIndex::EnablePq(const PqTrainParams& params) {
  MutexLock lock(core_->writer_mu);
  const std::shared_ptr<const IndexSnapshot> cur = snapshot();
  if (cur->HasPq() || cur->dataset == nullptr || cur->dataset->empty()) {
    return;
  }
  auto next = std::make_shared<IndexSnapshot>(*cur);
  next->pq =
      std::make_shared<const PqDataset>(TrainPq(*cur->dataset, params));
  StoreSnapshot(std::move(next));
}

namespace {

/// Base seed of the per-inserted-row greedy neighbor search (offset by
/// the same 0x1000003 row stride the batch search uses): inserts are
/// deterministic for a given index state and insertion order.
constexpr uint64_t kInsertSeed = 0x1e55ed5eedULL;

}  // namespace

Status CagraIndex::Add(const Matrix<float>& rows,
                       std::vector<uint32_t>* external_ids) {
  using internal_search::DatasetView;
  using internal_search::kInvalidEntry;

  MutexLock lock(core_->writer_mu);
  const std::shared_ptr<const IndexSnapshot> cur = snapshot();
  if (cur->out_of_core()) {
    return Status::FailedPrecondition(
        "Add on an out-of-core index: the mapped fp32 tier cannot grow in "
        "place — Load() the index RAM-resident (or rebuild) before "
        "inserting");
  }
  if (cur->graph == nullptr || cur->num_rows == 0) {
    return Status::FailedPrecondition(
        "Add requires a built index (Build/FromGraph/Load first)");
  }
  if (rows.rows() == 0) {
    if (external_ids != nullptr) external_ids->clear();
    return Status::Ok();
  }
  if (rows.dim() != cur->num_dims) {
    return Status::InvalidArgument("row dim does not match index dim");
  }
  if (rows.rows() > kMaxDatasetSize - cur->num_rows) {
    return Status::CapacityExceeded(
        "insert exceeds 2^31-1 vectors (MSB parent-flag limit, §IV-B4)");
  }

  const size_t n0 = cur->num_rows;
  const size_t n_new = rows.rows();
  const size_t n1 = n0 + n_new;
  const size_t dim = cur->num_dims;
  const size_t deg = cur->graph->degree();

  // Copy-on-write working copies of the two structures the insert
  // rewires; every other tier extends after the loop.
  auto data = std::make_shared<Matrix<float>>(n1, dim);
  std::copy(cur->dataset->data().begin(), cur->dataset->data().end(),
            data->mutable_data()->begin());
  auto graph = std::make_shared<FixedDegreeGraph>(n1, deg);
  if (deg != 0) {
    const std::vector<uint32_t>& src = cur->graph->edges();
    std::copy(src.begin(), src.end(), graph->MutableNeighbors(0));
  }

  // The tombstone bitmap grows to the new row count before the loop: its
  // greedy searches reach new ids past the old bitmap, and the published
  // successor carries the same copy.
  std::shared_ptr<std::vector<uint64_t>> tombstones;
  if (cur->tombstones != nullptr) {
    tombstones = std::make_shared<std::vector<uint64_t>>(*cur->tombstones);
    tombstones->resize((n1 + 63) / 64, 0);
  }

  // The working state the greedy searches run against. num_rows
  // advances as rows link in, so later rows of the batch can find (and
  // connect to) earlier ones.
  IndexSnapshot work;
  work.dataset = data;
  work.graph = graph;
  work.tombstones = tombstones;
  work.num_dims = dim;
  work.num_dead = cur->num_dead;
  work.metric = cur->metric;

  SearchParams sp;
  sp.k = deg;
  sp.itopk = std::max<size_t>(64, 2 * deg);
  sp.algo = SearchAlgo::kSingleCta;
  const internal_search::ResolvedConfig cfg =
      internal_search::ResolveConfig(sp, deg, n1);
  internal_search::SearchScratch scratch;
  KernelCounters counters;  // inserts are host work; counters discarded
  std::vector<uint32_t> nbr_ids(deg);
  std::vector<float> nbr_dists(deg);

  for (size_t i = 0; i < n_new; i++) {
    const uint32_t u = static_cast<uint32_t>(n0 + i);
    std::copy(rows.Row(i), rows.Row(i) + dim, data->MutableRow(u));
    // Greedy-search the working graph (rows [0, u)) for u's nearest
    // live neighbors. Emission filters tombstones, so a dead node can
    // route the walk but never becomes an edge of u.
    work.num_rows = u;
    const DatasetView view(work, Precision::kFp32);
    internal_search::SearchSingleCta(view, *graph, rows.Row(i), cfg,
                                     kInsertSeed + 0x1000003ULL * u,
                                     nbr_ids.data(), nbr_dists.data(),
                                     &counters, &scratch);
    uint32_t* un = graph->MutableNeighbors(u);
    size_t filled = 0;
    for (size_t j = 0; j < deg; j++) {
      if (nbr_ids[j] == kInvalidEntry) continue;
      un[filled++] = nbr_ids[j];
    }
    for (size_t j = filled; j < deg; j++) un[j] = FixedDegreeGraph::kInvalid;

    // Reverse-edge repair: patch u into each new neighbor's list — into
    // a padding slot when one exists, else over the farthest current
    // edge when u is closer, so every list keeps its d best-known
    // neighbors and u is reachable from the old graph.
    for (size_t j = 0; j < filled; j++) {
      const uint32_t v = un[j];
      uint32_t* vn = graph->MutableNeighbors(v);
      size_t pad = deg;
      for (size_t s = 0; s < deg; s++) {
        if (vn[s] == FixedDegreeGraph::kInvalid) {
          pad = s;
          break;
        }
      }
      if (pad != deg) {
        vn[pad] = u;
        continue;
      }
      const float* vrow = data->Row(v);
      const float d_new = ComputeDistance(cur->metric, vrow, data->Row(u), dim);
      size_t worst_s = 0;
      float worst_d = ComputeDistance(cur->metric, vrow, data->Row(vn[0]), dim);
      for (size_t s = 1; s < deg; s++) {
        const float d =
            ComputeDistance(cur->metric, vrow, data->Row(vn[s]), dim);
        if (d > worst_d) {
          worst_d = d;
          worst_s = s;
        }
      }
      if (d_new < worst_d) vn[worst_s] = u;
    }
  }

  auto next = std::make_shared<IndexSnapshot>();
  next->dataset = data;
  next->graph = graph;
  next->tombstones = std::move(tombstones);
  next->num_rows = n1;
  next->num_dims = dim;
  next->num_dead = cur->num_dead;
  next->metric = cur->metric;
  next->mmap = nullptr;

  // Extend the enabled compressed tiers with the same deterministic
  // encodes the originals used; existing rows' bytes are untouched.
  if (cur->HasHalf()) {
    auto half = std::make_shared<Matrix<Half>>(n1, dim);
    std::copy(cur->half->data().begin(), cur->half->data().end(),
              half->mutable_data()->begin());
    const Matrix<Half> tail = ToHalf(rows);
    std::copy(tail.data().begin(), tail.data().end(),
              half->mutable_data()->begin() +
                  static_cast<std::ptrdiff_t>(n0 * dim));
    next->half = std::move(half);
  }
  if (cur->HasInt8()) {
    auto int8 = std::make_shared<QuantizedDataset>();
    int8->scale = cur->int8->scale;
    int8->offset = cur->int8->offset;
    int8->codes = Matrix<int8_t>(n1, dim);
    std::copy(cur->int8->codes.data().begin(), cur->int8->codes.data().end(),
              int8->codes.mutable_data()->begin());
    for (size_t i = 0; i < n_new; i++) {
      EncodeInt8Row(*int8, rows.Row(i), int8->codes.MutableRow(n0 + i));
    }
    next->int8 = std::move(int8);
  }
  if (cur->HasPq()) {
    next->pq =
        std::make_shared<const PqDataset>(PqEncodeAppend(*cur->pq, rows));
  }

  const uint32_t base =
      core_->next_external_id.load(std::memory_order_relaxed);
  if (cur->id_map != nullptr || base != n0) {
    auto map = std::make_shared<std::vector<uint32_t>>();
    map->reserve(n1);
    if (cur->id_map != nullptr) {
      map->assign(cur->id_map->begin(), cur->id_map->end());
    } else {
      for (uint32_t i = 0; i < n0; i++) map->push_back(i);
    }
    for (uint32_t i = 0; i < n_new; i++) map->push_back(base + i);
    next->id_map = std::move(map);
  }
  // else: external ids continue the identity mapping; id_map stays null.

  CAGRA_RETURN_IF_ERROR(CAGRA_FAULT_STATUS("graph_swap"));
  StoreSnapshot(std::move(next));
  core_->next_external_id.store(base + static_cast<uint32_t>(n_new),
                                std::memory_order_relaxed);
  if (external_ids != nullptr) {
    external_ids->clear();
    for (uint32_t i = 0; i < n_new; i++) external_ids->push_back(base + i);
  }
  return Status::Ok();
}

Status CagraIndex::Remove(const uint32_t* external_ids, size_t n) {
  MutexLock lock(core_->writer_mu);
  const std::shared_ptr<const IndexSnapshot> cur = snapshot();
  if (cur->graph == nullptr || cur->num_rows == 0) {
    return Status::FailedPrecondition(
        "Remove requires a built index (Build/FromGraph/Load first)");
  }
  if (n == 0) return Status::Ok();

  // Validate every id before touching anything: one bad id fails the
  // whole call with kNotFound and publishes nothing.
  std::vector<uint32_t> internal(n);
  for (size_t i = 0; i < n; i++) {
    const uint32_t row = cur->InternalId(external_ids[i]);
    if (row == IndexSnapshot::kNoInternal || cur->Deleted(row)) {
      return Status::NotFound("external id " +
                              std::to_string(external_ids[i]) +
                              " is not a live row");
    }
    internal[i] = row;
  }

  auto tomb = cur->tombstones != nullptr
                  ? std::make_shared<std::vector<uint64_t>>(*cur->tombstones)
                  : std::make_shared<std::vector<uint64_t>>(
                        (cur->num_rows + 63) / 64, 0);
  size_t newly = 0;
  for (const uint32_t row : internal) {
    uint64_t& word = (*tomb)[row >> 6];
    const uint64_t bit = 1ull << (row & 63);
    if ((word & bit) == 0) {  // duplicate ids within one batch count once
      word |= bit;
      newly++;
    }
  }
  auto next = std::make_shared<IndexSnapshot>(*cur);
  next->tombstones = std::move(tomb);
  next->num_dead = cur->num_dead + newly;

  const size_t dead = next->num_dead;
  const size_t total = next->num_rows;
  const bool resident = !next->out_of_core();
  CAGRA_RETURN_IF_ERROR(CAGRA_FAULT_STATUS("graph_swap"));
  StoreSnapshot(std::move(next));

  // Auto-compaction: past the dead-fraction trigger, rebuild off the
  // global pool while readers keep searching the published snapshot.
  // Out-of-core indexes only tombstone (their fp32 tier cannot be
  // rewritten in place); they compact at Save time.
  const CompactionOptions& opt = core_->compaction;
  if (resident && dead >= opt.min_dead_rows &&
      static_cast<double>(dead) >=
          opt.trigger_fraction * static_cast<double>(total)) {
    bool launch = false;
    {
      MutexLock bg(core_->bg_mu);
      if (!core_->bg_inflight) {
        core_->bg_inflight = true;
        launch = true;
      }
    }
    if (launch) {
      // The task holds the core (not the index): destroying the index
      // mid-pass is safe, the orphan publish is simply unobservable.
      std::shared_ptr<Core> core = core_;
      GlobalThreadPool().Submit([core] { BackgroundCompact(core); });
    }
  }
  return Status::Ok();
}

std::shared_ptr<const IndexSnapshot> CagraIndex::CompactSnapshot(
    const IndexSnapshot& snap) {
  const size_t n = snap.num_rows;
  const size_t dim = snap.num_dims;
  const size_t deg = snap.degree();

  // Plan: live rows renumber densely in order (order preservation keeps
  // the id map strictly increasing, which InternalId's binary search
  // relies on).
  std::vector<uint32_t> keep;
  keep.reserve(snap.live_rows());
  std::vector<uint32_t> remap(n, FixedDegreeGraph::kInvalid);
  for (uint32_t v = 0; v < n; v++) {
    if (snap.Deleted(v)) continue;
    remap[v] = static_cast<uint32_t>(keep.size());
    keep.push_back(v);
  }
  const size_t m = keep.size();

  auto data = std::make_shared<Matrix<float>>(m, dim);
  for (size_t r = 0; r < m; r++) {
    const float* src = snap.Fp32Row(keep[r]);
    std::copy(src, src + dim, data->MutableRow(r));
  }

  // Graph repair, DiskANN-style delete consolidation: each survivor
  // keeps its live edges, and the holes its dead neighbors leave refill
  // with the nearest live nodes one hop through those dead neighbors —
  // local connectivity survives losing a routing node. Fully
  // deterministic: candidates rank by (distance, new id).
  auto graph = std::make_shared<FixedDegreeGraph>(m, deg);
  std::vector<uint32_t> dead_nbrs;
  std::vector<std::pair<float, uint32_t>> cand;
  for (size_t r = 0; r < m; r++) {
    const uint32_t v = keep[r];
    const uint32_t* old_edges = snap.graph->Neighbors(v);
    uint32_t* out = graph->MutableNeighbors(r);
    size_t filled = 0;
    dead_nbrs.clear();
    for (size_t s = 0; s < deg; s++) {
      const uint32_t w = old_edges[s];
      if (w >= n) continue;  // kInvalid padding
      if (snap.Deleted(w)) {
        dead_nbrs.push_back(w);
        continue;
      }
      out[filled++] = remap[w];
    }
    if (filled < deg && !dead_nbrs.empty()) {
      cand.clear();
      for (const uint32_t w : dead_nbrs) {
        const uint32_t* wn = snap.graph->Neighbors(w);
        for (size_t s = 0; s < deg; s++) {
          const uint32_t x = wn[s];
          if (x >= n || x == v || snap.Deleted(x)) continue;
          cand.emplace_back(0.0f, remap[x]);
        }
      }
      // Dedup (by new id, against the pool and the kept edges), then
      // rank by distance to v.
      std::sort(cand.begin(), cand.end(),
                [](const std::pair<float, uint32_t>& a,
                   const std::pair<float, uint32_t>& b) {
                  return a.second < b.second;
                });
      cand.erase(std::unique(cand.begin(), cand.end(),
                             [](const std::pair<float, uint32_t>& a,
                                const std::pair<float, uint32_t>& b) {
                               return a.second == b.second;
                             }),
                 cand.end());
      const float* vrow = data->Row(r);
      size_t kept = 0;
      for (auto& c : cand) {
        bool dup = false;
        for (size_t s = 0; s < filled && !dup; s++) {
          dup = out[s] == c.second;
        }
        if (dup) continue;
        c.first = ComputeDistance(snap.metric, vrow, data->Row(c.second), dim);
        cand[kept++] = c;
      }
      cand.resize(kept);
      std::sort(cand.begin(), cand.end());
      for (const auto& c : cand) {
        if (filled == deg) break;
        out[filled++] = c.second;
      }
    }
    // Remaining holes stay kInvalid (the kernels skip padding).
  }

  auto next = std::make_shared<IndexSnapshot>();
  next->dataset = std::move(data);
  next->graph = std::move(graph);
  next->num_rows = m;
  next->num_dims = dim;
  next->metric = snap.metric;
  // num_dead = 0, tombstones = null: the compacted index is dense.

  // External ids survive the renumbering.
  auto map = std::make_shared<std::vector<uint32_t>>(m);
  for (size_t r = 0; r < m; r++) (*map)[r] = snap.ExternalId(keep[r]);
  next->id_map = std::move(map);

  if (snap.HasHalf()) {
    auto half = std::make_shared<Matrix<Half>>(m, dim);
    for (size_t r = 0; r < m; r++) {
      const Half* src = snap.half->Row(keep[r]);
      std::copy(src, src + dim, half->MutableRow(r));
    }
    next->half = std::move(half);
  }
  if (snap.HasInt8()) {
    auto int8 = std::make_shared<QuantizedDataset>();
    int8->scale = snap.int8->scale;
    int8->offset = snap.int8->offset;
    int8->codes = Matrix<int8_t>(m, dim);
    for (size_t r = 0; r < m; r++) {
      const int8_t* src = snap.int8->codes.Row(keep[r]);
      std::copy(src, src + dim, int8->codes.MutableRow(r));
    }
    next->int8 = std::move(int8);
  }
  if (snap.HasPq()) {
    auto pq = std::make_shared<PqDataset>();
    pq->dim = snap.pq->dim;
    pq->dsub = snap.pq->dsub;
    pq->centroids = snap.pq->centroids;
    pq->centroid_norm2 = snap.pq->centroid_norm2;
    pq->rotation = snap.pq->rotation;
    const size_t m_subs = snap.pq->num_subspaces();
    pq->codes = Matrix<uint8_t>(m, m_subs);
    pq->row_norm2.resize(m);
    for (size_t r = 0; r < m; r++) {
      const uint8_t* src = snap.pq->codes.Row(keep[r]);
      std::copy(src, src + m_subs, pq->codes.MutableRow(r));
      pq->row_norm2[r] = snap.pq->row_norm2[keep[r]];
    }
    next->pq = std::move(pq);
  }
  return next;
}

Status CagraIndex::Compact() {
  MutexLock lock(core_->writer_mu);
  const std::shared_ptr<const IndexSnapshot> cur = snapshot();
  if (cur->out_of_core()) {
    return Status::FailedPrecondition(
        "Compact on an out-of-core index: the mapped fp32 tier cannot be "
        "rewritten in place — Save() compacts to a new file instead");
  }
  if (cur->num_dead == 0) return Status::Ok();
  std::shared_ptr<const IndexSnapshot> next = CompactSnapshot(*cur);
  CAGRA_RETURN_IF_ERROR(CAGRA_FAULT_STATUS("graph_swap"));
  StoreSnapshot(std::move(next));
  return Status::Ok();
}

void CagraIndex::BackgroundCompact(const std::shared_ptr<Core>& core) {
  // The expensive rebuild runs against a pinned base version WITHOUT
  // the writer lock — concurrent Adds/Removes/searches proceed freely.
  const std::shared_ptr<const IndexSnapshot> base =
      std::atomic_load_explicit(&core->snapshot, std::memory_order_acquire);
  std::shared_ptr<const IndexSnapshot> next;
  if (base != nullptr && base->num_dead != 0 && !base->out_of_core()) {
    next = CompactSnapshot(*base);
  }
  {
    MutexLock lock(core->writer_mu);
    // Publish only if no writer moved the index while we rebuilt; a
    // stale pass is dropped silently (the next Remove past the trigger
    // schedules a fresh one). The graph_swap fault point models a
    // failed publish.
    if (next != nullptr &&
        std::atomic_load_explicit(&core->snapshot,
                                  std::memory_order_acquire) == base) {
      const Status swap = CAGRA_FAULT_STATUS("graph_swap");
      if (swap.ok()) {
        std::atomic_store_explicit(&core->snapshot, std::move(next),
                                   std::memory_order_release);
      }
    }
  }
  MutexLock bg(core->bg_mu);
  core->bg_inflight = false;
  core->bg_cv.NotifyAll();
}

void CagraIndex::SetCompactionOptions(const CompactionOptions& options) {
  MutexLock lock(core_->writer_mu);
  core_->compaction = options;
}

void CagraIndex::WaitForCompaction() const {
  MutexLock lock(core_->bg_mu);
  while (core_->bg_inflight) core_->bg_cv.Wait(core_->bg_mu);
}

namespace {

constexpr uint64_t kIndexMagic = 0x43414752414958ULL;  // "CAGRAIX"

/// Section flags: the u64 after the graph names the optional trailers
/// that follow it. PQ trailer: header, OPQ rotation, codebooks,
/// centroid norms, codes.
constexpr uint64_t kIndexFlagPq = 1ull << 0;
/// External-id-map trailer (u64 count + u32 ids), written once
/// compaction has renumbered internal rows away from identity.
constexpr uint64_t kIndexFlagIdMap = 1ull << 1;

template <typename T>
bool WriteVec(std::FILE* f, const std::vector<T>& v) {
  return v.empty() ||
         std::fwrite(v.data(), sizeof(T), v.size(), f) == v.size();
}

/// Writes the index file's sections in order: header, dataset, graph,
/// flags, then the trailers the flags name. Each section is an
/// "io_write" fault point.
Status WriteSections(const IndexSnapshot& snap, std::FILE* f,
                     const std::string& path) {
  CAGRA_RETURN_IF_ERROR(CAGRA_FAULT_STATUS("io_write"));
  const uint64_t header[5] = {kIndexMagic, snap.num_rows, snap.num_dims,
                              snap.degree(),
                              static_cast<uint64_t>(snap.metric)};
  if (std::fwrite(header, sizeof(header), 1, f) != 1) {
    return Status::IoError(path + ": header write failed");
  }
  // Fp32Data reads through the active storage tier, so an out-of-core
  // index saves the same bytes a resident one would.
  CAGRA_RETURN_IF_ERROR(CAGRA_FAULT_STATUS("io_write"));
  const size_t n = snap.num_rows * snap.num_dims;
  if (n != 0 && std::fwrite(snap.Fp32Data(), sizeof(float), n, f) != n) {
    return Status::IoError(path + ": dataset write failed");
  }
  CAGRA_RETURN_IF_ERROR(CAGRA_FAULT_STATUS("io_write"));
  if (!WriteVec(f, snap.GraphRef().edges())) {
    return Status::IoError(path + ": graph write failed");
  }
  // Optional trailers: the PQ copy (OPQ rotation + codebooks + centroid
  // norms + codes) travels with the index so a loaded index searches
  // Precision::kPq without retraining — the rotation is part of the
  // codebook's coordinate system and must never be separated from it —
  // and the external id map so results keep reporting stable ids.
  CAGRA_RETURN_IF_ERROR(CAGRA_FAULT_STATUS("io_write"));
  const uint64_t flags = (snap.HasPq() ? kIndexFlagPq : 0) |
                         (snap.id_map != nullptr ? kIndexFlagIdMap : 0);
  if (std::fwrite(&flags, sizeof(flags), 1, f) != 1) {
    return Status::IoError(path + ": flags write failed");
  }
  if (snap.HasPq()) {
    CAGRA_RETURN_IF_ERROR(CAGRA_FAULT_STATUS("io_write"));
    const PqDataset& pq = *snap.pq;
    // row_norm2 is deliberately NOT serialized: its contract is
    // bit-compatibility with the *active* ADC kernel, so the loading
    // host recomputes it from codes + centroid norms.
    const uint64_t pq_header[5] = {pq.dim, pq.dsub, pq.num_subspaces(),
                                   pq.rows(),
                                   pq.HasRotation() ? 1ull : 0ull};
    if (std::fwrite(pq_header, sizeof(pq_header), 1, f) != 1 ||
        !WriteVec(f, pq.rotation) || !WriteVec(f, pq.centroids) ||
        !WriteVec(f, pq.centroid_norm2) || !WriteVec(f, pq.codes.data())) {
      return Status::IoError(path + ": pq write failed");
    }
  }
  if (snap.id_map != nullptr) {
    CAGRA_RETURN_IF_ERROR(CAGRA_FAULT_STATUS("io_write"));
    const uint64_t count = snap.id_map->size();
    if (std::fwrite(&count, sizeof(count), 1, f) != 1 ||
        !WriteVec(f, *snap.id_map)) {
      return Status::IoError(path + ": id map write failed");
    }
  }
  return Status::Ok();
}

/// Reads the index file's sections in order: the one way Load and
/// LoadOutOfCore read it. Claim checks that a section's bytes are all
/// still in the file before anything is allocated for it, in the
/// overflow-safe division form — each factor d of the section's size
/// must satisfy d <= left / bytes-so-far — so no count from a torn or
/// corrupt header can overflow the product or size an allocation the
/// file cannot fill.
class SectionReader {
 public:
  SectionReader(std::FILE* f, uint64_t size, const std::string& path)
      : f_(f), size_(size), left_(size), path_(path) {}

  /// Claims the next section, the product of `dims` elements of T, and
  /// returns its element count; kIoError if the file ends first.
  template <typename T>
  Result<size_t> Claim(const char* what,
                       std::initializer_list<uint64_t> dims) {
    if (std::find(dims.begin(), dims.end(), 0) != dims.end()) {
      return size_t{0};
    }
    uint64_t bytes = sizeof(T);
    for (const uint64_t d : dims) {
      if (d > left_ / bytes) {
        return Status::IoError(path_ + ": " + what +
                               " runs past the end of the file (truncated?)");
      }
      bytes *= d;
    }
    left_ -= bytes;
    return static_cast<size_t>(bytes / sizeof(T));
  }

  /// Reads the `n` elements a Claim<T> just returned into `dst`.
  template <typename T>
  Status Read(const char* what, T* dst, size_t n) {
    if (n != 0 && std::fread(dst, sizeof(T), n, f_) != n) {
      return Status::IoError(path_ + ": " + what + " read failed");
    }
    return Status::Ok();
  }

  /// Claims and reads `n` fixed-size fields.
  template <typename T>
  Status ReadFields(const char* what, T* dst, size_t n = 1) {
    CAGRA_ASSIGN_OR_RETURN(const size_t got, Claim<T>(what, {n}));
    return Read(what, dst, got);
  }

  /// Claims and reads a section into `v`, resized to fit.
  template <typename T>
  Status ReadVec(const char* what, std::initializer_list<uint64_t> dims,
                 std::vector<T>* v) {
    CAGRA_ASSIGN_OR_RETURN(const size_t n, Claim<T>(what, dims));
    v->resize(n);
    return Read(what, v->data(), n);
  }

  /// Byte offset of the next unclaimed section.
  uint64_t offset() const { return size_ - left_; }

  /// Moves the stream to offset(), past a section mapped, not read.
  Status Seek(const char* what) {
    if (::fseeko(f_, static_cast<off_t>(offset()), SEEK_SET) != 0) {
      return Status::IoError(path_ + ": cannot seek past " + what);
    }
    return Status::Ok();
  }

  /// The file must end exactly where its last section ends.
  Status Finish() const {
    if (left_ != 0) {
      return Status::IoError(path_ + ": " + std::to_string(left_) +
                             " bytes past the last section");
    }
    return Status::Ok();
  }

 private:
  std::FILE* f_;
  uint64_t size_;
  uint64_t left_;
  const std::string& path_;
};

/// Syncs the directory holding `path`, so a rename into it is durable.
Status SyncParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open directory " + dir);
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) return Status::IoError(dir + ": directory sync failed");
  return Status::Ok();
}

}  // namespace

Status CagraIndex::Save(const std::string& path) const {
  // Save replaces regular files only: writing through a symlink, to a
  // device or into a FIFO is refused before anything is created.
  struct stat st;
  if (::lstat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
    return Status::IoError(path + ": not a regular file");
  }
  // Compact-on-save: a tombstoned index serializes its compacted form —
  // dead rows dropped, graph repaired, ids remapped — so Load always
  // yields a dense index. This is also how an out-of-core index (whose
  // in-memory form only tombstones) compacts: Save, then LoadOutOfCore.
  const std::shared_ptr<const IndexSnapshot> cur = snapshot();
  const std::shared_ptr<const IndexSnapshot> snap =
      cur->num_dead != 0 ? CompactSnapshot(*cur) : cur;
  // Write a fresh file beside the target (same directory, so the rename
  // stays on one file system), then rename it over the target: readers
  // see the old file or the new one, never a torn one, and a mapping of
  // the old file (an out-of-core index saving over its own backing
  // file) keeps the old inode alive. Pid + counter make the name unique
  // per call; O_EXCL never reuses a stranger's file; mode 0666 lets the
  // umask decide, as fopen(path, "wb") would.
  static std::atomic<uint64_t> saves{0};
  const std::string tmp = path + ".tmp" + std::to_string(::getpid()) + "." +
                          std::to_string(saves.fetch_add(1));
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (fd < 0) return Status::IoError("cannot create " + tmp);
  FilePtr f(::fdopen(fd, "wb"));
  if (!f) ::close(fd);
  const Status written = [&]() -> Status {
    if (!f) return Status::IoError("cannot open " + tmp + " for writing");
    CAGRA_RETURN_IF_ERROR(WriteSections(*snap, f.get(), path));
    // fwrite only fills the stdio buffer, and the deleter's fclose
    // cannot report failure: flush, fsync and close here, so a full
    // disk fails the Save instead of renaming a torn file into place.
    CAGRA_RETURN_IF_ERROR(CAGRA_FAULT_STATUS("io_write"));
    const bool synced =
        std::fflush(f.get()) == 0 && ::fsync(::fileno(f.get())) == 0;
    if (std::fclose(f.release()) != 0 || !synced) {
      return Status::IoError(path + ": flush failed");
    }
    CAGRA_RETURN_IF_ERROR(CAGRA_FAULT_STATUS("io_write"));
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      return Status::IoError(path + ": rename failed");
    }
    return Status::Ok();
  }();
  if (!written.ok()) {
    f.reset();
    ::unlink(tmp.c_str());
    return written;
  }
  return SyncParentDirectory(path);
}

Result<CagraIndex> CagraIndex::Load(const std::string& path) {
  return LoadImpl(path, /*out_of_core=*/false);
}

Result<CagraIndex> CagraIndex::LoadOutOfCore(const std::string& path) {
  return LoadImpl(path, /*out_of_core=*/true);
}

Result<CagraIndex> CagraIndex::LoadImpl(const std::string& path,
                                        bool out_of_core) {
  CAGRA_RETURN_IF_ERROR(CAGRA_FAULT_STATUS("io_read"));
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IoError("cannot open " + path);
  // The size comes from fstat (64-bit everywhere), not ftell's long:
  // index files past 2 GiB are exactly the out-of-core regime.
  uint64_t file_size = 0;
  if (!FileByteSize(f.get(), &file_size)) {
    return Status::IoError(path + ": cannot determine file size");
  }
  SectionReader in(f.get(), file_size, path);
  uint64_t header[5];
  CAGRA_RETURN_IF_ERROR(in.ReadFields("header", header, 5));
  if (header[0] != kIndexMagic) {
    return Status::IoError(path + ": not a CAGRA index file");
  }
  if (header[4] > static_cast<uint64_t>(Metric::kCosine)) {
    return Status::IoError(path + ": unknown metric in header");
  }
  // Build, FromGraph and Add all refuse more rows than 31-bit ids
  // address; a header claiming more is torn or forged.
  if (header[1] > kMaxDatasetSize) {
    return Status::IoError(path + ": row count past the 2^31 - 1 limit");
  }
  const size_t rows = header[1];
  const size_t dim = header[2];
  const size_t degree = header[3];

  auto snap = std::make_shared<IndexSnapshot>();
  snap->num_rows = rows;
  snap->num_dims = dim;
  snap->metric = static_cast<Metric>(header[4]);
  const uint64_t dataset_offset = in.offset();
  CAGRA_ASSIGN_OR_RETURN(const size_t elems,
                         in.Claim<float>("dataset", {rows, dim}));
  if (out_of_core) {
    // The fp32 rows stay on disk: map the dataset section from the
    // descriptor this stream reads, so every section comes from one
    // file even if a Save renames a new one over `path` meanwhile.
    auto mapped =
        MmapMatrix::Open(::fileno(f.get()), rows, dim, dataset_offset);
    if (!mapped.ok()) {
      return Status(mapped.status().code(),
                    path + ": " + mapped.status().message());
    }
    snap->mmap = std::make_shared<const MmapMatrix>(std::move(mapped).value());
    CAGRA_RETURN_IF_ERROR(in.Seek("dataset"));
  } else {
    auto dataset = std::make_shared<Matrix<float>>(rows, dim);
    CAGRA_RETURN_IF_ERROR(
        in.Read("dataset", dataset->mutable_data()->data(), elems));
    snap->dataset = std::move(dataset);
  }
  CAGRA_ASSIGN_OR_RETURN(const size_t edges,
                         in.Claim<uint32_t>("graph", {rows, degree}));
  FixedDegreeGraph graph(rows, degree);
  if (edges != 0) {
    CAGRA_RETURN_IF_ERROR(in.Read("graph", graph.MutableNeighbors(0), edges));
  }
  snap->graph = std::make_shared<const FixedDegreeGraph>(std::move(graph));

  uint64_t flags = 0;
  CAGRA_RETURN_IF_ERROR(in.ReadFields("flags", &flags));
  if ((flags & ~(kIndexFlagPq | kIndexFlagIdMap)) != 0) {
    // A flags word with bits this reader doesn't know is either a
    // future format or torn data mid-file; both fail cleanly rather
    // than misparse the trailer.
    return Status::IoError(path + ": unknown section flags");
  }
  if (flags & kIndexFlagPq) {
    uint64_t pq_header[5];
    CAGRA_RETURN_IF_ERROR(in.ReadFields("pq header", pq_header, 5));
    auto pq_owned = std::make_shared<PqDataset>();
    PqDataset& pq = *pq_owned;
    pq.dim = pq_header[0];
    pq.dsub = pq_header[1];
    const size_t m_subs = pq_header[2];
    const size_t pq_rows = pq_header[3];
    if (pq.dim != dim || pq_rows != rows || m_subs == 0 ||
        m_subs > pq.dim ||
        pq.dsub != (pq.dim + m_subs - 1) / m_subs) {
      // dsub is fully determined by dim and M (TrainPq invariant);
      // anything else is a corrupt header.
      return Status::IoError(path + ": pq header inconsistent with index");
    }
    if (pq_header[4] != 0) {
      CAGRA_RETURN_IF_ERROR(
          in.ReadVec("pq rotation", {dim, dim}, &pq.rotation));
    }
    CAGRA_RETURN_IF_ERROR(in.ReadVec(
        "pq codebooks", {m_subs, PqDataset::kNumCentroids, pq.dsub},
        &pq.centroids));
    CAGRA_RETURN_IF_ERROR(in.ReadVec("pq centroid norms",
                                     {m_subs, PqDataset::kNumCentroids},
                                     &pq.centroid_norm2));
    CAGRA_ASSIGN_OR_RETURN(const size_t codes,
                           in.Claim<uint8_t>("pq codes", {pq_rows, m_subs}));
    pq.codes = Matrix<uint8_t>(pq_rows, m_subs);
    CAGRA_RETURN_IF_ERROR(
        in.Read("pq codes", pq.codes.mutable_data()->data(), codes));
    // Rebuild with this host's active ADC kernel so the fused cosine
    // path keeps its bit-compatibility contract across SIMD tiers.
    RecomputePqRowNorms(&pq);
    snap->pq = std::move(pq_owned);
  }
  uint32_t next_external = static_cast<uint32_t>(rows);
  if (flags & kIndexFlagIdMap) {
    uint64_t count = 0;
    CAGRA_RETURN_IF_ERROR(in.ReadFields("id map count", &count));
    if (count != rows) {
      return Status::IoError(path + ": id map inconsistent with index");
    }
    std::vector<uint32_t> map;
    CAGRA_RETURN_IF_ERROR(in.ReadVec("id map", {count}, &map));
    // Strictly increasing is InternalId's binary-search contract;
    // anything else is torn data.
    for (size_t i = 1; i < map.size(); i++) {
      if (map[i] <= map[i - 1]) {
        return Status::IoError(path + ": id map not strictly increasing");
      }
    }
    if (!map.empty()) next_external = map.back() + 1;
    snap->id_map =
        std::make_shared<const std::vector<uint32_t>>(std::move(map));
  }
  CAGRA_RETURN_IF_ERROR(in.Finish());

  CagraIndex index;
  index.StoreSnapshot(std::move(snap));
  index.core_->next_external_id.store(next_external,
                                      std::memory_order_relaxed);
  return index;
}

}  // namespace cagra
