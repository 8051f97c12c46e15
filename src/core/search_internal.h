#ifndef CAGRA_CORE_SEARCH_INTERNAL_H_
#define CAGRA_CORE_SEARCH_INTERNAL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/params.h"
#include "core/snapshot.h"
#include "gpusim/counters.h"
#include "util/sort.h"
#include "util/visited_set.h"

namespace cagra {
namespace internal_search {

constexpr uint32_t kInvalidEntry = 0xffffffffu;

/// An empty search-buffer slot. Under KeyValueLess it sorts after every
/// non-NaN key and before NaN keys.
constexpr KeyValue kPad{std::numeric_limits<float>::infinity(),
                        kInvalidEntry};

/// Whether a search-buffer entry holds a node the search may expand or
/// emit: not a pad and not at +inf. NaN keys qualify.
inline bool IsUsable(const KeyValue& entry) {
  return entry.value != kInvalidEntry &&
         entry.key != std::numeric_limits<float>::infinity();
}

/// Per-CTA internal list length in multi-CTA mode: each CTA maintains a
/// small local top-M with p = 1 (§IV-C2).
constexpr size_t kMultiCtaLocalTopM = 32;

/// Counter-instrumented accessor over the fp32/fp16/int8/PQ dataset
/// copy; every distance charges the device bytes + flops the GPU kernel
/// would spend.
///
/// PQ is the one mode with per-query state: the ADC lookup tables.
/// Callers obtain a QueryView once per query via Prepare() (which
/// builds the tables into worker-owned scratch and charges the codebook
/// traffic) and pass it to every DistanceBatch call; for the other
/// modes Prepare is a free passthrough.
class DatasetView {
 public:
  /// Views one immutable index version: everything a kernel touches —
  /// rows, graph-adjacent tiers, tombstones — resolves through `snap`,
  /// so a view taken at Search entry is immune to concurrent writers.
  /// The snapshot must outlive the view (Search pins it by shared_ptr).
  DatasetView(const IndexSnapshot& snap, Precision precision)
      : snap_(snap), precision_(precision) {}

  /// A query prepared for this view: the raw fp32 query plus, for PQ,
  /// the per-query ADC tables (owned by the caller's scratch).
  struct QueryView {
    const float* query = nullptr;
    const PqAdcTable* adc = nullptr;
  };

  QueryView Prepare(const float* query, PqAdcTable* adc_storage,
                    KernelCounters* counters) const {
    if (precision_ != Precision::kPq) return {query, nullptr};
    const PqDataset& pq = snap_.PqRef();
    BuildAdcTable(pq, query, snap_.metric, adc_storage);
    // Building the tables scores every centroid once (kNumCentroids
    // full-dim distance equivalents) and streams the codebook.
    counters->distance_computations += PqDataset::kNumCentroids;
    counters->distance_elements += PqDataset::kNumCentroids * snap_.dim();
    counters->device_vector_bytes += pq.CodebookBytes();
    return {query, adc_storage};
  }

  /// out[i] = distance(query, row ids[i]), charging each row's bytes and
  /// flops. All storage types go through the SIMD-dispatched gather
  /// primitives (multi-row kernels inside), so the candidate-expansion
  /// hot loop makes one function call per batch, not per pair — int8
  /// decodes in vector registers, PQ scans the per-query ADC tables.
  /// fp32 rows read through the active storage tier (RAM or mmap), the
  /// same bytes either way.
  void DistanceBatch(const QueryView& q, const uint32_t* ids, size_t n,
                     float* out, KernelCounters* counters) const {
    counters->distance_computations += n;
    counters->distance_elements += n * ElementsPerDistance();
    counters->device_vector_bytes += n * RowBytes();
    switch (precision_) {
      case Precision::kFp16:
        ComputeDistanceGather(snap_.metric, q.query,
                              snap_.HalfRef().data().data(), snap_.dim(),
                              ids, n, out);
        return;
      case Precision::kInt8: {
        const QuantizedDataset& i8 = snap_.Int8Ref();
        ComputeDistanceGather(snap_.metric, q.query,
                              i8.codes.data().data(), i8.scale.data(),
                              i8.offset.data(), snap_.dim(), ids, n, out);
        return;
      }
      case Precision::kPq:
        ComputeDistanceAdcGather(*q.adc, snap_.PqRef().codes.data().data(),
                                 ids, n, out);
        return;
      case Precision::kFp32:
        break;
    }
    ComputeDistanceGather(snap_.metric, q.query, snap_.Fp32Data(),
                          snap_.dim(), ids, n, out);
  }

  size_t ElemBytes() const {
    switch (precision_) {
      case Precision::kFp16: return sizeof(Half);
      case Precision::kInt8: return sizeof(int8_t);
      // PQ rows are num_subspaces one-byte codes; the launch pairs this
      // with ElementsPerDistance() (= M) as the dim so the cost model's
      // dim * elem_bytes matches the real M bytes/row.
      case Precision::kPq: return 1;
      case Precision::kFp32: break;
    }
    return sizeof(float);
  }
  size_t RowBytes() const {
    if (precision_ == Precision::kPq) {
      return snap_.PqRef().RowBytes();
    }
    return snap_.dim() * ElemBytes();
  }
  /// Work one distance computation prices into distance_elements: the
  /// summed dims for decoded modes, M table adds for ADC.
  size_t ElementsPerDistance() const {
    if (precision_ == Precision::kPq) {
      return snap_.PqRef().num_subspaces();
    }
    return snap_.dim();
  }
  size_t size() const { return snap_.size(); }
  size_t dim() const { return snap_.dim(); }

  /// The lazy tombstone filter, applied at result emission only (dead
  /// nodes still route traversal): one branch on the usually-null
  /// bitmap pointer, so unmutated indexes pay nothing.
  bool Deleted(uint32_t id) const { return snap_.Deleted(id); }

 private:
  const IndexSnapshot& snap_;
  Precision precision_;
};

/// Resolved per-search configuration: the one place where the mapping
/// (§IV-C, Table II) becomes numbers. The budget, table, launch and
/// rerank formulas read the kernel's shape below, never the algo.
struct ResolvedConfig {
  SearchAlgo algo;  ///< kSingleCta or kMultiCta: picks the kernel
  size_t k;
  size_t itopk;
  // The kernel's shape: single-CTA's value, or multi-CTA's. Each CTA
  // keeps one list.
  size_t num_lists;        ///< lists per query: 1, or cta_per_query
  size_t list_len;         ///< entries per list: itopk, or 32
  size_t parents;          ///< parents per list per iteration: p, or 1
  size_t threads_per_cta;  ///< 256, or 128 (the cuVS defaults)
  size_t max_iterations;
  size_t hash_bits;
  size_t hash_reset_interval;  ///< 0 = standard table (no resets)
  bool hash_in_shared;
  uint64_t seed;
  /// Cooperative cancellation token (SearchParams::cancel), consulted
  /// at iteration boundaries; nullptr = never cancelled.
  const CancelToken* cancel = nullptr;
};

/// Reusable per-worker workspace for the batch-parallel search: the
/// visited table and every buffer a query needs, so a worker thread
/// allocates once per Search() call instead of once per query. Results
/// are unaffected by reuse — each query fully reinitializes the state
/// it reads — which keeps parallel search byte-identical to serial.
struct SearchScratch {
  std::unique_ptr<VisitedSet> visited;

  /// Per-query ADC tables (PQ searches only); DatasetView::Prepare
  /// rebuilds them into this storage at the top of every query, reusing
  /// the allocation across the worker's queries.
  PqAdcTable adc;

  // The kernel's buffer (Fig. 6) is the sorted internal top-M followed
  // by p*d candidate slots. `topm` holds the top-M: the num_lists lists
  // of list_len entries back to back. The candidate slots are never
  // stored: their fresh entries are the scored batch below, the other
  // slots +inf pads that SortAndMerge counts. `init` is the step-0
  // seeding buffer.
  std::vector<KeyValue> topm;
  std::vector<KeyValue> init;
  std::vector<uint32_t> parents;

  // Batched-distance staging: the fresh node ids of an iteration and,
  // once one distance call has scored them, their distances. Multi-CTA
  // stages each CTA's fresh ids as its range of a lockstep round.
  std::vector<uint32_t> batch_ids;
  std::vector<float> batch_dists;

  struct CtaState {
    size_t cursor = 0;  ///< NextParent's scan start in the CTA's list
    size_t fresh_begin = 0;
    size_t fresh_end = 0;
    uint32_t parent = 0;  ///< the node this round expands
    bool active = true;
  };
  std::vector<CtaState> ctas;

  /// SortAndMerge's staging: the candidates that beat the M-th entry,
  /// then the top-M tail they displace.
  std::vector<KeyValue> merged;

  /// EmitTopK's min-heap of each list's next entry, parent flag
  /// stripped, with the entry's slot in that list.
  struct Head {
    KeyValue entry;
    uint32_t list;
    uint32_t slot;
  };
  std::vector<Head> heads;

  /// Returns the query's wiped visited table of 2^cfg.hash_bits slots,
  /// reusing the previous allocation when the size matches. A
  /// device-memory table is allocated and zeroed per query (§IV-B3), so
  /// its bytes are charged here.
  VisitedSet& OpenVisited(const ResolvedConfig& cfg, KernelCounters* counters);
  /// Charges the probes made since OpenVisited, as the query's total, to
  /// where the table lives: shared memory iff cfg.hash_in_shared.
  void CloseVisited(const ResolvedConfig& cfg, KernelCounters* counters);

 private:
  size_t probes_at_open_ = 0;
};

/// Effective internal top-M length: the explicit value, or the
/// auto default (64, widened to k for large k) when itopk == 0. Shared
/// by ResolveConfig and the Fig. 7 mode-selection input so both see the
/// same breadth.
inline size_t ResolveItopk(const SearchParams& params) {
  return params.itopk != 0 ? params.itopk
                           : std::max<size_t>(64, params.k);
}

/// Resolves SearchParams against an index: the kernel's shape, auto
/// max_iterations, hash sizing (§IV-B3: >= 2x the visits of every CTA,
/// standard tables capped at 2x the rows, shared tables clamped to
/// 2^8..2^13 with resets) and Table II hash placement. `params` is what
/// ResolveBatchShape returned: its algo and, for multi-CTA, its
/// cta_per_query are resolved; kAuto resolves as single-CTA. Each mode
/// reads only its own settings: search_width and the hash mode and
/// reset interval are single-CTA's, cta_per_query is multi-CTA's, whose
/// CTAs always share one standard device-memory table.
ResolvedConfig ResolveConfig(const SearchParams& params, size_t graph_degree,
                             size_t dataset_size);

/// Runs one query in single-CTA mode (§IV-C1). Appends k ids/distances
/// to `out_ids`/`out_dists` (preallocated, offset q*k) and accumulates
/// counters. `scratch` is this worker's reusable workspace (never
/// shared across concurrent queries). Returns the iteration count.
/// cfg.cancel is checked once per iteration; an expired token breaks
/// out of the loop and the current (well-formed, sorted, deduplicated)
/// top-k is emitted, with *truncated set — the results are best-effort
/// partial, never malformed. `truncated` may be nullptr.
size_t SearchSingleCta(const DatasetView& dataset,
                       const FixedDegreeGraph& graph, const float* query,
                       const ResolvedConfig& cfg, uint64_t query_seed,
                       uint32_t* out_ids, float* out_dists,
                       KernelCounters* counters, SearchScratch* scratch,
                       bool* truncated = nullptr);

/// Runs one query in multi-CTA mode (§IV-C2): cfg.num_lists CTAs,
/// each with a 32-entry local top-M and p=1, sharing one device-memory
/// visited table. Returns the (lockstep) iteration count. Cancellation
/// follows the single-CTA contract, checked once per lockstep round.
size_t SearchMultiCta(const DatasetView& dataset,
                      const FixedDegreeGraph& graph, const float* query,
                      const ResolvedConfig& cfg, uint64_t query_seed,
                      uint32_t* out_ids, float* out_dists,
                      KernelCounters* counters, SearchScratch* scratch,
                      bool* truncated = nullptr);

/// Folds one candidate buffer of `num_slots` slots into the sorted
/// top-M `topm[0, m)`. Its filled slots are `count` (at most num_slots)
/// fresh entries {dists[i], ids[i]} in any order; the others hold kPad.
/// Keeps the m smallest of top-M, candidates and pads under
/// KeyValueLess, the top-M's entry first on ties, as a std::merge with
/// the sorted buffer would. Charges what the kernel's §IV-B2 networks
/// count on the whole buffer: a bitonic sort for <= 512 slots, a radix
/// sort above, then a bitonic merge; the host itself keeps, sorts and
/// merges only the candidates that beat the M-th entry, dropping the
/// rest as it reads them. `merged` is staging that keeps its capacity
/// across calls. Returns the first slot whose bits (parent flag
/// included) changed, or m when none did: the slots before it are as
/// they were, so a parent cursor stays valid at the minimum of itself
/// and this index.
size_t SortAndMerge(KeyValue* topm, size_t m, const uint32_t* ids,
                    const float* dists, size_t count, size_t num_slots,
                    std::vector<KeyValue>* merged, KernelCounters* counters);

/// Emits a query's top-k: the first k entries of a k-way merge of
/// `num_lists` lists of `list_len` entries, stored back to back and each
/// sorted under KeyValueLess, through a min-heap of their next entries
/// (`heads` is its staging). Single-CTA is the one-list case. Entries
/// that are not IsUsable are skipped, and so are tombstoned rows: dead
/// nodes route the traversal but are never returned. Entries equal
/// under KeyValueLess are one id at one distance, so the merge emits
/// what sorting every entry would, and a node held twice (a full or
/// reset table re-admits nodes) comes out as adjacent copies, of which
/// only the first is kept. The rows past the last entry are padded.
void EmitTopK(const KeyValue* lists, size_t num_lists, size_t list_len,
              const DatasetView& dataset, size_t k, uint32_t* out_ids,
              float* out_dists, std::vector<SearchScratch::Head>* heads);

/// Picks the next parent (§IV-B4): the first IsUsable entry of
/// `topm[0, m)` at or after `*cursor` that is not flagged yet. Sets its
/// parent flag, moves the cursor past it and returns its id; returns
/// kInvalidEntry, cursor at m, when no such entry is left. The cursor's
/// invariant is that no slot before it can be picked, so after a merge
/// it drops to SortAndMerge's return value if lower.
inline uint32_t NextParent(KeyValue* topm, size_t m, size_t* cursor) {
  while (*cursor < m) {
    KeyValue& entry = topm[(*cursor)++];
    if (!IsUsable(entry) || (entry.value & kParentFlag) != 0) continue;
    entry.value |= kParentFlag;
    return entry.value & kIndexMask;
  }
  return kInvalidEntry;
}

}  // namespace internal_search
}  // namespace cagra

#endif  // CAGRA_CORE_SEARCH_INTERNAL_H_
