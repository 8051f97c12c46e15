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

/// Resolved per-search configuration shared by both execution modes.
struct ResolvedConfig {
  size_t k;
  size_t itopk;
  size_t search_width;
  size_t max_iterations;
  size_t hash_bits;
  size_t hash_reset_interval;  ///< 0 = standard table (no resets)
  bool hash_in_shared;
  size_t cta_per_query;        ///< multi-CTA only
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

  // Single-CTA buffers + the step-0 seeding buffer. The kernel's buffer
  // (Fig. 6) is the sorted internal top-M followed by p*d candidate
  // slots; `candidates` holds only the fresh entries of those slots; the
  // other slots are +inf pads, counted by SortAndMerge, never stored.
  std::vector<KeyValue> topm;
  std::vector<KeyValue> candidates;
  std::vector<KeyValue> init;
  std::vector<uint32_t> parents;

  // Batched-distance staging: fresh node ids awaiting their distances.
  std::vector<uint32_t> batch_ids;
  std::vector<float> batch_dists;

  // Multi-CTA per-CTA buffers, compact like the single-CTA ones. A
  // lockstep round stages each CTA's fresh ids as its range of
  // batch_ids; one distance call then scores the whole round.
  struct CtaState {
    std::vector<KeyValue> topm;
    std::vector<KeyValue> candidates;
    size_t cursor = 0;  ///< NextParent's scan start in `topm`
    size_t fresh_begin = 0;
    size_t fresh_end = 0;
    bool active = true;
  };
  std::vector<CtaState> ctas;

  /// The top-M tail that SortAndMerge displaces, staged for its merge.
  std::vector<KeyValue> merged;

  /// Multi-CTA emission: a min-heap of each CTA list's next usable entry,
  /// parent flag stripped, with the entry's slot in ctas[cta].topm.
  struct Head {
    KeyValue entry;
    uint32_t cta;
    uint32_t slot;
  };
  std::vector<Head> heads;

  /// Returns a wiped visited table with exactly `capacity` slots,
  /// reusing the previous allocation when the capacity matches.
  VisitedSet& EnsureVisited(size_t capacity);

  /// Runs the staged batch_ids through one batched distance call,
  /// appends their {distance, id} pairs to `list` and clears the
  /// staging. The tail of every single-CTA fill; multi-CTA scores a
  /// whole lockstep round at once instead.
  void FlushBatch(const DatasetView& dataset,
                  const DatasetView::QueryView& query,
                  std::vector<KeyValue>* list, KernelCounters* counters);
};

/// Effective internal top-M length: the explicit value, or the
/// auto default (64, widened to k for large k) when itopk == 0. Shared
/// by ResolveConfig and the Fig. 7 mode-selection input so both see the
/// same breadth.
inline size_t ResolveItopk(const SearchParams& params) {
  return params.itopk != 0 ? params.itopk
                           : std::max<size_t>(64, params.k);
}

/// Resolves SearchParams defaults against an index + batch size: auto
/// max_iterations, hash sizing (§IV-B3: >= 2x expected visits, shared
/// tables clamped to 2^8..2^13 with resets), Table II hash placement.
ResolvedConfig ResolveConfig(const SearchParams& params, SearchAlgo algo,
                             size_t graph_degree, size_t dataset_size);

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

/// Runs one query in multi-CTA mode (§IV-C2): cfg.cta_per_query CTAs,
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
/// top-M. `candidates` lists the filled slots in any order (at most
/// num_slots of them); the others hold kPad. Keeps the |topm| smallest
/// of top-M, candidates and pads under KeyValueLess, the top-M's entry
/// first on ties, as a std::merge with the sorted buffer would, and
/// clobbers `candidates`. Charges what the kernel's §IV-B2 networks
/// count on the whole buffer: a bitonic sort for <= 512 slots, a radix
/// sort above, then a bitonic merge; the host itself sorts and merges
/// only the candidates that beat the M-th entry. `merged` is staging
/// that keeps its capacity across calls. Returns the first slot whose
/// bits (parent flag included) changed, or |topm| when none did: the
/// slots before it are as they were, so a parent cursor stays valid
/// at the minimum of itself and this index.
size_t SortAndMerge(std::vector<KeyValue>* topm,
                    std::vector<KeyValue>* candidates, size_t num_slots,
                    std::vector<KeyValue>* merged, KernelCounters* counters);

/// Picks the next parent (§IV-B4): the first IsUsable entry of `topm` at
/// or after `*cursor` that is not flagged yet. Sets its parent flag,
/// moves the cursor past it and returns its id; returns kInvalidEntry,
/// cursor at |topm|, when no such entry is left. The cursor's invariant
/// is that no slot before it can be picked, so after a merge it drops
/// to SortAndMerge's return value if lower.
inline uint32_t NextParent(std::vector<KeyValue>* topm, size_t* cursor) {
  while (*cursor < topm->size()) {
    KeyValue& entry = (*topm)[(*cursor)++];
    if (!IsUsable(entry) || (entry.value & kParentFlag) != 0) continue;
    entry.value |= kParentFlag;
    return entry.value & kIndexMask;
  }
  return kInvalidEntry;
}

}  // namespace internal_search
}  // namespace cagra

#endif  // CAGRA_CORE_SEARCH_INTERNAL_H_
