#ifndef CAGRA_CORE_PARAMS_H_
#define CAGRA_CORE_PARAMS_H_

#include <cstddef>
#include <cstdint>

#include "distance/distance.h"
#include "util/cancel.h"

namespace cagra {

/// Edge-reordering criterion for graph optimization (§III-B2). CAGRA uses
/// rank-based by default; distance-based is the ablation baseline that
/// needs O(N * d_init) distance storage or O(N * d_init^2) recomputation.
enum class ReorderMode {
  kRankBased,
  kDistanceBased,
};

/// CAGRA graph build parameters.
struct BuildParams {
  size_t graph_degree = 32;            ///< d: final fixed out-degree
  size_t intermediate_degree = 0;      ///< d_init; 0 = 2*graph_degree
  ReorderMode reorder = ReorderMode::kRankBased;
  /// Fraction of each merged neighbor list taken from the forward
  /// (reordered+pruned) graph; the rest comes from the reverse graph
  /// (§III-B2 merges d/2 from each, interleaved).
  double forward_fraction = 0.5;
  Metric metric = Metric::kL2;
  uint64_t seed = 1234;
  /// NN-descent knobs for the initial graph. Besides the iteration and
  /// update exits these set, the build stops once its sampled lists
  /// reach kNnDescentTargetRecall (knn/nn_descent.h).
  double nn_descent_sample_rate = 0.5;
  size_t nn_descent_max_iterations = 20;
  double nn_descent_termination_delta = 0.001;
};

/// Dataset storage mode for the search: fp32/fp16 per §IV-C1, int8
/// scalar quantization and PQ (product quantization, searched via
/// per-query ADC lookup tables) per the §V-E compression direction.
enum class Precision { kFp32, kFp16, kInt8, kPq };

/// Hash-table management for the visited list (§IV-B3 / Table II), a
/// single-CTA setting: multi-CTA's CTAs always share one standard table.
enum class HashMode {
  kAuto,        ///< forgettable
  kStandard,    ///< device-memory table sized for the whole search
  kForgettable, ///< small shared-memory table with periodic resets
};

/// Search execution mapping (§IV-C / Table II).
enum class SearchAlgo {
  kAuto,       ///< Fig. 7 rule: multi-CTA iff batch < b_T or itopk > M_T
  kSingleCta,  ///< one CTA per query (large batches)
  kMultiCta,   ///< several CTAs per query (small batches / high recall)
};

/// CAGRA search parameters.
struct SearchParams {
  size_t k = 10;                 ///< neighbors to return
  /// Dataset storage mode the search runs against. Part of the params so
  /// every caller — and the Searcher interface the serving layer is
  /// written against — carries one self-contained request description.
  /// Reduced precisions require the matching Enable*() call on the index.
  Precision precision = Precision::kFp32;
  /// M: internal top-M list length. Must be >= k when set explicitly;
  /// 0 = auto (max(64, k), the historical default widened for large k).
  size_t itopk = 0;
  /// p: parents expanded per iteration, a single-CTA setting (each
  /// multi-CTA CTA expands one). The iteration budget follows from it
  /// and itopk: clamp(2 * itopk / p, 16, 1024), with p = 1 in multi-CTA.
  size_t search_width = 1;
  SearchAlgo algo = SearchAlgo::kAuto;
  /// CTAs per query, a multi-CTA setting; 0 = auto.
  size_t cta_per_query = 0;
  HashMode hash_mode = HashMode::kAuto;  ///< a single-CTA setting
  /// Forgettable wipe period (iterations), a single-CTA setting.
  size_t hash_reset_interval = 1;
  /// log2 of the visited table's entries; 0 = auto (8..13 for a
  /// forgettable table). For a standard table, auto is the smallest
  /// power of two, at least 2^8, that holds twice the visits of the
  /// whole search, (max_iterations + 1) x p x d for single-CTA and
  /// (max_iterations + 1) x cta_per_query x d for multi-CTA, whose CTAs
  /// share one table; it stops at the first that holds 2 x rows. At
  /// most 32: ids are 31-bit, so a table twice the visits never needs
  /// more slots; larger values are rejected.
  size_t hash_bits = 0;
  size_t team_size = 0;          ///< 0 = auto-pick per dim (§IV-B1)
  uint64_t seed = 77;            ///< random-sampling seed (step 0)
  /// When true, every query in the batch samples its random start nodes
  /// from `seed` verbatim instead of the per-row offset
  /// (seed + 0x1000003 * row). This is the serving scheduler's
  /// result-identity contract: a request's result must not depend on
  /// which micro-batch it was coalesced into, so each row searches
  /// exactly as a batch-of-one would (row 0 gets `seed` either way).
  bool uniform_seed = false;
  /// r: exact-fp32 rerank depth. 0 (the default) = off. When set, the
  /// graph search runs unchanged but keeps its top-r frontier
  /// (clamped to [k, itopk]) instead of emitting top-k directly, then
  /// rescores those r candidates with exact fp32 distances — fetched
  /// through the index's active storage tier, i.e. straight from the
  /// mapped file when the index is out-of-core — and returns the best
  /// k under the exact metric. This is the DiskANN-shaped refinement
  /// that buys back the recall a compressed traversal (kPq/kInt8/kFp16)
  /// gives up, for r extra fp32 row fetches per query; the returned
  /// distances are exact fp32 distances. Results are bit-identical
  /// between RAM-resident and out-of-core indexes at every dispatch
  /// tier. A deadline expiring mid-rerank falls back to the
  /// approximate-ranked candidates for the affected queries and marks
  /// the result incomplete, per the SearchResult::complete contract.
  size_t rerank = 0;
  /// Host threads for the functional batch execution, drawn from the
  /// global pool with the calling thread counted: 0 = the whole pool
  /// (hardware concurrency), 1 = serial on the caller, N = at most N
  /// (clamped to the pool). Results are byte-identical at any setting —
  /// per-query work is independent and seeded — so this is purely a
  /// throughput knob.
  size_t num_threads = 0;
  /// Cooperative cancellation/deadline token (util/cancel.h), checked
  /// before each query starts and at iteration boundaries in the core
  /// search kernels, and per shard and per straggler wait in sharded
  /// search. When it expires mid-search the call still returns ok()
  /// with best-effort partial results, marked SearchResult::complete ==
  /// false; rows the search never reached carry the standard padding
  /// (0xffffffff / +inf), and a query that never started scores 0 rows.
  /// nullptr (the default) disables every check — results and hot-loop
  /// cost are exactly the token-free ones.
  ///
  /// Non-owning: the token must stay alive for the duration of the
  /// Search call (detaching executors derive their own internal token
  /// and never retain this pointer past the return).
  const CancelToken* cancel = nullptr;
};

/// Thresholds of the Fig. 7 implementation-choice rule. The paper
/// recommends M_T = 512 and b_T = number of SMs.
struct ModeThresholds {
  size_t max_batch_for_multi = 108;  ///< b_T
  size_t max_itopk_for_single = 512; ///< M_T
};

/// Applies the Fig. 7 rule.
inline SearchAlgo ChooseAlgo(size_t batch, size_t itopk,
                             const ModeThresholds& t = ModeThresholds{}) {
  if (batch < t.max_batch_for_multi || itopk > t.max_itopk_for_single) {
    return SearchAlgo::kMultiCta;
  }
  return SearchAlgo::kSingleCta;
}

}  // namespace cagra

#endif  // CAGRA_CORE_PARAMS_H_
