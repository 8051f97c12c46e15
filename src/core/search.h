#ifndef CAGRA_CORE_SEARCH_H_
#define CAGRA_CORE_SEARCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/index.h"
#include "core/params.h"
#include "dataset/recall.h"
#include "gpusim/cost_model.h"
#include "gpusim/device_spec.h"

namespace cagra {

/// Output of a batched CAGRA search: results plus the hardware counters
/// and the modeled GPU execution time (see DESIGN.md §1 — results and
/// recall are real; only the time axis comes from the device model).
struct SearchResult {
  NeighborList neighbors;
  KernelCounters counters;
  KernelLaunchConfig launch;
  CostBreakdown cost;          ///< modeled kernel time decomposition
  double modeled_seconds = 0;  ///< cost.total
  double modeled_qps = 0;
  double host_seconds = 0;     ///< wall time of the functional execution
  double host_qps = 0;         ///< batch / host_seconds
  size_t host_threads = 1;     ///< host threads the batch ran across
  SearchAlgo algo_used = SearchAlgo::kSingleCta;
  size_t team_size_used = 0;
  /// False when a cancellation/deadline token (SearchParams::cancel)
  /// stopped work early: the results are best-effort partial — still
  /// well-formed (each query's rows sorted ascending, padded with
  /// 0xffffffff / +inf, no duplicate ids) but possibly missing
  /// candidates the full search would have found. True on every
  /// token-free call.
  bool complete = true;
  /// Per-query dataset rows actually scored (one entry per batch row):
  /// the partial-result yardstick — a cancelled query reports how much
  /// of the search it got through, and a sharded query sums over the
  /// shard scans that finished before the deadline.
  std::vector<uint64_t> rows_examined;
};

/// Index-independent request validation, shared by every search front
/// door (single-index Search, ShardedCagraIndex::Search, the serving
/// scheduler's Submit) so identical bad inputs produce identical
/// errors: k >= 1, k <= itopk when itopk is set explicitly
/// (itopk == 0 resolves to the auto default), and hash_bits <= 32.
[[nodiscard]] Status ValidateSearchParams(const SearchParams& params);

/// Runs the CAGRA search (§IV) over a query batch, with kernel time
/// modeled on the default DeviceSpec (the A100 of DESIGN.md §1). Picks
/// the execution mode by the Fig. 7 rule when params.algo == kAuto, the
/// team size by the §IV-B1 occupancy model when params.team_size == 0,
/// and the visited table per Table II: multi-CTA always shares a
/// standard one, single-CTA follows params.hash_mode.
/// The dataset storage mode comes from params.precision; reduced
/// precisions require the matching Enable*() call on the index. Each
/// query's row comes back in (distance, id) order: equal distances go
/// by ascending id.
/// Requires ValidateSearchParams(params).ok() and
/// queries.dim() == index.dim().
[[nodiscard]] Result<SearchResult> Search(const CagraIndex& index,
                                          const Matrix<float>& queries,
                                          const SearchParams& params);

/// Picks the team size (2..32) maximizing modeled load efficiency x
/// occupancy for a given vector layout — the automatic version of the
/// Fig. 8 sweep.
size_t PickTeamSize(const DeviceSpec& device, size_t dim, size_t elem_bytes,
                    size_t threads_per_cta, size_t candidates_per_iter);

/// Copies query rows [begin, begin + count) into a standalone matrix.
/// Requires begin + count <= queries.rows().
Matrix<float> SliceQueries(const Matrix<float>& queries, size_t begin,
                           size_t count);

/// Pins the batch-shape-dependent auto choices — the Fig. 7
/// algo rule and the multi-CTA width — as if all `batch` queries ran in
/// one launch. Search resolves its own batch this way. A caller that
/// coalesces requests pins the shape each request should search as:
/// the serving scheduler pins batch 1, so a request searches the same
/// whatever micro-batch it rides. Idempotent: explicit (non-auto)
/// settings pass through untouched.
SearchParams ResolveBatchShape(const SearchParams& params,
                               const DeviceSpec& device, size_t batch);

}  // namespace cagra

#endif  // CAGRA_CORE_SEARCH_H_
