#ifndef CAGRA_CORE_SHARDED_H_
#define CAGRA_CORE_SHARDED_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/search.h"
#include "core/searcher.h"

namespace cagra {

/// Multi-GPU sharding extension (§IV-C2 closing discussion and §V-E:
/// "the sharding technique could be well-suited for extending
/// graph-based ANNS to a multi-GPU environment, where each GPU is
/// assigned to process one sub-graph independently").
///
/// The dataset is split round-robin into `num_shards` sub-datasets; an
/// independent CAGRA index is built per shard. A search runs on every
/// shard (each modeled on its own device, as the paper proposes) and the
/// per-shard top-k lists are merged. Shard-local row ids are translated
/// back to global dataset ids.
struct ShardedBuildStats {
  std::vector<BuildStats> per_shard;
  double total_seconds = 0.0;  ///< wall time of the (parallel) build
};

/// Padding sentinel in neighbor lists entering/leaving the shard merge.
constexpr uint32_t kInvalidShardEntry = 0xffffffffu;

/// One sorted candidate list entering the k-way shard merge: `len`
/// (distance, id) pairs sorted ascending by (distance, id), where the
/// ids are shard-local rows translated through the required `id_map`
/// on the way into the merge. Any id >= id_map_size is padding (the
/// per-shard searches pad short results with kInvalidShardEntry, which
/// is always out of range).
struct ShardMergeList {
  const float* distances = nullptr;
  const uint32_t* ids = nullptr;
  size_t len = 0;
  const uint32_t* id_map = nullptr;
  size_t id_map_size = 0;
};

/// Folds `num_lists` per-shard top-k lists into the global top-k of one
/// query — the host-side gather/merge step of the paper's multi-GPU
/// evaluation (§V-F). Padding is filtered, ties break by distance then
/// id, and the output is padded with (inf, kInvalidShardEntry) past the
/// valid candidates. Exactly equivalent to sorting the concatenation of
/// the valid candidates and taking the first k (the property
/// tests/property_test.cc pins against a std::sort reference), and
/// independent of list order, so the merge of the shards that finished
/// does not depend on which finished first.
void MergeShardTopK(const ShardMergeList* lists, size_t num_lists, size_t k,
                    uint32_t* out_ids, float* out_distances);

class ShardedCagraIndex : public Searcher {
 public:
  ShardedCagraIndex() = default;

  /// Splits `dataset` into `num_shards` round-robin shards and builds a
  /// CAGRA index per shard, shard builds running in parallel on the
  /// global pool (each build is internally parallel too; the pool is
  /// re-entrant). Per-shard graphs and deterministic BuildStats are
  /// identical to a sequential build — builds are seeded and
  /// independent. num_shards must be >= 1 and small enough that every
  /// shard keeps >= graph_degree + 1 rows.
  [[nodiscard]] static Result<ShardedCagraIndex> Build(const Matrix<float>& dataset,
                                         const BuildParams& params,
                                         size_t num_shards,
                                         ShardedBuildStats* stats = nullptr);

  size_t num_shards() const { return shards_.size(); }
  const CagraIndex& shard(size_t i) const { return shards_[i]; }
  size_t dim() const override {
    return shards_.empty() ? 0 : shards_[0].dim();
  }

  /// Materializes the reduced-precision dataset copy on every shard so
  /// sharded searches can run at the matching Precision.
  void EnableHalfPrecision();
  void EnableInt8Quantization();
  void EnablePq(const PqTrainParams& params = PqTrainParams{});

  // ------------------------------------------------------------------
  // Write path. Mutations follow the per-shard snapshot model: each
  // shard publishes a new version and concurrent searches keep reading
  // the versions they pinned. Searches may run concurrently with these;
  // *mutators themselves* must be externally serialized (single
  // writer), because the round-robin id assignment below spans shards.

  /// Inserts `rows`, continuing the round-robin layout: row j becomes
  /// global id next_id + j and lands on shard (next_id + j) %
  /// num_shards, so ids keep the invariant global = local * num_shards
  /// + shard that the merge's id translation relies on. Assigned global
  /// ids (monotone, never reused) are appended to `global_ids` when
  /// non-null. All shapes are validated before any shard mutates.
  [[nodiscard]] Status Add(const Matrix<float>& rows,
                           std::vector<uint32_t>* global_ids = nullptr);

  /// Tombstones the rows with the given global ids (lazy deletion, per
  /// CagraIndex::Remove). Every id is validated against its shard's
  /// current snapshot before any shard mutates — an unknown or already-
  /// removed id fails the whole call with kNotFound, all-or-nothing.
  [[nodiscard]] Status Remove(const uint32_t* global_ids, size_t n);
  [[nodiscard]] Status Remove(const std::vector<uint32_t>& global_ids) {
    return Remove(global_ids.data(), global_ids.size());
  }

  /// Synchronously compacts every shard (see CagraIndex::Compact).
  [[nodiscard]] Status Compact();
  /// Forwards the auto-compaction knobs to every shard.
  void SetCompactionOptions(const CompactionOptions& options);
  /// Blocks until no shard has a background compaction in flight.
  void WaitForCompaction() const;

  size_t live_size() const;
  size_t tombstone_count() const;

  /// Sharded search: every shard searches the whole batch as one task,
  /// publishes its shard id through a bounded queue, and the calling
  /// thread then merges every finished shard once — per-shard execution
  /// followed by the host-side gather/merge of the paper's multi-GPU
  /// evaluation (§V-F). Results are byte-identical at every thread
  /// count. The modeled time is the slowest shard's kernel time (one
  /// launch per shard, each on its own device) plus the host merge of
  /// every (query, shard) list. The storage mode comes from
  /// params.precision (the Searcher front door).
  ///
  /// Only who runs the shards depends on the width. At
  /// params.num_threads == 0, global-pool helpers run them and the
  /// caller only waits and merges. An explicit width is a total host
  /// budget: the caller runs every shard itself, in shard order, with
  /// each search capped at that width.
  ///
  /// Deadline/cancellation (params.cancel): every shard checks the token
  /// before scanning and the per-shard searches check it at iteration
  /// boundaries, so an expired token drains the shards cooperatively; a
  /// token cancelled before the call sheds every shard. A straggler that
  /// cannot observe the token (a stalled shard) is *abandoned*: after a
  /// short grace the call returns the best-effort merge of every shard
  /// that did finish, marked SearchResult::complete == false. Helpers
  /// read a token derived from the caller's and run against detached
  /// heap-owned state (they never reference the caller's stack), so an
  /// abandoned helper finishes harmlessly — the only caller obligation
  /// is that the index itself outlive it, which cancellation bounds to
  /// roughly the stall plus one search iteration.
  [[nodiscard]] Result<SearchResult> Search(
      const Matrix<float>& queries,
      const SearchParams& params) const override;

 private:
  /// One shard's local-external-id -> global-id translation table,
  /// immutable once published (Add publishes a grown copy).
  using IdMapPtr = std::shared_ptr<const std::vector<uint32_t>>;

  Status ValidateSearch(const SearchParams& params) const;

  /// The current per-shard id maps, pinned once per search (atomic
  /// loads) so a concurrent Add — which publishes grown copies — can
  /// never move the arrays under a running merge. A search whose shard
  /// snapshot is newer than its pinned map treats the not-yet-mapped
  /// rows as padding (a transient freshness gap, not a fault).
  std::vector<IdMapPtr> PinIdMaps() const;

  /// Merges every query row of `out` (sized batch * k) from the
  /// per-shard results `shard_results` — (shard index, result) pairs so
  /// a cancelled search can merge the subset of shards that finished —
  /// translating shard-local ids through the pinned `maps`.
  void MergeRows(
      const std::vector<std::pair<size_t, const SearchResult*>>& shard_results,
      const std::vector<IdMapPtr>& maps, size_t k, NeighborList* out) const;

  std::vector<CagraIndex> shards_;
  /// global_ids_[s]->at(local) = global id of shard s's local external
  /// id `local`. Read via atomic_load (PinIdMaps), replaced via
  /// atomic_store by Add; removals tombstone and never shrink a map, so
  /// every id ever assigned stays translatable.
  std::vector<IdMapPtr> global_ids_;
};

}  // namespace cagra

#endif  // CAGRA_CORE_SHARDED_H_
