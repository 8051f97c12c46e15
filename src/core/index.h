#ifndef CAGRA_CORE_INDEX_H_
#define CAGRA_CORE_INDEX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/optimize.h"
#include "core/params.h"
#include "core/snapshot.h"
#include "dataset/matrix.h"
#include "dataset/pq.h"
#include "graph/fixed_degree_graph.h"
#include "knn/nn_descent.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace cagra {

/// Timing breakdown of a full index build (Fig. 11 / Fig. 15 bars:
/// "kNN build" + "Graph optimization" + "Indexing").
struct BuildStats {
  NnDescentStats knn;
  OptimizeStats optimize;
  double indexing_seconds = 0.0;  ///< final layout/copy step
  double total_seconds = 0.0;
};

/// Knobs of the background compaction pass (see CagraIndex::Remove).
struct CompactionOptions {
  /// Dead fraction (tombstones / rows) at which Remove schedules a
  /// background compaction on the global thread pool. >= 1.0 disables
  /// auto-compaction (Compact() still works).
  double trigger_fraction = 0.25;
  /// Below this many tombstones a background pass is never scheduled —
  /// the full-index copy would cost more than the filtering it saves.
  size_t min_dead_rows = 64;
};

/// A built CAGRA index: the fixed-degree optimized graph plus the dataset
/// it searches over (fp32 always; fp16 copy on demand, §IV-C1).
///
/// The MSB of a node index is reserved as the search-time "has been a
/// parent" flag (§IV-B4), so datasets are limited to 2^31 - 1 vectors.
///
/// Mutability model (single-writer / multi-reader, RCU-style): every
/// version of the index is an immutable IndexSnapshot published through
/// an atomically swapped shared_ptr. Searches load the pointer once
/// (snapshot()) and are wait-free; mutators (Add / Remove / Compact /
/// Enable*) serialize behind an internal writer mutex, build a
/// successor snapshot copy-on-write, and publish it — readers
/// holding an older version keep it alive by refcount and finish
/// undisturbed. snapshot() is the only way to reach index storage: hold
/// the returned pointer for as long as you read through it. The scalar
/// getters (size(), dim(), HasPq(), ...) each pin a snapshot for one
/// read.
///
/// Copying an index is cheap: the copy shares the current snapshot and
/// gets its own writer state, so mutating one never affects the other.
class CagraIndex {
 public:
  CagraIndex();
  CagraIndex(const CagraIndex& other);
  CagraIndex& operator=(const CagraIndex& other);

  /// Builds from a dataset: NN-descent initial graph (degree d_init =
  /// intermediate_degree or 2d), then the §III-B optimization.
  /// Returns InvalidArgument for empty input or degree < 2, and
  /// CapacityExceeded beyond the MSB-flag dataset-size limit.
  [[nodiscard]] static Result<CagraIndex> Build(const Matrix<float>& dataset,
                                  const BuildParams& params,
                                  BuildStats* stats = nullptr);

  /// Wraps an externally built graph (e.g. for graph-quality studies
  /// where a kNN or NSSG graph is searched with the CAGRA kernel).
  [[nodiscard]] static Result<CagraIndex> FromGraph(const Matrix<float>& dataset,
                                      FixedDegreeGraph graph, Metric metric);

  /// The current published version. Wait-free; the returned pointer
  /// pins that version (graph, tiers, tombstones, id map — all
  /// consistent) for as long as the caller holds it. This is the only
  /// way to reach index storage, and it is safe against concurrent
  /// mutators.
  std::shared_ptr<const IndexSnapshot> snapshot() const {
    return std::atomic_load_explicit(&core_->snapshot,
                                     std::memory_order_acquire);
  }

  // ------------------------------------------------------------------
  // Write path. All mutators serialize behind one writer mutex; results
  // become visible to new searches atomically at publish time.

  /// Inserts `rows` (FreshDiskANN-style): each new vector greedy-
  /// searches the current graph for its `degree()` nearest live
  /// neighbors, links to them, and patches itself into each neighbor's
  /// list in place of that neighbor's farthest edge (reverse-edge
  /// repair). Rows insert sequentially, so vectors within one batch
  /// link to each other; the whole batch publishes as one snapshot.
  ///
  /// Assigned external ids (monotone, never reused) are appended to
  /// `external_ids` when non-null. Returns kFailedPrecondition on an
  /// out-of-core index (the mapped fp32 tier cannot grow in place) or
  /// an empty one, kInvalidArgument on a dim mismatch, and
  /// kCapacityExceeded past the 2^31-1 row limit. On error nothing is
  /// published.
  [[nodiscard]] Status Add(const Matrix<float>& rows,
                           std::vector<uint32_t>* external_ids = nullptr);

  /// Tombstones the rows with the given external ids. Deletion is lazy:
  /// the rows stay in the graph and keep routing traversals (removing
  /// them immediately would tear hub nodes out of everyone's neighbor
  /// lists), but result emission filters them, so they can never be
  /// returned by a search on the new snapshot. Cost: one bitmap copy.
  ///
  /// Validates every id before mutating anything — an unknown or
  /// already-removed id fails the whole call with kNotFound and
  /// publishes nothing. When the dead fraction crosses
  /// CompactionOptions::trigger_fraction, a background compaction is
  /// scheduled on the global thread pool (out-of-core indexes only
  /// tombstone; their compaction happens at Save time).
  [[nodiscard]] Status Remove(const uint32_t* external_ids, size_t n);
  [[nodiscard]] Status Remove(const std::vector<uint32_t>& external_ids) {
    return Remove(external_ids.data(), external_ids.size());
  }

  /// Synchronously rebuilds the index without its tombstoned rows: live
  /// rows renumber densely (order-preserving; external ids unchanged),
  /// and each survivor's holes are repaired DiskANN-style with the
  /// nearest live nodes reachable through its dead neighbors. No-op at
  /// zero tombstones; kFailedPrecondition when out-of-core.
  [[nodiscard]] Status Compact();

  /// Replaces the auto-compaction knobs (applies to future Removes).
  void SetCompactionOptions(const CompactionOptions& options);

  /// Blocks until no background compaction is in flight. Test/shutdown
  /// helper; new Removes may schedule another pass afterwards.
  void WaitForCompaction() const;

  size_t live_size() const { return snapshot()->live_rows(); }
  size_t tombstone_count() const { return snapshot()->num_dead; }

  // ------------------------------------------------------------------
  // Storage tiers.

  /// Materializes the fp16 copy of the dataset so searches can run in
  /// half precision.
  void EnableHalfPrecision();
  bool HasHalfPrecision() const { return snapshot()->HasHalf(); }

  /// Materializes the int8 scalar-quantized copy (quarter the fp32
  /// bytes; §V-E compression direction).
  void EnableInt8Quantization();
  bool HasInt8() const { return snapshot()->HasInt8(); }

  /// Materializes the product-quantized copy (M bytes/row, default
  /// M = dim/4 — 1/16 of fp32; the §V-E PQ compression mode). Searches
  /// with Precision::kPq go through per-query ADC lookup tables.
  void EnablePq(const PqTrainParams& params = PqTrainParams{});
  bool HasPq() const { return snapshot()->HasPq(); }

  Metric metric() const { return snapshot()->metric; }
  size_t size() const { return snapshot()->size(); }
  size_t dim() const { return snapshot()->dim(); }
  size_t degree() const { return snapshot()->degree(); }

  /// The out-of-core storage tier (DiskANN-shaped split, the ROADMAP's
  /// "single biggest scale unlock"): the graph and the PQ copy stay
  /// RAM-resident, while the fp32 rows are served from a read-only mmap
  /// of a Save() file — touched only when a search actually needs full
  /// precision (the top-r rerank, or an fp32-precision traversal).
  /// LoadOutOfCore opens a Save() file with the fp32 rows left on disk:
  /// header, graph, and the optional PQ trailer load as usual, the
  /// dataset section is skipped and mapped instead — Load(path) at a
  /// fraction of the RSS. Enable*() calls need the resident rows and do
  /// nothing on an out-of-core index, so run EnablePq before Save().
  ///
  /// Results are bit-identical to the RAM-resident path: fp32 access
  /// reads the same bytes through the map. The mapping is of the file
  /// this call opened and parsed; it must not be truncated or rewritten
  /// in place while mapped (the usual mmap contract). Save() onto the
  /// backing path is fine: it replaces the file by rename, and the
  /// mapping keeps reading the old one.
  [[nodiscard]] static Result<CagraIndex> LoadOutOfCore(
      const std::string& path);

  bool out_of_core() const { return snapshot()->out_of_core(); }

  /// Serializes graph + dataset + metric — plus, when EnablePq has run,
  /// the PQ copy (codebooks, OPQ rotation, codes), and, when the index
  /// has been renumbered by compaction, the external id map — to `path`
  /// (binary). Load restores HasPq() and the id map accordingly.
  ///
  /// Compact-on-save: a tombstoned index serializes its *compacted*
  /// form (dead rows dropped, internal ids remapped, graph repaired),
  /// so Load always yields a dense index whose searches return the same
  /// external ids a post-Compact() in-memory search would.
  ///
  /// Save replaces `path` atomically: it writes a new file in the same
  /// directory (which must be writable), fsyncs it, renames it over
  /// `path` and fsyncs the directory. A Save that fails before the
  /// rename returns kIoError, removes its new file and leaves the old
  /// one as it was; one whose directory fsync fails returns kIoError
  /// with the new file already in place. A `path`
  /// that exists but is not a regular file (a symlink, device or FIFO)
  /// is refused with kIoError before anything is created. Saving over
  /// the file an out-of-core index is mapped from is allowed: the
  /// mapping keeps the old file. The new file gets mode 0666 less the
  /// umask, not the old file's mode.
  ///
  /// Load reads the one index file format. Every section is checked to
  /// lie in the file before anything is allocated for it, the flags
  /// word after the graph is required, unknown section flags and
  /// out-of-range metrics are rejected, and the file must end exactly
  /// where its last section ends: every proper prefix and every longer
  /// file fails with kIoError. It builds into a local index and returns
  /// it by value, so a failed load never leaves partial state anywhere —
  /// callers that overwrite an existing index only do so by assigning a
  /// fully-validated result.
  [[nodiscard]] Status Save(const std::string& path) const;
  [[nodiscard]] static Result<CagraIndex> Load(const std::string& path);

  /// Maximum dataset size supported by the MSB parent-flag scheme.
  static constexpr size_t kMaxDatasetSize = (1ull << 31) - 1;

 private:
  /// Shared mutable core of an index: the published snapshot pointer
  /// plus writer-side state. Heap-owned so background compaction tasks
  /// can outlive (and harmlessly publish into) an index the caller
  /// already destroyed.
  struct Core {
    /// Current version; readers load it with std::atomic_load
    /// (acquire), writers swap it with std::atomic_store (release)
    /// while holding writer_mu. Never null after construction.
    std::shared_ptr<const IndexSnapshot> snapshot;
    /// Serializes every mutator (single-writer / multi-reader).
    Mutex writer_mu;
    /// Next external id Add assigns; monotone, never reused (tracked
    /// separately from the id map so removing the largest id cannot
    /// resurrect it). Atomic so the copy constructor can read it
    /// without the writer lock.
    std::atomic<uint32_t> next_external_id{0};
    CompactionOptions compaction CAGRA_GUARDED_BY(writer_mu);
    /// Background-compaction latch (one pass in flight at a time).
    mutable Mutex bg_mu;
    mutable CondVar bg_cv;
    bool bg_inflight CAGRA_GUARDED_BY(bg_mu) = false;
  };

  [[nodiscard]] static Result<CagraIndex> LoadImpl(const std::string& path,
                                                   bool out_of_core);

  /// Builds the compacted successor of `snap` (shared by Compact, the
  /// background pass, and compact-on-save).
  static std::shared_ptr<const IndexSnapshot> CompactSnapshot(
      const IndexSnapshot& snap);

  /// Body of the background compaction task (runs on the global pool).
  static void BackgroundCompact(const std::shared_ptr<Core>& core);

  /// Installs `snap` as the current version (constructors/Load, or a
  /// writer holding writer_mu).
  void StoreSnapshot(std::shared_ptr<const IndexSnapshot> snap);

  std::shared_ptr<Core> core_;
};

}  // namespace cagra

#endif  // CAGRA_CORE_INDEX_H_
