#ifndef CAGRA_CORE_SNAPSHOT_H_
#define CAGRA_CORE_SNAPSHOT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "dataset/matrix.h"
#include "dataset/mmap_matrix.h"
#include "dataset/pq.h"
#include "dataset/quantize.h"
#include "distance/distance.h"
#include "graph/fixed_degree_graph.h"

namespace cagra {

/// One immutable, internally consistent version of a CagraIndex: the
/// graph, every storage tier, the tombstone bitmap, and the id remap,
/// frozen together. Searches obtain the current snapshot once per call
/// (CagraIndex::snapshot(), a wait-free atomic shared_ptr load) and
/// read only through it, so a concurrent Add/Remove/Compact — which
/// publishes a *new* snapshot and never mutates an old one — cannot
/// change, tear, or invalidate anything mid-search. This is the
/// epoch/RCU-style read path: readers pin a version by refcount,
/// writers swap the pointer.
///
/// Tiers are shared_ptrs so successive snapshots share every tier a
/// mutation did not touch (Remove copies only the bitmap; Add copies
/// the tiers it appends to). All fields are set before the snapshot is
/// published and never written afterwards.
///
/// Two views of node identity:
///  - *internal* ids index the graph and every tier row (dense,
///    [0, size())). The search kernels traverse internal ids.
///  - *external* ids are the stable public ids results report:
///    assigned at Build/Add time, preserved across compaction (which
///    renumbers internal rows), never reused. `id_map` translates
///    internal -> external; null means identity (no compaction has
///    renumbered yet).
struct IndexSnapshot {
  /// RAM-resident fp32 rows; null when the index is out-of-core.
  std::shared_ptr<const Matrix<float>> dataset;
  std::shared_ptr<const Matrix<Half>> half;
  std::shared_ptr<const QuantizedDataset> int8;
  std::shared_ptr<const PqDataset> pq;
  /// Mapped fp32 tier; null when RAM-resident.
  std::shared_ptr<const MmapMatrix> mmap;
  std::shared_ptr<const FixedDegreeGraph> graph;
  /// Tombstone bitmap, one bit per internal row ((size()+63)/64 words);
  /// null when nothing is removed. Dead nodes stay in the graph and
  /// keep routing traversals (lazy filtering at result emission), so a
  /// Remove costs one bitmap copy, not a graph repair.
  std::shared_ptr<const std::vector<uint64_t>> tombstones;
  /// Internal row -> external id, strictly increasing; null = identity.
  std::shared_ptr<const std::vector<uint32_t>> id_map;
  size_t num_rows = 0;
  size_t num_dims = 0;
  /// Tombstoned rows (<= num_rows); live rows = num_rows - num_dead.
  size_t num_dead = 0;
  Metric metric = Metric::kL2;

  size_t size() const { return num_rows; }
  size_t dim() const { return num_dims; }
  size_t live_rows() const { return num_rows - num_dead; }
  size_t degree() const { return graph ? graph->degree() : 0; }
  bool out_of_core() const { return mmap != nullptr; }

  bool HasHalf() const { return half != nullptr && !half->empty(); }
  bool HasInt8() const { return int8 != nullptr && !int8->empty(); }
  bool HasPq() const { return pq != nullptr && !pq->empty(); }

  /// Reference accessors with empty-object fallbacks (an empty index
  /// reads as empty tiers, not null). They borrow from this snapshot, so
  /// bind CagraIndex::snapshot() to a local first — the only read path
  /// to index storage — and never take a reference through the
  /// temporary it returns.
  const Matrix<float>& DatasetRef() const {
    static const Matrix<float> kEmpty;
    return dataset ? *dataset : kEmpty;
  }
  const Matrix<Half>& HalfRef() const {
    static const Matrix<Half> kEmpty;
    return half ? *half : kEmpty;
  }
  const QuantizedDataset& Int8Ref() const {
    static const QuantizedDataset kEmpty;
    return int8 ? *int8 : kEmpty;
  }
  const PqDataset& PqRef() const {
    static const PqDataset kEmpty;
    return pq ? *pq : kEmpty;
  }
  const FixedDegreeGraph& GraphRef() const {
    static const FixedDegreeGraph kEmpty;
    return graph ? *graph : kEmpty;
  }

  /// fp32 row access through the active storage tier.
  const float* Fp32Row(size_t i) const {
    return mmap ? mmap->Row(i) : DatasetRef().Row(i);
  }
  const float* Fp32Data() const {
    return mmap ? mmap->data() : DatasetRef().data().data();
  }

  /// Whether internal row `id` is tombstoned. The hot-path form of the
  /// lazy filter: one branch on the (usually null) bitmap pointer.
  bool Deleted(uint32_t id) const {
    return tombstones != nullptr &&
           (((*tombstones)[id >> 6] >> (id & 63)) & 1u) != 0;
  }

  /// External id of internal row `internal`.
  uint32_t ExternalId(uint32_t internal) const {
    return id_map ? (*id_map)[internal] : internal;
  }

  /// Internal row currently holding external id `external`, or
  /// kNoInternal when the id was never assigned (or its row was
  /// compacted away). Binary search: id_map is strictly increasing
  /// (compaction preserves row order, Add appends monotone ids).
  static constexpr uint32_t kNoInternal = 0xffffffffu;
  uint32_t InternalId(uint32_t external) const {
    if (id_map == nullptr) {
      return external < num_rows ? external : kNoInternal;
    }
    const auto it =
        std::lower_bound(id_map->begin(), id_map->end(), external);
    if (it == id_map->end() || *it != external) return kNoInternal;
    return static_cast<uint32_t>(it - id_map->begin());
  }
};

}  // namespace cagra

#endif  // CAGRA_CORE_SNAPSHOT_H_
