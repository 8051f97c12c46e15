#ifndef CAGRA_TESTS_SHARDED_REFERENCE_H_
#define CAGRA_TESTS_SHARDED_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/sharded.h"

namespace cagra {

/// Scheduling-free reference for ShardedCagraIndex::Search: every shard
/// searches the whole batch on one thread, with the batch-shape auto
/// choices pinned as the sharded search pins them, and MergeShardTopK
/// folds the per-shard lists. Shard s's local id i is global id
/// i * num_shards + s (the round-robin layout Build and Add keep).
/// Only ids and distances are produced: the determinism suites compare
/// those against every (threads, chunk size) schedule.
inline Result<NeighborList> ShardedReferenceSearch(
    const ShardedCagraIndex& index, const Matrix<float>& queries,
    const SearchParams& params) {
  const size_t num_shards = index.num_shards();
  const size_t batch = queries.rows();
  const size_t k = params.k;
  SearchParams shard_params = ResolveBatchShape(params, DeviceSpec{}, batch);
  shard_params.num_threads = 1;

  std::vector<NeighborList> lists(num_shards);
  for (size_t s = 0; s < num_shards; s++) {
    auto r = Search(index.shard(s), queries, shard_params);
    if (!r.ok()) return r.status();
    lists[s] = std::move(r->neighbors);
    for (uint32_t& id : lists[s].ids) {
      if (id != kInvalidShardEntry) {
        id = static_cast<uint32_t>(id * num_shards + s);
      }
    }
  }

  NeighborList out;
  out.k = k;
  out.ids.resize(batch * k);
  out.distances.resize(batch * k);
  std::vector<ShardMergeList> merge(num_shards);
  for (size_t q = 0; q < batch; q++) {
    for (size_t s = 0; s < num_shards; s++) {
      merge[s] = {lists[s].distances.data() + q * k,
                  lists[s].ids.data() + q * k, k};
    }
    MergeShardTopK(merge.data(), num_shards, k, out.ids.data() + q * k,
                   out.distances.data() + q * k);
  }
  return out;
}

}  // namespace cagra

#endif  // CAGRA_TESTS_SHARDED_REFERENCE_H_
