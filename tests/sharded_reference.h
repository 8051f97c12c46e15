#ifndef CAGRA_TESTS_SHARDED_REFERENCE_H_
#define CAGRA_TESTS_SHARDED_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/sharded.h"

namespace cagra {

/// Scheduling-free reference for ShardedCagraIndex::Search: every shard
/// searches the whole batch on one thread, one shard after another, and
/// MergeShardTopK folds the per-shard lists through round-robin id maps
/// (shard s's local id i is global id i * num_shards + s, the layout
/// Build and Add keep). The maps cover local ids 0 .. shard size - 1,
/// so the index must not have been mutated. Only ids and distances are
/// produced: the determinism suites compare those against every thread
/// count.
inline Result<NeighborList> ShardedReferenceSearch(
    const ShardedCagraIndex& index, const Matrix<float>& queries,
    const SearchParams& params) {
  const size_t num_shards = index.num_shards();
  const size_t batch = queries.rows();
  const size_t k = params.k;
  SearchParams shard_params = params;
  shard_params.num_threads = 1;

  std::vector<NeighborList> lists(num_shards);
  std::vector<std::vector<uint32_t>> id_maps(num_shards);
  for (size_t s = 0; s < num_shards; s++) {
    auto r = Search(index.shard(s), queries, shard_params);
    if (!r.ok()) return r.status();
    lists[s] = std::move(r->neighbors);
    id_maps[s].resize(index.shard(s).size());
    for (size_t i = 0; i < id_maps[s].size(); i++) {
      id_maps[s][i] = static_cast<uint32_t>(i * num_shards + s);
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
                  lists[s].ids.data() + q * k, k, id_maps[s].data(),
                  id_maps[s].size()};
    }
    MergeShardTopK(merge.data(), num_shards, k, out.ids.data() + q * k,
                   out.distances.data() + q * k);
  }
  return out;
}

}  // namespace cagra

#endif  // CAGRA_TESTS_SHARDED_REFERENCE_H_
