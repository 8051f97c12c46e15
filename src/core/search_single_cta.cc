#include <algorithm>

#include "core/search_internal.h"
#include "util/rng.h"
#include "util/visited_set.h"

namespace cagra {
namespace internal_search {

size_t SearchSingleCta(const DatasetView& dataset,
                       const FixedDegreeGraph& graph, const float* query,
                       const ResolvedConfig& cfg, uint64_t query_seed,
                       uint32_t* out_ids, float* out_dists,
                       KernelCounters* counters, SearchScratch* scratch,
                       bool* truncated) {
  const size_t n = dataset.size();
  const size_t d = graph.degree();
  const size_t num_candidates = cfg.parents * d;

  // Per-query preparation: for PQ this builds the ADC tables every
  // subsequent distance call scans (charged like the kernel's per-query
  // codebook pass); for the decoded modes it is free.
  const DatasetView::QueryView qv =
      dataset.Prepare(query, &scratch->adc, counters);

  // Buffer layout of Fig. 6: internal top-M (sorted ascending) followed
  // by num_candidates slots, whose filled ones are the scored batch
  // (SearchScratch). All buffers live in the per-worker scratch.
  std::vector<KeyValue>& topm = scratch->topm;

  VisitedSet& visited = scratch->OpenVisited(cfg, counters);
  Pcg32 rng(query_seed, 0xc0ffee);

  // Fresh nodes and, once one batched call has scored them, their
  // distances.
  std::vector<uint32_t>& batch_ids = scratch->batch_ids;
  std::vector<float>& batch_dists = scratch->batch_dists;

  // --- Step 0: random sampling. The whole buffer (internal top-M +
  // candidate list, Fig. 6) is seeded with uniform random nodes so the
  // search starts from M + p*d basins; duplicates are filtered through
  // the visited table exactly like graph-expanded candidates. Distances
  // for the deduplicated sample run as one batched kernel call.
  {
    const size_t num_slots = cfg.list_len + num_candidates;
    std::vector<KeyValue>& init = scratch->init;
    init.clear();
    batch_ids.clear();
    for (size_t slot = 0; slot < num_slots; slot++) {
      const uint32_t node = rng.NextBounded(static_cast<uint32_t>(n));
      if (visited.InsertIfAbsent(node)) batch_ids.push_back(node);
    }
    batch_dists.resize(batch_ids.size());
    dataset.DistanceBatch(qv, batch_ids.data(), batch_ids.size(),
                          batch_dists.data(), counters);
    for (size_t i = 0; i < batch_ids.size(); i++) {
      init.push_back({batch_dists[i], batch_ids[i]});
    }
    counters->sort_exchanges += BitonicSortExchanges(num_slots);
    std::sort(init.begin(), init.end(), KeyValueLess);
    // Each duplicate left a pad in its slot; the sorted buffer holds
    // them before the first NaN key. The top-M takes the first list_len
    // entries and the tail's real entries are the first scored batch,
    // its pads implicit again.
    init.insert(std::lower_bound(init.begin(), init.end(), kPad, KeyValueLess),
                num_slots - init.size(), kPad);
    topm.assign(init.begin(), init.begin() + cfg.list_len);
    batch_ids.clear();
    batch_dists.clear();
    for (auto kv = init.cbegin() + cfg.list_len; kv != init.cend(); ++kv) {
      if (kv->value == kInvalidEntry) continue;
      batch_ids.push_back(kv->value);
      batch_dists.push_back(kv->key);
    }
  }

  size_t iterations = 0;
  size_t cursor = 0;  // NextParent's scan start in topm
  std::vector<uint32_t>& parents = scratch->parents;
  parents.clear();
  parents.reserve(cfg.parents);
  // Cancellation boundary: one amortized token check per iteration
  // (an iteration already costs p*d distance computations, so the
  // stride mostly amortizes the steady_clock read). Breaking here
  // leaves topm a valid sorted prefix of the search so far — the
  // output block below emits it unchanged, just earlier.
  CancelCheck cancel(cfg.cancel, /*stride=*/4);
  while (true) {
    // --- Step 1: update internal top-M from the whole buffer.
    cursor = std::min(
        cursor, SortAndMerge(topm.data(), topm.size(), batch_ids.data(),
                             batch_dists.data(), batch_ids.size(),
                             num_candidates, &scratch->merged, counters));
    iterations++;

    if (iterations >= cfg.max_iterations) break;
    if (cancel.Expired()) {
      if (truncated != nullptr) *truncated = true;
      break;
    }

    // --- Step 2: pick up to p best non-parent nodes, set their MSB flag
    // (§IV-B4), gather their adjacency rows.
    parents.clear();
    while (parents.size() < cfg.parents) {
      const uint32_t parent = NextParent(topm.data(), topm.size(), &cursor);
      if (parent == kInvalidEntry) break;
      parents.push_back(parent);
    }
    // Convergence: the top-M index set is stable once every entry has
    // been expanded — no further iteration can change it.
    if (parents.empty()) break;

    // --- Forgettable management (§IV-B3): periodically wipe the table
    // and re-register only the current internal top-M.
    if (cfg.hash_reset_interval != 0 &&
        iterations % cfg.hash_reset_interval == 0) {
      visited.Reset();
      counters->hash_resets++;
      for (const auto& entry : topm) {
        if (!IsUsable(entry)) continue;
        visited.InsertIfAbsent(entry.value & kIndexMask);
      }
    }

    // --- Steps 2b + 3: fill the candidate list with the parents'
    // neighbors. The visited-table pass collects first-time nodes, then
    // one batched kernel call computes all their distances (the paper's
    // team-per-candidate parallelism, expressed as SIMD lanes here).
    batch_ids.clear();
    for (const uint32_t parent : parents) {
      const uint32_t* nbrs = graph.Neighbors(parent);
      counters->device_graph_bytes += d * sizeof(uint32_t);
      for (size_t j = 0; j < d; j++) {
        const uint32_t node = nbrs[j];
        if (node >= n) continue;  // kInvalid padding
        if (visited.InsertIfAbsent(node)) batch_ids.push_back(node);
      }
    }
    batch_dists.resize(batch_ids.size());
    dataset.DistanceBatch(qv, batch_ids.data(), batch_ids.size(),
                          batch_dists.data(), counters);
  }
  scratch->CloseVisited(cfg, counters);

  // --- Output: the top-M as EmitTopK's one list, parent flags stripped
  // and deduplicated (a node is held twice only after a full or reset
  // table re-admits it).
  EmitTopK(topm.data(), 1, topm.size(), dataset, cfg.k, out_ids, out_dists,
           &scratch->heads);
  return iterations;
}

}  // namespace internal_search
}  // namespace cagra
