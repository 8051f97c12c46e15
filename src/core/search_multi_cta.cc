#include <algorithm>

#include "core/search_internal.h"
#include "util/rng.h"
#include "util/visited_set.h"

namespace cagra {
namespace internal_search {

size_t SearchMultiCta(const DatasetView& dataset,
                      const FixedDegreeGraph& graph, const float* query,
                      const ResolvedConfig& cfg, uint64_t query_seed,
                      uint32_t* out_ids, float* out_dists,
                      KernelCounters* counters, SearchScratch* scratch,
                      bool* truncated) {
  const size_t n = dataset.size();
  const size_t d = graph.degree();
  const size_t num_ctas = cfg.num_lists;
  const size_t list_len = cfg.list_len;
  // Each CTA seeds max(d, 1) random samples, so a degree-0 graph still
  // scores a start node per CTA; its merges take that many slots.
  const size_t slots = std::max<size_t>(d, 1);

  // Prepared once per query, shared by every CTA (the GPU equivalent
  // keeps one ADC table per query in shared memory).
  const DatasetView::QueryView qv =
      dataset.Prepare(query, &scratch->adc, counters);

  // One visited table per *query*, shared by its CTAs, in device memory
  // (Table II). A node claimed by one CTA is never recomputed by another.
  VisitedSet& visited = scratch->OpenVisited(cfg, counters);

  // Every CTA's local top-M, CTA c's at [c * 32, (c + 1) * 32).
  std::vector<KeyValue>& lists = scratch->topm;
  lists.assign(num_ctas * list_len, kPad);
  std::vector<uint32_t>& batch_ids = scratch->batch_ids;
  std::vector<float>& batch_dists = scratch->batch_dists;
  batch_ids.clear();
  std::vector<SearchScratch::CtaState>& ctas = scratch->ctas;
  ctas.resize(num_ctas);

  // --- Step 0 per CTA: max(d, 1) random samples as its range of the
  // first round. The gather kernels give a row the same bits whatever
  // the batch, so one distance call per round equals one per CTA.
  for (size_t c = 0; c < num_ctas; c++) {
    SearchScratch::CtaState& cta = ctas[c];
    cta.active = true;
    cta.cursor = 0;
    Pcg32 rng(query_seed ^ (0x9e3779b97f4a7c15ULL * (c + 1)), 0xbeef + c);
    cta.fresh_begin = batch_ids.size();
    for (size_t i = 0; i < slots; i++) {
      const uint32_t node = rng.NextBounded(static_cast<uint32_t>(n));
      if (visited.InsertIfAbsent(node)) batch_ids.push_back(node);
    }
    cta.fresh_end = batch_ids.size();
  }
  batch_dists.resize(batch_ids.size());
  dataset.DistanceBatch(qv, batch_ids.data(), batch_ids.size(),
                        batch_dists.data(), counters);

  // --- Lockstep iterations: every active CTA merges its range of the
  // scored round and picks its single best non-parent node (p = 1);
  // then each expands its node and stages its fresh neighbors, probing
  // the table in CTA order; one batched distance call scores the round.
  size_t iterations = 0;
  // Cancellation boundary: one amortized check per lockstep round (a
  // round spans every active CTA, so rounds are the coarsest safe
  // granularity). Breaking leaves each CTA's local top-M sorted and
  // valid; the merge below emits the partial result unchanged.
  CancelCheck cancel(cfg.cancel, /*stride=*/4);
  while (iterations < cfg.max_iterations) {
    if (cancel.Expired()) {
      if (truncated != nullptr) *truncated = true;
      break;
    }
    bool any_active = false;
    for (size_t c = 0; c < num_ctas; c++) {
      SearchScratch::CtaState& cta = ctas[c];
      if (!cta.active) continue;
      KeyValue* list = &lists[c * list_len];
      const size_t first_changed = SortAndMerge(
          list, list_len, batch_ids.data() + cta.fresh_begin,
          batch_dists.data() + cta.fresh_begin,
          cta.fresh_end - cta.fresh_begin, slots, &scratch->merged, counters);
      cta.cursor = std::min(cta.cursor, first_changed);
      cta.parent = NextParent(list, list_len, &cta.cursor);
      // A CTA whose local list is fully expanded idles while the others
      // continue (the kernel keeps it resident but quiescent).
      cta.active = cta.parent != kInvalidEntry;
      any_active |= cta.active;
    }
    batch_ids.clear();
    for (SearchScratch::CtaState& cta : ctas) {
      if (!cta.active) continue;
      counters->device_graph_bytes += d * sizeof(uint32_t);
      const uint32_t* nbrs = graph.Neighbors(cta.parent);
      cta.fresh_begin = batch_ids.size();
      for (size_t j = 0; j < d; j++) {
        const uint32_t node = nbrs[j];
        if (node >= n) continue;
        if (visited.InsertIfAbsent(node)) batch_ids.push_back(node);
      }
      cta.fresh_end = batch_ids.size();
    }
    batch_dists.resize(batch_ids.size());
    dataset.DistanceBatch(qv, batch_ids.data(), batch_ids.size(),
                          batch_dists.data(), counters);
    iterations++;
    if (!any_active) break;
  }
  scratch->CloseVisited(cfg, counters);

  // --- Result merge: EmitTopK's k-way merge of the CTA lists. The same
  // id held by several CTAs (a full table re-admits nodes) is emitted
  // once.
  EmitTopK(lists.data(), num_ctas, list_len, dataset, cfg.k, out_ids,
           out_dists, &scratch->heads);
  return iterations;
}

}  // namespace internal_search
}  // namespace cagra
