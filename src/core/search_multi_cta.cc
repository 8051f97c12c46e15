#include <algorithm>
#include <limits>

#include "core/search_internal.h"
#include "util/rng.h"
#include "util/visited_set.h"

namespace cagra {
namespace internal_search {

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

}  // namespace

size_t SearchMultiCta(const DatasetView& dataset,
                      const FixedDegreeGraph& graph, const float* query,
                      const ResolvedConfig& cfg, uint64_t query_seed,
                      uint32_t* out_ids, float* out_dists,
                      KernelCounters* counters, SearchScratch* scratch,
                      bool* truncated) {
  const size_t n = dataset.size();
  const size_t d = graph.degree();
  const size_t num_ctas = cfg.cta_per_query;
  // Each CTA seeds max(d, 1) random samples, so a degree-0 graph still
  // scores a start node per CTA; its merges take that many slots.
  const size_t slots = std::max<size_t>(d, 1);

  // Prepared once per query, shared by every CTA (the GPU equivalent
  // keeps one ADC table per query in shared memory).
  const DatasetView::QueryView qv =
      dataset.Prepare(query, &scratch->adc, counters);

  // One visited table per *query*, shared by its CTAs, in device memory
  // (Table II). A node claimed by one CTA is never recomputed by another.
  // Its probes are charged once, as the query's total.
  VisitedSet& visited = scratch->EnsureVisited(1ull << cfg.hash_bits);
  counters->hash_table_device_bytes += visited.MemoryBytes();
  const size_t probes_before = visited.probes();

  // Every CTA's local top-M, CTA c's at [c * 32, (c + 1) * 32).
  std::vector<KeyValue>& lists = scratch->topm;
  lists.assign(num_ctas * kMultiCtaLocalTopM, kPad);
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
      KeyValue* list = &lists[c * kMultiCtaLocalTopM];
      const size_t first_changed = SortAndMerge(
          list, kMultiCtaLocalTopM, batch_ids.data() + cta.fresh_begin,
          batch_dists.data() + cta.fresh_begin,
          cta.fresh_end - cta.fresh_begin, slots, &scratch->merged, counters);
      cta.cursor = std::min(cta.cursor, first_changed);
      cta.parent = NextParent(list, kMultiCtaLocalTopM, &cta.cursor);
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
  counters->hash_probes_device += visited.probes() - probes_before;

  // --- Result merge: a k-way merge of the CTA lists, each sorted under
  // KeyValueLess, through a min-heap of their next entries; entries that
  // are not IsUsable are skipped as they come out. Entries equal under
  // KeyValueLess are one id at one distance, so the merge emits what
  // sorting all ctas x 32 entries would; the same id held by several
  // CTAs (a full table re-admits nodes) arrives adjacent, and only its
  // first copy is kept.
  std::vector<SearchScratch::Head>& heads = scratch->heads;
  heads.clear();
  const auto later = [](const SearchScratch::Head& a,
                        const SearchScratch::Head& b) {
    return KeyValueLess(b.entry, a.entry);
  };
  const auto head_at = [&](size_t c, size_t slot) {
    const KeyValue& kv = lists[c * kMultiCtaLocalTopM + slot];
    return SearchScratch::Head{{kv.key, kv.value & kIndexMask},
                               static_cast<uint32_t>(c),
                               static_cast<uint32_t>(slot)};
  };
  for (size_t c = 0; c < num_ctas; c++) heads.push_back(head_at(c, 0));
  std::make_heap(heads.begin(), heads.end(), later);

  size_t written = 0;
  uint32_t prev = kInvalidEntry;
  while (written < cfg.k && !heads.empty()) {
    std::pop_heap(heads.begin(), heads.end(), later);
    const KeyValue entry = heads.back().entry;
    const size_t c = heads.back().cta;
    const size_t slot = heads.back().slot + 1;
    if (slot < kMultiCtaLocalTopM) {
      heads.back() = head_at(c, slot);
      std::push_heap(heads.begin(), heads.end(), later);
    } else {
      heads.pop_back();
    }
    if (!IsUsable(entry) || entry.value == prev) continue;
    prev = entry.value;
    // Lazy-delete filter: tombstoned rows routed the traversal but are
    // dropped at emission, identically across every dispatch tier.
    if (dataset.Deleted(entry.value)) continue;
    out_ids[written] = entry.value;
    out_dists[written] = entry.key;
    written++;
  }
  for (; written < cfg.k; written++) {
    out_ids[written] = kInvalidEntry;
    out_dists[written] = kInf;
  }
  return iterations;
}

}  // namespace internal_search
}  // namespace cagra
