#include <algorithm>
#include <limits>

#include "core/search_internal.h"
#include "util/rng.h"
#include "util/visited_set.h"

namespace cagra {
namespace internal_search {

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/// Scores the staged batch_ids with one batched distance call and makes
/// each active CTA's [fresh_begin, fresh_end) range its candidate list.
/// The gather kernels give a row the same bits whatever the batch, so
/// this equals one call per CTA.
void ScoreRound(const DatasetView& dataset, const DatasetView::QueryView& qv,
                SearchScratch* scratch, KernelCounters* counters) {
  std::vector<uint32_t>& ids = scratch->batch_ids;
  std::vector<float>& dists = scratch->batch_dists;
  dists.resize(ids.size());
  dataset.DistanceBatch(qv, ids.data(), ids.size(), dists.data(), counters);
  for (SearchScratch::CtaState& cta : scratch->ctas) {
    if (!cta.active) continue;
    cta.candidates.clear();
    for (size_t i = cta.fresh_begin; i < cta.fresh_end; i++) {
      cta.candidates.push_back({dists[i], ids[i]});
    }
  }
  ids.clear();
}

/// The first IsUsable slot at or after `slot` of a CTA list.
size_t NextUsable(const std::vector<KeyValue>& topm, size_t slot) {
  while (slot < topm.size() && !IsUsable(topm[slot])) slot++;
  return slot;
}

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

  std::vector<uint32_t>& batch_ids = scratch->batch_ids;
  batch_ids.clear();
  std::vector<SearchScratch::CtaState>& ctas = scratch->ctas;
  ctas.resize(num_ctas);

  // --- Step 0 per CTA: max(d, 1) random samples into its candidate list.
  for (size_t c = 0; c < num_ctas; c++) {
    SearchScratch::CtaState& cta = ctas[c];
    cta.active = true;
    cta.topm.assign(kMultiCtaLocalTopM, kPad);
    cta.cursor = 0;
    Pcg32 rng(query_seed ^ (0x9e3779b97f4a7c15ULL * (c + 1)), 0xbeef + c);
    cta.fresh_begin = batch_ids.size();
    for (size_t i = 0; i < slots; i++) {
      const uint32_t node = rng.NextBounded(static_cast<uint32_t>(n));
      if (visited.InsertIfAbsent(node)) batch_ids.push_back(node);
    }
    cta.fresh_end = batch_ids.size();
  }
  ScoreRound(dataset, qv, scratch, counters);

  // --- Lockstep iterations: every active CTA merges its buffer, expands
  // its single best non-parent node (p = 1) and stages its fresh
  // neighbors; one batched distance call then refills every CTA.
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
    for (SearchScratch::CtaState& cta : ctas) {
      if (!cta.active) continue;
      cta.cursor = std::min(cta.cursor,
                            SortAndMerge(&cta.topm, &cta.candidates, slots,
                                         &scratch->merged, counters));
      const uint32_t parent = NextParent(&cta.topm, &cta.cursor);
      if (parent == kInvalidEntry) {
        // This CTA's local list is fully expanded; it idles while the
        // others continue (the kernel keeps it resident but quiescent).
        cta.active = false;
        continue;
      }
      any_active = true;

      counters->device_graph_bytes += d * sizeof(uint32_t);
      const uint32_t* nbrs = graph.Neighbors(parent);
      cta.fresh_begin = batch_ids.size();
      for (size_t j = 0; j < d; j++) {
        const uint32_t node = nbrs[j];
        if (node >= n) continue;
        if (visited.InsertIfAbsent(node)) batch_ids.push_back(node);
      }
      cta.fresh_end = batch_ids.size();
    }
    ScoreRound(dataset, qv, scratch, counters);
    iterations++;
    if (!any_active) break;
  }
  counters->hash_probes_device += visited.probes() - probes_before;

  // --- Result merge: a k-way merge of the CTA lists, each sorted under
  // KeyValueLess, through a min-heap of their next usable entries. Entries
  // equal under KeyValueLess are one id at one distance, so the merge
  // emits what sorting all ctas x 32 entries would; the same id held by
  // several CTAs (a full table re-admits nodes) arrives adjacent, and
  // only its first copy is kept.
  std::vector<SearchScratch::Head>& heads = scratch->heads;
  heads.clear();
  const auto later = [](const SearchScratch::Head& a,
                        const SearchScratch::Head& b) {
    return KeyValueLess(b.entry, a.entry);
  };
  const auto head_at = [&](size_t c, size_t slot) {
    const KeyValue& kv = ctas[c].topm[slot];
    return SearchScratch::Head{{kv.key, kv.value & kIndexMask},
                               static_cast<uint32_t>(c),
                               static_cast<uint32_t>(slot)};
  };
  for (size_t c = 0; c < num_ctas; c++) {
    const size_t slot = NextUsable(ctas[c].topm, 0);
    if (slot < kMultiCtaLocalTopM) heads.push_back(head_at(c, slot));
  }
  std::make_heap(heads.begin(), heads.end(), later);

  size_t written = 0;
  uint32_t prev = kInvalidEntry;
  while (written < cfg.k && !heads.empty()) {
    std::pop_heap(heads.begin(), heads.end(), later);
    const KeyValue entry = heads.back().entry;
    const size_t c = heads.back().cta;
    const size_t slot = NextUsable(ctas[c].topm, heads.back().slot + 1);
    if (slot < kMultiCtaLocalTopM) {
      heads.back() = head_at(c, slot);
      std::push_heap(heads.begin(), heads.end(), later);
    } else {
      heads.pop_back();
    }
    if (entry.value == prev) continue;
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
