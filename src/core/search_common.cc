#include <algorithm>
#include <limits>

#include "core/search_internal.h"

namespace cagra {
namespace internal_search {

VisitedSet& SearchScratch::OpenVisited(const ResolvedConfig& cfg,
                                       KernelCounters* counters) {
  // Reset() and a fresh allocation are both O(capacity); reuse avoids
  // the allocator, not the wipe.
  const size_t capacity = size_t{1} << cfg.hash_bits;
  if (visited == nullptr || visited->capacity() != capacity) {
    visited = std::make_unique<VisitedSet>(capacity);
  } else {
    visited->Reset();
  }
  if (!cfg.hash_in_shared) {
    counters->hash_table_device_bytes += visited->MemoryBytes();
  }
  probes_at_open_ = visited->probes();
  return *visited;
}

void SearchScratch::CloseVisited(const ResolvedConfig& cfg,
                                 KernelCounters* counters) {
  (cfg.hash_in_shared ? counters->hash_probes_shared
                      : counters->hash_probes_device) +=
      visited->probes() - probes_at_open_;
}

ResolvedConfig ResolveConfig(const SearchParams& params, size_t graph_degree,
                             size_t dataset_size) {
  ResolvedConfig cfg{};
  cfg.k = params.k;
  cfg.itopk = ResolveItopk(params);
  cfg.seed = params.seed;
  if (params.algo == SearchAlgo::kMultiCta) {
    cfg.algo = SearchAlgo::kMultiCta;
    cfg.num_lists = params.cta_per_query;
    cfg.list_len = kMultiCtaLocalTopM;
    cfg.parents = 1;
    cfg.threads_per_cta = 128;
    cfg.hash_in_shared = false;
  } else {
    cfg.algo = SearchAlgo::kSingleCta;
    cfg.num_lists = 1;
    cfg.list_len = cfg.itopk;
    cfg.parents = std::max<size_t>(1, params.search_width);
    cfg.threads_per_cta = 256;
    // kAuto: a forgettable table in shared memory.
    cfg.hash_in_shared = params.hash_mode != HashMode::kStandard;
  }

  // Iteration budget: enough to refill the top-M list several times
  // over (each iteration expands `parents` nodes per list).
  cfg.max_iterations =
      std::clamp<size_t>(2 * cfg.itopk / cfg.parents, 16, 1024);

  // Hash sizing (§IV-B3): the search touches at most
  // Imax * lists * p * d + initial-sample nodes; a standard table is
  // sized to 2x that, and never past 2x the rows it can hold. Multi-CTA's
  // CTAs share one table, so it counts every CTA's visits. A
  // shared-memory (forgettable) table is clamped to 2^8..2^13 entries;
  // if the needed size exceeds the clamp we keep the paper's periodic
  // reset interval.
  const size_t per_iter = cfg.num_lists * cfg.parents * graph_degree;
  const size_t worst_visits = (cfg.max_iterations + 1) * per_iter;
  const size_t wanted = 2 * worst_visits;
  size_t bits = params.hash_bits;
  if (cfg.hash_in_shared) {
    if (bits == 0) {
      bits = 8;
      while ((1ull << bits) < wanted && bits < 13) bits++;
    }
    cfg.hash_reset_interval = std::max<size_t>(1, params.hash_reset_interval);
    // A table big enough for the whole search never needs resetting.
    if ((1ull << bits) >= wanted) cfg.hash_reset_interval = 0;
  } else {
    if (bits == 0) {
      bits = 8;
      while ((1ull << bits) < wanted && (1ull << bits) < 2 * dataset_size) {
        bits++;
      }
    }
    cfg.hash_reset_interval = 0;
  }
  cfg.hash_bits = bits;
  return cfg;
}

size_t SortAndMerge(KeyValue* topm, size_t m, const uint32_t* ids,
                    const float* dists, size_t count, size_t num_slots,
                    std::vector<KeyValue>* merged, KernelCounters* counters) {
  // §IV-B2: the kernel sorts all num_slots slots, pads included, with a
  // warp-level bitonic network (<= 512) or a CTA radix sort, then
  // bitonic-merges them into the top-M. Charge those counts.
  if (num_slots <= 512) {
    counters->sort_exchanges += BitonicSortExchanges(num_slots);
  } else {
    counters->radix_scatters += RadixSortScatters(num_slots);
  }
  counters->sort_exchanges += BitonicMergeExchanges(m, num_slots);
  if (m == 0) return 0;

  // The merge puts the top-M's entry first on ties, so only a candidate
  // KeyValueLess than the M-th entry can enter. Pads can enter only when
  // the M-th key is NaN; then they join the survivors.
  const KeyValue last = topm[m - 1];
  merged->clear();
  for (size_t i = 0; i < count; i++) {
    const KeyValue kv{dists[i], ids[i]};
    if (KeyValueLess(kv, last)) merged->push_back(kv);
  }
  if (KeyValueLess(kPad, last)) {
    merged->resize(merged->size() + num_slots - count, kPad);
  }
  if (merged->empty()) return m;
  std::sort(merged->begin(), merged->end(), KeyValueLess);

  // Entries up to the first survivor's upper bound keep their places;
  // the displaced tail is staged after the survivors and merged back
  // with them until the top-M is full. The first survivor lands on the
  // first displaced slot, and it is KeyValueLess than the entry it
  // replaces, so that slot is the first that changes.
  KeyValue* const first =
      std::upper_bound(topm, topm + m, merged->front(), KeyValueLess);
  const size_t survivors = merged->size();
  merged->insert(merged->end(), first, topm + m);
  auto fresh = merged->cbegin();
  const auto fresh_end = fresh + survivors;
  auto kept = fresh_end;
  for (KeyValue* out = first; out != topm + m; ++out) {
    const bool take_fresh = fresh != fresh_end && KeyValueLess(*fresh, *kept);
    *out = take_fresh ? *fresh++ : *kept++;
  }
  return static_cast<size_t>(first - topm);
}

void EmitTopK(const KeyValue* lists, size_t num_lists, size_t list_len,
              const DatasetView& dataset, size_t k, uint32_t* out_ids,
              float* out_dists, std::vector<SearchScratch::Head>* heads) {
  using Head = SearchScratch::Head;
  const auto later = [](const Head& a, const Head& b) {
    return KeyValueLess(b.entry, a.entry);
  };
  const auto head_at = [&](size_t list, size_t slot) {
    const KeyValue& kv = lists[list * list_len + slot];
    return Head{{kv.key, kv.value & kIndexMask}, static_cast<uint32_t>(list),
                static_cast<uint32_t>(slot)};
  };
  heads->clear();
  for (size_t list = 0; list < num_lists; list++) {
    heads->push_back(head_at(list, 0));
  }
  std::make_heap(heads->begin(), heads->end(), later);

  size_t written = 0;
  uint32_t prev = kInvalidEntry;
  while (written < k && !heads->empty()) {
    std::pop_heap(heads->begin(), heads->end(), later);
    Head& top = heads->back();
    const KeyValue entry = top.entry;
    const size_t slot = top.slot + 1;
    if (slot < list_len) {
      top = head_at(top.list, slot);
      std::push_heap(heads->begin(), heads->end(), later);
    } else {
      heads->pop_back();
    }
    if (!IsUsable(entry) || entry.value == prev) continue;
    prev = entry.value;
    if (dataset.Deleted(entry.value)) continue;
    out_ids[written] = entry.value;
    out_dists[written] = entry.key;
    written++;
  }
  for (; written < k; written++) {
    out_ids[written] = kInvalidEntry;
    out_dists[written] = std::numeric_limits<float>::infinity();
  }
}

}  // namespace internal_search
}  // namespace cagra
