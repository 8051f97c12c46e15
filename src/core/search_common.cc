#include <algorithm>
#include <cmath>

#include "core/search_internal.h"

namespace cagra {
namespace internal_search {

VisitedSet& SearchScratch::EnsureVisited(size_t capacity) {
  // Reset() and a fresh allocation are both O(capacity); reuse avoids
  // the allocator, not the wipe.
  if (visited == nullptr || visited->capacity() != capacity) {
    visited = std::make_unique<VisitedSet>(capacity);
  } else {
    visited->Reset();
  }
  return *visited;
}

void SearchScratch::FlushBatch(const DatasetView& dataset,
                               const DatasetView::QueryView& query,
                               std::vector<KeyValue>* list,
                               KernelCounters* counters) {
  batch_dists.resize(batch_ids.size());
  dataset.DistanceBatch(query, batch_ids.data(), batch_ids.size(),
                        batch_dists.data(), counters);
  for (size_t i = 0; i < batch_ids.size(); i++) {
    list->push_back({batch_dists[i], batch_ids[i]});
  }
  batch_ids.clear();
}

ResolvedConfig ResolveConfig(const SearchParams& params, SearchAlgo algo,
                             size_t graph_degree, size_t dataset_size) {
  ResolvedConfig cfg{};
  cfg.k = params.k;
  cfg.itopk = ResolveItopk(params);
  cfg.search_width = std::max<size_t>(1, params.search_width);
  cfg.seed = params.seed;

  // Iteration budget: enough to refill the top-M list several times
  // over (each iteration expands `search_width` parents).
  cfg.max_iterations =
      std::clamp<size_t>(2 * cfg.itopk / cfg.search_width, 16, 1024);

  // Hash sizing (§IV-B3): the search touches at most
  // Imax * p * d + initial-sample nodes; a standard table is sized to 2x
  // that. A shared-memory (forgettable) table is clamped to 2^8..2^13
  // entries; if the needed size exceeds the clamp we keep the paper's
  // periodic reset interval.
  const size_t per_iter =
      (algo == SearchAlgo::kMultiCta ? 1 : cfg.search_width) * graph_degree;
  const size_t worst_visits = (cfg.max_iterations + 1) * per_iter;
  const size_t wanted = 2 * worst_visits;
  size_t bits = params.hash_bits;
  const bool forgettable =
      params.hash_mode == HashMode::kForgettable ||
      (params.hash_mode == HashMode::kAuto && algo == SearchAlgo::kSingleCta);
  if (forgettable) {
    if (bits == 0) {
      bits = 8;
      while ((1ull << bits) < wanted && bits < 13) bits++;
    }
    cfg.hash_in_shared = true;
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
    cfg.hash_in_shared = false;
    cfg.hash_reset_interval = 0;
  }
  cfg.hash_bits = bits;
  return cfg;
}

size_t SortAndMerge(std::vector<KeyValue>* topm,
                    std::vector<KeyValue>* candidates, size_t num_slots,
                    std::vector<KeyValue>* merged, KernelCounters* counters) {
  // §IV-B2: the kernel sorts all num_slots slots, pads included, with a
  // warp-level bitonic network (<= 512) or a CTA radix sort, then
  // bitonic-merges them into the top-M. Charge those counts.
  if (num_slots <= 512) {
    counters->sort_exchanges += BitonicSortExchanges(num_slots);
  } else {
    counters->radix_scatters += RadixSortScatters(num_slots);
  }
  counters->sort_exchanges += BitonicMergeExchanges(topm->size(), num_slots);
  if (topm->empty()) return 0;

  // The merge puts the top-M's entry first on ties, so only a candidate
  // KeyValueLess than the M-th entry can enter. Pads can enter only when
  // the M-th key is NaN; then they join the list and take the same path.
  const KeyValue last = topm->back();
  if (KeyValueLess(kPad, last)) candidates->resize(num_slots, kPad);
  candidates->erase(std::remove_if(candidates->begin(), candidates->end(),
                                   [&](const KeyValue& kv) {
                                     return !KeyValueLess(kv, last);
                                   }),
                    candidates->end());
  if (candidates->empty()) return topm->size();
  std::sort(candidates->begin(), candidates->end(), KeyValueLess);

  // Entries up to the first survivor's upper bound keep their places;
  // the displaced tail is staged in `merged` and merged back with the
  // survivors until the top-M is full. The first survivor lands on the
  // first displaced slot, and it is KeyValueLess than the entry it
  // replaces, so that slot is the first that changes.
  const auto first = std::upper_bound(topm->begin(), topm->end(),
                                      candidates->front(), KeyValueLess);
  merged->assign(first, topm->end());
  auto kept = merged->cbegin();
  auto fresh = candidates->cbegin();
  for (auto out = first; out != topm->end(); ++out) {
    const bool take_fresh =
        fresh != candidates->cend() && KeyValueLess(*fresh, *kept);
    *out = take_fresh ? *fresh++ : *kept++;
  }
  return static_cast<size_t>(first - topm->begin());
}

}  // namespace internal_search
}  // namespace cagra
