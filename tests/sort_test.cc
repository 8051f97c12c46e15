#include <algorithm>
#include <cstring>
#include <iterator>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/search_internal.h"
#include "util/rng.h"
#include "util/sort.h"

namespace cagra {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
const float kNan = std::numeric_limits<float>::quiet_NaN();

TEST(KeyValueOrderTest, DistanceThenMaskedIdNanLast) {
  // Distance first, whatever the ids.
  EXPECT_TRUE(KeyValueLess({1.f, 9}, {2.f, 1}));
  EXPECT_FALSE(KeyValueLess({2.f, 1}, {1.f, 9}));
  // Equal distances go by id.
  EXPECT_TRUE(KeyValueLess({1.f, 3}, {1.f, 4}));
  EXPECT_FALSE(KeyValueLess({1.f, 4}, {1.f, 3}));
  // The parent flag is masked: a flagged entry keeps its id's place.
  EXPECT_TRUE(KeyValueLess({1.f, 3 | kParentFlag}, {1.f, 4}));
  EXPECT_FALSE(KeyValueLess({1.f, 4}, {1.f, 3 | kParentFlag}));
  EXPECT_FALSE(KeyValueLess({1.f, 3 | kParentFlag}, {1.f, 3}));
  EXPECT_FALSE(KeyValueLess({1.f, 3}, {1.f, 3 | kParentFlag}));
  // +0 and -0 are one distance.
  EXPECT_TRUE(KeyValueLess({-0.f, 1}, {0.f, 2}));
  EXPECT_TRUE(KeyValueLess({0.f, 1}, {-0.f, 2}));
  // NaN comes after everything, +inf included; NaNs go by id.
  EXPECT_TRUE(KeyValueLess({kInf, 7}, {kNan, 1}));
  EXPECT_FALSE(KeyValueLess({kNan, 1}, {kInf, 7}));
  EXPECT_FALSE(KeyValueLess({kNan, 1}, {-kInf, 7}));
  EXPECT_TRUE(KeyValueLess({kNan, 1}, {kNan, 2}));
  EXPECT_FALSE(KeyValueLess({kNan, 2}, {kNan, 1}));

  std::vector<KeyValue> v = {{kNan, 0},  {1.f, 5 | kParentFlag}, {-0.f, 6},
                             {1.f, 2},   {0.f, 4},         {kInf, 1},
                             {-2.f, 9}};
  std::sort(v.begin(), v.end(), KeyValueLess);
  std::vector<uint32_t> ids;
  for (const KeyValue& kv : v) ids.push_back(kv.value);
  EXPECT_EQ(ids, (std::vector<uint32_t>{9, 4, 6, 2, 5 | kParentFlag, 1, 0}));
}

/// n entries with distinct ids drawn from `ids`, keys from a small pool
/// so ties are common, plus negatives, ±0, +inf and NaN; a quarter of
/// the ids carry the parent flag.
std::vector<KeyValue> AwkwardEntries(size_t n, Pcg32* rng,
                                     const uint32_t* ids) {
  const float pool[] = {-3.f, -0.5f, -0.f, 0.f, 0.25f, 0.25f, 1.f,
                        7.5f, 7.5f,  1e30f, kInf, kNan};
  std::vector<KeyValue> out(n);
  for (KeyValue& kv : out) {
    const uint32_t pick =
        rng->NextBounded(static_cast<uint32_t>(2 * std::size(pool)));
    kv.key = pick < std::size(pool) ? pool[pick]
                                    : rng->NextFloat() * 10.f - 5.f;
    kv.value = *ids++;
    if (rng->NextBounded(4) == 0) kv.value |= kParentFlag;
  }
  return out;
}

bool SameEntries(const std::vector<KeyValue>& a,
                 const std::vector<KeyValue>& b) {
  // An empty vector's data() may be null, and memcmp on null is
  // undefined even for a zero length.
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(KeyValue)) == 0);
}

/// Runs SortAndMerge on a copy of `topm` and the ids and distances of
/// `candidates` over `num_slots` slots. The result must be bit-equal to
/// a sort of the whole buffer (top-M, candidates, then a pad per empty
/// slot) cut to |topm|, the charges must follow the slot count, and the
/// return value must be the first slot whose bits changed, or |topm|.
void ExpectMergeMatchesReference(const std::vector<KeyValue>& topm,
                                 const std::vector<KeyValue>& candidates,
                                 size_t num_slots,
                                 std::vector<KeyValue>* merged) {
  const size_t m = topm.size();
  std::vector<KeyValue> reference = topm;
  reference.insert(reference.end(), candidates.begin(), candidates.end());
  reference.resize(m + num_slots, internal_search::kPad);
  // Stable, so a top-M entry stays ahead of a candidate tied with it;
  // with distinct ids (pads are bit-identical) this is std::sort.
  std::stable_sort(reference.begin(), reference.end(), KeyValueLess);
  reference.resize(m);

  std::vector<KeyValue> out = topm;
  std::vector<uint32_t> ids;
  std::vector<float> dists;
  for (const KeyValue& kv : candidates) {
    ids.push_back(kv.value);
    dists.push_back(kv.key);
  }
  KernelCounters counters;
  const size_t first_changed = internal_search::SortAndMerge(
      out.data(), m, ids.data(), dists.data(), ids.size(), num_slots, merged,
      &counters);
  EXPECT_TRUE(SameEntries(out, reference))
      << m << " " << candidates.size() << " " << num_slots;
  size_t expected_changed = 0;
  while (expected_changed < m &&
         std::memcmp(&out[expected_changed], &topm[expected_changed],
                     sizeof(KeyValue)) == 0) {
    expected_changed++;
  }
  EXPECT_EQ(first_changed, expected_changed)
      << m << " " << candidates.size() << " " << num_slots;
  const bool bitonic = num_slots <= 512;
  EXPECT_EQ(counters.sort_exchanges,
            (bitonic ? BitonicSortExchanges(num_slots) : 0) +
                BitonicMergeExchanges(m, num_slots))
      << m << " " << num_slots;
  EXPECT_EQ(counters.radix_scatters,
            bitonic ? 0 : RadixSortScatters(num_slots))
      << m << " " << num_slots;
}

TEST(SortAndMergeTest, MatchesStdSortReference) {
  // SortAndMerge keeps the |topm| smallest of top-M, the filled slots
  // and the pads of the empty ones under KeyValueLess. Slot counts fall
  // on both sides of the 512 bitonic/radix charging rule, below and
  // above m; a random 0..c of the c slots are filled.
  Pcg32 rng(2024);
  std::vector<std::pair<size_t, size_t>> shapes = {
      {32, 16}, {64, 16}, {1, 0}, {0, 16}, {64, 512}, {64, 513}};
  for (int trial = 0; trial < 40; trial++) {
    shapes.emplace_back(rng.NextBounded(129), rng.NextBounded(1100));
  }
  shapes.emplace_back(32, 64);  // itopk 32 at search width 4
  shapes.emplace_back(0, 0);
  std::vector<KeyValue> merged;
  for (const auto& [m, c] : shapes) {
    const size_t filled = rng.NextBounded(static_cast<uint32_t>(c + 1));
    std::vector<uint32_t> ids(m + filled);
    std::iota(ids.begin(), ids.end(), 0u);
    for (size_t i = ids.size(); i > 1; i--) {
      std::swap(ids[i - 1],
                ids[rng.NextBounded(static_cast<uint32_t>(i))]);
    }
    std::vector<KeyValue> topm = AwkwardEntries(m, &rng, ids.data());
    const std::vector<KeyValue> candidates =
        AwkwardEntries(filled, &rng, ids.data() + m);
    std::sort(topm.begin(), topm.end(), KeyValueLess);
    ExpectMergeMatchesReference(topm, candidates, c, &merged);

    // The same buffer with the top-M's tail NaN: pads must enter.
    if (m == 0) continue;
    for (size_t i = m - std::min<size_t>(m, 3); i < m; i++) {
      topm[i].key = kNan;
    }
    std::sort(topm.begin(), topm.end(), KeyValueLess);
    ExpectMergeMatchesReference(topm, candidates, c, &merged);
  }

  // A forgettable reset can re-admit a node the top-M still holds,
  // flagged as expanded: the candidate ties with it under KeyValueLess
  // and must neither displace nor precede it.
  const std::vector<KeyValue> topm = {
      {0.5f, 3}, {1.f, 7 | kParentFlag}, {2.f, 1}, {kInf, 9}};
  ExpectMergeMatchesReference(topm, {{1.f, 7}, {0.25f, 4}}, 16, &merged);
  ExpectMergeMatchesReference(topm, {{1.f, 7}}, 16, &merged);
  const std::vector<KeyValue> nan_tail = {
      {1.f, 7 | kParentFlag}, {kNan, 2 | kParentFlag}};
  ExpectMergeMatchesReference(nan_tail, {{kNan, 2}, {1.f, 7}}, 4, &merged);
}

TEST(SortCostTest, FormulasMatchTheNetworkCounts) {
  // The counts the §IV-B2 networks reached when they were executed one
  // compare-exchange (or scatter) at a time on the host.
  const std::pair<size_t, size_t> sorts[] = {
      {0, 0},     {1, 0},     {2, 1},     {3, 6},       {16, 80},
      {17, 240},  {48, 672},  {64, 672},  {96, 1792},   {512, 11520},
      {513, 28160}};
  for (const auto& [n, exchanges] : sorts) {
    EXPECT_EQ(BitonicSortExchanges(n), exchanges) << n;
  }
  EXPECT_EQ(BitonicMergeExchanges(0, 16), 0u);
  EXPECT_EQ(BitonicMergeExchanges(32, 16), 192u);
  EXPECT_EQ(BitonicMergeExchanges(64, 16), 448u);
  EXPECT_EQ(BitonicMergeExchanges(1, 0), 0u);
  const std::pair<size_t, size_t> radix[] = {
      {0, 0}, {1, 0}, {2, 8}, {513, 2052}, {1024, 4096}};
  for (const auto& [n, scatters] : radix) {
    EXPECT_EQ(RadixSortScatters(n), scatters) << n;
  }
}

}  // namespace
}  // namespace cagra
