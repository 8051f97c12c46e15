#ifndef CAGRA_UTIL_SORT_H_
#define CAGRA_UTIL_SORT_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace cagra {

/// MSB parent flag on search-buffer entries (§IV-B4): set once a node has
/// been expanded, checked with one bit-test instead of a second hash
/// lookup. kIndexMask strips it.
constexpr uint32_t kParentFlag = 0x80000000u;
constexpr uint32_t kIndexMask = 0x7fffffffu;

/// A (distance, index) pair as held in the CAGRA search buffer. The index
/// may carry kParentFlag, so every comparison goes through KeyValueLess,
/// which masks it.
struct KeyValue {
  float key;
  uint32_t value;
};

/// The one order of every search buffer: ascending distance, ties by id
/// with the parent flag masked (expanding a node never moves it), NaN
/// keys last. Strict-weak on any input, so std::sort is safe on it; on
/// non-NaN keys it is BoundedHeap's (distance, id) order, which the
/// rerank, the shard merge and ground truth use. A function object, so
/// the standard algorithms it is passed to inline the comparison rather
/// than call through a function pointer.
struct KeyValueLessFn {
  bool operator()(const KeyValue& a, const KeyValue& b) const {
    const bool id_less = (a.value & kIndexMask) < (b.value & kIndexMask);
    // One float comparison settles the usual cases (+0 == -0); the NaN
    // tests run only when it finds the keys unordered or a > b.
    if (a.key < b.key) return true;
    if (a.key == b.key) return id_less;
    if (!std::isnan(b.key)) return false;
    return !std::isnan(a.key) || id_less;
  }
};
inline constexpr KeyValueLessFn KeyValueLess{};

// The §IV-B2 sorts as the cost model prices them. The GPU kernel sorts
// with a warp-level bitonic network (<= 512 entries) or a CTA radix sort
// and merges with a bitonic network; their operation counts depend on the
// lengths alone, so the host charges these and sorts with std::sort.

namespace sort_internal {

/// log2 of the power of two a length-n network is padded to.
inline size_t PaddedLog2(size_t n) {
  size_t log = 0;
  while ((size_t{1} << log) < n) log++;
  return log;
}

}  // namespace sort_internal

/// Compare-exchanges of a bitonic sort of n entries padded with +inf to
/// the next power of two P: P/2 per stage over log2(P)(log2(P)+1)/2
/// stages. 0 for n <= 1.
inline size_t BitonicSortExchanges(size_t n) {
  if (n <= 1) return 0;
  const size_t log_p = sort_internal::PaddedLog2(n);
  return (size_t{1} << log_p) / 2 * (log_p * (log_p + 1) / 2);
}

/// Compare-exchanges of the bitonic merge that folds c sorted candidates
/// into an m-entry sorted top-M: log2(P) stages of P/2 over the padded
/// combined length P. 0 when m is 0 (there is nothing to keep).
inline size_t BitonicMergeExchanges(size_t m, size_t c) {
  if (m == 0) return 0;
  const size_t log_p = sort_internal::PaddedLog2(m + c);
  return log_p * ((size_t{1} << log_p) / 2);
}

/// Scatters of a radix sort of n entries: one per entry in each of the
/// four 8-bit digit passes over a 32-bit key. 0 for n <= 1.
inline size_t RadixSortScatters(size_t n) {
  constexpr size_t kPasses = 4;
  return n <= 1 ? 0 : n * kPasses;
}

}  // namespace cagra

#endif  // CAGRA_UTIL_SORT_H_
