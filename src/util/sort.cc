#include "util/sort.h"

namespace cagra {

namespace {

/// log2 of the power of two a length-n network is padded to.
size_t PaddedLog2(size_t n) {
  size_t log = 0;
  while ((size_t{1} << log) < n) log++;
  return log;
}

}  // namespace

size_t BitonicSortExchanges(size_t n) {
  if (n <= 1) return 0;
  const size_t log_p = PaddedLog2(n);
  return (size_t{1} << log_p) / 2 * (log_p * (log_p + 1) / 2);
}

size_t BitonicMergeExchanges(size_t m, size_t c) {
  if (m == 0) return 0;
  const size_t log_p = PaddedLog2(m + c);
  return log_p * ((size_t{1} << log_p) / 2);
}

size_t RadixSortScatters(size_t n) {
  constexpr size_t kPasses = 4;
  return n <= 1 ? 0 : n * kPasses;
}

}  // namespace cagra
