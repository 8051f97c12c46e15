#include "util/visited_set.h"

#include <algorithm>

namespace cagra {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

VisitedSet::VisitedSet(size_t min_capacity)
    : slots_(RoundUpPow2(min_capacity), kEmpty), mask_(slots_.size() - 1) {}

bool VisitedSet::InsertIntoFull(uint32_t key) {
  // The key may still be *present* — probe before declaring overflow, or
  // every revisit would be reported unvisited and recomputed. The table
  // has no empty stop slot anymore, so the walk is capped
  // (kMaxFullProbes) to keep the overflow regime O(1) like the GPU
  // kernel it models; a present key past the cap is treated as an
  // overflow, which recomputes but stays correct.
  constexpr size_t kMaxFullProbes = 64;
  const size_t limit = std::min(slots_.size(), kMaxFullProbes);
  size_t slot = Slot(key);
  for (size_t i = 0; i < limit; i++) {
    probes_++;
    if (slots_[slot] == key) return false;
    slot = (slot + 1) & mask_;
  }
  return true;  // absent (as far as the capped probe saw): recompute
}

bool VisitedSet::Contains(uint32_t key) const {
  size_t slot = Slot(key);
  for (size_t i = 0; i <= mask_; i++) {
    const uint32_t occupant = slots_[slot];
    if (occupant == key) return true;
    if (occupant == kEmpty) return false;
    slot = (slot + 1) & mask_;
  }
  return false;
}

void VisitedSet::Reset() {
  std::fill(slots_.begin(), slots_.end(), kEmpty);
  size_ = 0;
}

}  // namespace cagra
