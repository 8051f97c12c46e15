#ifndef CAGRA_UTIL_BOUNDED_HEAP_H_
#define CAGRA_UTIL_BOUNDED_HEAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cagra {

/// Fixed-capacity max-heap keeping the k smallest (distance, id) pairs seen.
/// This is the "bounded priority queue" building block used by brute-force
/// ground truth, HNSW ef-search result sets, and NN-descent neighbor lists.
class BoundedHeap {
 public:
  /// Creates a heap that retains at most `capacity` smallest entries.
  explicit BoundedHeap(size_t capacity) : capacity_(capacity) {
    entries_.reserve(capacity);
  }

  /// Offers a candidate; kept only if the heap has room or the candidate
  /// beats the current worst under the (distance, id) order. Returns
  /// true if the entry was inserted.
  ///
  /// Ordering ties by id makes retention exactly "sort every candidate
  /// by (distance, id), keep the first `capacity`" — independent of
  /// insertion order even with duplicate distances. The sharded merge
  /// relies on this to stay byte-identical whichever shard finishes
  /// first (tests/property_test.cc pins it against std::sort).
  bool Push(float distance, uint32_t id) {
    if (entries_.size() < capacity_) {
      entries_.push_back({distance, id});
      std::push_heap(entries_.begin(), entries_.end(), Less);
      return true;
    }
    if (capacity_ == 0) return false;
    const Entry& worst = entries_.front();
    if (distance > worst.distance ||
        (distance == worst.distance && id >= worst.id)) {
      return false;
    }
    std::pop_heap(entries_.begin(), entries_.end(), Less);
    entries_.back() = {distance, id};
    std::push_heap(entries_.begin(), entries_.end(), Less);
    return true;
  }

  /// Largest retained distance, or +inf when not yet full (any candidate
  /// would be accepted). A zero-capacity heap retains nothing, so it
  /// reports -inf (no candidate can qualify) instead of reading
  /// entries_.front() on an empty vector.
  float WorstDistance() const {
    if (capacity_ == 0) return -kInf;
    if (entries_.size() < capacity_) return kInf;
    return entries_.front().distance;
  }

  size_t Size() const { return entries_.size(); }
  bool Full() const { return entries_.size() >= capacity_; }

  struct Entry {
    float distance;
    uint32_t id;
  };

  /// Destructively extracts entries sorted ascending by distance
  /// (ties broken by id for determinism).
  std::vector<Entry> ExtractSorted() {
    std::vector<Entry> out = std::move(entries_);
    entries_.clear();
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      if (a.distance != b.distance) return a.distance < b.distance;
      return a.id < b.id;
    });
    return out;
  }

 private:
  static constexpr float kInf = 3.402823466e+38f;

  static bool Less(const Entry& a, const Entry& b) {
    // Max-heap on (distance, id): the root is the lexicographically
    // largest retained entry, the one Push evicts first.
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  }

  size_t capacity_;
  std::vector<Entry> entries_;
};

}  // namespace cagra

#endif  // CAGRA_UTIL_BOUNDED_HEAP_H_
