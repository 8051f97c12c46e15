#ifndef CAGRA_UTIL_VISITED_SET_H_
#define CAGRA_UTIL_VISITED_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cagra {

/// Open-addressing hash set over node indices, modelling the visited-node
/// list of the CAGRA search (§IV-B3, following SONG). Linear probing with
/// a multiplicative hash; capacity is a power of two.
///
/// Two management policies exist:
///  - *Standard*: table sized for the whole search (device memory on GPU).
///    Never resets; an insertion into a full table is an overflow
///    (callers size tables at >= 2x worst-case entries, §IV-B3).
///  - *Forgettable*: small table (shared memory on GPU) wiped every
///    `reset_interval` iterations; after a wipe the caller re-registers
///    only the current internal top-M entries. May cause recomputed
///    distances but never incorrect results.
class VisitedSet {
 public:
  /// Creates a table with at least `min_capacity` slots (rounded up to a
  /// power of two, minimum 16).
  explicit VisitedSet(size_t min_capacity);

  /// Inserts `key` if absent. Returns true when the key was newly
  /// inserted, false when already present. On a full table an absent key
  /// overflows: it is not stored but still reported as unvisited —
  /// matching the GPU kernel's behaviour of recomputing rather than
  /// failing. Inline: the traversal calls it once per neighbor.
  bool InsertIfAbsent(uint32_t key) {
    if (size_ >= slots_.size()) return InsertIntoFull(key);
    size_t slot = Slot(key);
    while (true) {
      probes_++;
      const uint32_t occupant = slots_[slot];
      if (occupant == key) return false;
      if (occupant == kEmpty) {
        slots_[slot] = key;
        size_++;
        return true;
      }
      slot = (slot + 1) & mask_;
    }
  }

  /// Returns true if `key` is present.
  bool Contains(uint32_t key) const;

  /// Wipes the table (forgettable management). O(capacity).
  void Reset();

  size_t capacity() const { return slots_.size(); }
  size_t size() const { return size_; }
  /// Bytes this table would occupy on device (4 bytes per slot).
  size_t MemoryBytes() const { return slots_.size() * sizeof(uint32_t); }

  /// Slot inspections so far, the count the gpusim cost model prices
  /// (probe latency); table bytes drive the shared-memory footprint.
  size_t probes() const { return probes_; }

 private:
  static constexpr uint32_t kEmpty = 0xffffffffu;

  size_t Slot(uint32_t key) const {
    // The low bits of key x 2654435761 (Knuth's odd multiplicative
    // constant), not the top bits Fibonacci hashing would take. An odd
    // multiplier permutes the residues mod the power-of-two capacity, so
    // distinct keys below the capacity get distinct home slots: a table
    // with more slots than the index has rows probes once per lookup.
    // The probe counters the cost model prices depend on this function.
    return (static_cast<uint64_t>(key) * 2654435761u) & mask_;
  }

  /// InsertIfAbsent on a table with no empty slot left.
  bool InsertIntoFull(uint32_t key);

  std::vector<uint32_t> slots_;
  size_t mask_;
  size_t size_ = 0;
  size_t probes_ = 0;
};

}  // namespace cagra

#endif  // CAGRA_UTIL_VISITED_SET_H_
