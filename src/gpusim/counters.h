#ifndef CAGRA_GPUSIM_COUNTERS_H_
#define CAGRA_GPUSIM_COUNTERS_H_

#include <cmath>
#include <cstddef>

namespace cagra {

/// Hardware-cost counters accumulated while a search executes
/// functionally on the host. Every term the A100 cost model prices is
/// counted here; the search implementations must update these faithfully
/// (they are also unit-tested against analytic expectations).
struct KernelCounters {
  size_t distance_computations = 0;  ///< full query-vector distances
  size_t distance_elements = 0;      ///< summed dims of those distances
  size_t device_vector_bytes = 0;    ///< dataset bytes loaded from device
  size_t device_graph_bytes = 0;     ///< adjacency bytes loaded from device
  size_t hash_probes_shared = 0;     ///< visited-set probes, shared-mem table
  size_t hash_probes_device = 0;     ///< visited-set probes, device-mem table
  size_t hash_table_device_bytes = 0;  ///< device tables zeroed per query
  size_t hash_resets = 0;            ///< forgettable-table wipes (unpriced)
  /// Bitonic compare-exchanges the kernel's sorts and merges would run,
  /// charged by formula from the list lengths (util/sort.h); the host
  /// itself sorts with std::sort.
  size_t sort_exchanges = 0;
  /// Radix-sort scatters for candidate lists over 512 entries, charged
  /// by formula the same way.
  size_t radix_scatters = 0;
  size_t iterations = 0;             ///< summed search iterations
  size_t max_iterations = 0;         ///< longest per-query iteration chain
  size_t kernel_launches = 0;
  size_t queries = 0;

  void Add(const KernelCounters& o) {
    distance_computations += o.distance_computations;
    distance_elements += o.distance_elements;
    device_vector_bytes += o.device_vector_bytes;
    device_graph_bytes += o.device_graph_bytes;
    hash_probes_shared += o.hash_probes_shared;
    hash_probes_device += o.hash_probes_device;
    hash_table_device_bytes += o.hash_table_device_bytes;
    hash_resets += o.hash_resets;
    sort_exchanges += o.sort_exchanges;
    radix_scatters += o.radix_scatters;
    iterations += o.iterations;
    max_iterations = max_iterations > o.max_iterations ? max_iterations
                                                       : o.max_iterations;
    kernel_launches += o.kernel_launches;
    queries += o.queries;
  }

  /// These counts extrapolated by `factor` (e.g. to a larger batch of the
  /// same queries): every additive count scales, rounded to the nearest
  /// integer. max_iterations (the longest per-query chain) and
  /// kernel_launches (one fused launch, whatever the batch) are not
  /// additive over queries and stay as they are.
  KernelCounters Scaled(double factor) const {
    auto scale = [factor](size_t v) {
      return static_cast<size_t>(std::llround(static_cast<double>(v) * factor));
    };
    KernelCounters s = *this;
    s.distance_computations = scale(distance_computations);
    s.distance_elements = scale(distance_elements);
    s.device_vector_bytes = scale(device_vector_bytes);
    s.device_graph_bytes = scale(device_graph_bytes);
    s.hash_probes_shared = scale(hash_probes_shared);
    s.hash_probes_device = scale(hash_probes_device);
    s.hash_table_device_bytes = scale(hash_table_device_bytes);
    s.hash_resets = scale(hash_resets);
    s.sort_exchanges = scale(sort_exchanges);
    s.radix_scatters = scale(radix_scatters);
    s.iterations = scale(iterations);
    s.queries = scale(queries);
    return s;
  }
};

}  // namespace cagra

#endif  // CAGRA_GPUSIM_COUNTERS_H_
