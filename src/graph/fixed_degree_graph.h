#ifndef CAGRA_GRAPH_FIXED_DEGREE_GRAPH_H_
#define CAGRA_GRAPH_FIXED_DEGREE_GRAPH_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cagra {

/// Directed proximity graph with the same out-degree for every node — the
/// CAGRA graph shape (§III: fixed out-degree, directional, no hierarchy).
/// Storage is a dense num_nodes x degree row-major index array, which is
/// exactly the device-memory layout the search kernels consume. It has
/// no file format of its own: on disk it is the graph section of a
/// CagraIndex file, written by CagraIndex::Save and read by Load.
class FixedDegreeGraph {
 public:
  /// Sentinel padding value for nodes that genuinely have fewer neighbors
  /// (only possible in tiny graphs where n - 1 < degree).
  static constexpr uint32_t kInvalid = 0xffffffffu;

  FixedDegreeGraph() : num_nodes_(0), degree_(0) {}
  FixedDegreeGraph(size_t num_nodes, size_t degree)
      : num_nodes_(num_nodes),
        degree_(degree),
        edges_(num_nodes * degree, kInvalid) {}

  size_t num_nodes() const { return num_nodes_; }
  size_t degree() const { return degree_; }
  bool empty() const { return num_nodes_ == 0; }

  const uint32_t* Neighbors(size_t node) const {
    assert(node < num_nodes_);
    return edges_.data() + node * degree_;
  }
  uint32_t* MutableNeighbors(size_t node) {
    assert(node < num_nodes_);
    return edges_.data() + node * degree_;
  }

  const std::vector<uint32_t>& edges() const { return edges_; }

  /// Device-memory footprint of the adjacency array.
  size_t MemoryBytes() const { return edges_.size() * sizeof(uint32_t); }

 private:
  size_t num_nodes_;
  size_t degree_;
  std::vector<uint32_t> edges_;
};

/// Variable-out-degree directed graph in CSR-like form; used for baseline
/// graphs (HNSW layers, NSSG) and for the intermediate reverse-edge graph
/// of the CAGRA optimization whose in-degree is not fixed (§III-B2).
class AdjacencyGraph {
 public:
  AdjacencyGraph() = default;
  explicit AdjacencyGraph(size_t num_nodes) : lists_(num_nodes) {}

  size_t num_nodes() const { return lists_.size(); }

  const std::vector<uint32_t>& Neighbors(size_t node) const {
    assert(node < lists_.size());
    return lists_[node];
  }
  std::vector<uint32_t>* MutableNeighbors(size_t node) {
    assert(node < lists_.size());
    return &lists_[node];
  }

  void AddEdge(uint32_t from, uint32_t to) {
    assert(from < lists_.size());
    lists_[from].push_back(to);
  }

  size_t TotalEdges() const {
    size_t total = 0;
    for (const auto& l : lists_) total += l.size();
    return total;
  }

  double AverageDegree() const {
    return lists_.empty() ? 0.0
                          : static_cast<double>(TotalEdges()) /
                                static_cast<double>(lists_.size());
  }

 private:
  std::vector<std::vector<uint32_t>> lists_;
};

/// Converts a fixed-degree graph to adjacency form (drops kInvalid pads).
AdjacencyGraph ToAdjacency(const FixedDegreeGraph& g);

}  // namespace cagra

#endif  // CAGRA_GRAPH_FIXED_DEGREE_GRAPH_H_
