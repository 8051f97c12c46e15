#include "graph/fixed_degree_graph.h"

namespace cagra {

AdjacencyGraph ToAdjacency(const FixedDegreeGraph& g) {
  AdjacencyGraph adj(g.num_nodes());
  for (size_t i = 0; i < g.num_nodes(); i++) {
    const uint32_t* nbrs = g.Neighbors(i);
    for (size_t j = 0; j < g.degree(); j++) {
      if (nbrs[j] != FixedDegreeGraph::kInvalid) {
        adj.AddEdge(static_cast<uint32_t>(i), nbrs[j]);
      }
    }
  }
  return adj;
}

}  // namespace cagra
