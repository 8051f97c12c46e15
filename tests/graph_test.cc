#include <gtest/gtest.h>

#include "graph/analysis.h"
#include "graph/fixed_degree_graph.h"

namespace cagra {
namespace {

/// Directed ring 0 -> 1 -> ... -> n-1 -> 0 with degree 1.
FixedDegreeGraph Ring(size_t n) {
  FixedDegreeGraph g(n, 1);
  for (size_t i = 0; i < n; i++) {
    g.MutableNeighbors(i)[0] = static_cast<uint32_t>((i + 1) % n);
  }
  return g;
}

/// Complete digraph on n nodes (degree n-1).
FixedDegreeGraph Complete(size_t n) {
  FixedDegreeGraph g(n, n - 1);
  for (size_t i = 0; i < n; i++) {
    size_t pos = 0;
    for (size_t j = 0; j < n; j++) {
      if (i != j) g.MutableNeighbors(i)[pos++] = static_cast<uint32_t>(j);
    }
  }
  return g;
}

TEST(FixedDegreeGraphTest, ConstructionPadsWithInvalid) {
  FixedDegreeGraph g(3, 2);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.degree(), 2u);
  EXPECT_EQ(g.Neighbors(0)[0], FixedDegreeGraph::kInvalid);
  EXPECT_EQ(g.MemoryBytes(), 3u * 2u * sizeof(uint32_t));
}

TEST(AdjacencyGraphTest, EdgeAccountingAndStats) {
  AdjacencyGraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 2);
  EXPECT_EQ(g.TotalEdges(), 3u);
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 0.75);
  const DegreeStats stats = ComputeDegreeStats(g);
  EXPECT_EQ(stats.max, 2u);
  EXPECT_EQ(stats.min, 0u);
  EXPECT_DOUBLE_EQ(stats.mean, 0.75);
}

TEST(AdjacencyGraphTest, ToAdjacencyDropsPadding) {
  FixedDegreeGraph g(3, 2);
  g.MutableNeighbors(0)[0] = 1;  // second slot stays kInvalid
  AdjacencyGraph adj = ToAdjacency(g);
  EXPECT_EQ(adj.Neighbors(0).size(), 1u);
  EXPECT_EQ(adj.Neighbors(1).size(), 0u);
}

// ---------------------------------------------------------------- SCC

TEST(SccTest, RingIsOneComponent) {
  EXPECT_EQ(CountStrongComponents(Ring(50)), 1u);
}

TEST(SccTest, CompleteGraphIsOneComponent) {
  EXPECT_EQ(CountStrongComponents(Complete(8)), 1u);
}

TEST(SccTest, ChainHasNComponents) {
  // 0 -> 1 -> 2 -> 3 with no back edges: every node is its own SCC.
  FixedDegreeGraph g(4, 1);
  for (size_t i = 0; i + 1 < 4; i++) {
    g.MutableNeighbors(i)[0] = static_cast<uint32_t>(i + 1);
  }
  EXPECT_EQ(CountStrongComponents(g), 4u);
}

TEST(SccTest, TwoDisjointRings) {
  FixedDegreeGraph g(6, 1);
  for (size_t i = 0; i < 3; i++) {
    g.MutableNeighbors(i)[0] = static_cast<uint32_t>((i + 1) % 3);
    g.MutableNeighbors(3 + i)[0] = static_cast<uint32_t>(3 + (i + 1) % 3);
  }
  EXPECT_EQ(CountStrongComponents(g), 2u);
  EXPECT_EQ(CountWeakComponents(g), 2u);
}

TEST(SccTest, DirectedEdgeBetweenRingsMergesWeakNotStrong) {
  FixedDegreeGraph g(6, 2);
  for (size_t i = 0; i < 3; i++) {
    g.MutableNeighbors(i)[0] = static_cast<uint32_t>((i + 1) % 3);
    g.MutableNeighbors(3 + i)[0] = static_cast<uint32_t>(3 + (i + 1) % 3);
  }
  g.MutableNeighbors(0)[1] = 3;  // one-way bridge
  EXPECT_EQ(CountStrongComponents(g), 2u);
  EXPECT_EQ(CountWeakComponents(g), 1u);
}

TEST(SccTest, AdjacencyOverloadAgrees) {
  FixedDegreeGraph g = Ring(20);
  EXPECT_EQ(CountStrongComponents(ToAdjacency(g)),
            CountStrongComponents(g));
}

TEST(SccTest, SelfLoopsOnlyGraph) {
  FixedDegreeGraph g(5, 1);
  for (size_t i = 0; i < 5; i++) {
    g.MutableNeighbors(i)[0] = static_cast<uint32_t>(i);
  }
  EXPECT_EQ(CountStrongComponents(g), 5u);
}

TEST(SccTest, LargeRingDoesNotOverflowStack) {
  // Iterative Tarjan must handle a 200k-node path without recursion.
  EXPECT_EQ(CountStrongComponents(Ring(200000)), 1u);
}

// ---------------------------------------------------------------- 2-hop

TEST(TwoHopTest, RingReachesExactlyTwo) {
  // From any ring node: 1 one-hop + 1 two-hop neighbor.
  EXPECT_DOUBLE_EQ(Average2HopCount(Ring(10)), 2.0);
}

TEST(TwoHopTest, CompleteGraphReachesAllOthers) {
  EXPECT_DOUBLE_EQ(Average2HopCount(Complete(6)), 5.0);
}

TEST(TwoHopTest, MaxIsDegreePlusDegreeSquared) {
  // A perfect tree-like expansion: node 0 -> {1,2}, 1 -> {3,4}, 2 -> {5,6}.
  FixedDegreeGraph g(7, 2);
  g.MutableNeighbors(0)[0] = 1;
  g.MutableNeighbors(0)[1] = 2;
  g.MutableNeighbors(1)[0] = 3;
  g.MutableNeighbors(1)[1] = 4;
  g.MutableNeighbors(2)[0] = 5;
  g.MutableNeighbors(2)[1] = 6;
  // From node 0: 2 + 4 = d + d^2 = 6 nodes.
  const double avg_from_0 = Average2HopCount(g, 0);  // all nodes
  EXPECT_GT(avg_from_0, 0.0);
  // Check node 0 specifically via a single-node graph slice: build a graph
  // where every node mirrors node 0's expansion.
  EXPECT_LE(avg_from_0, 6.0);
}

TEST(TwoHopTest, DuplicateNeighborsNotDoubleCounted) {
  FixedDegreeGraph g(3, 2);
  g.MutableNeighbors(0)[0] = 1;
  g.MutableNeighbors(0)[1] = 1;  // duplicate edge
  g.MutableNeighbors(1)[0] = 2;
  g.MutableNeighbors(1)[1] = 2;
  g.MutableNeighbors(2)[0] = 0;
  g.MutableNeighbors(2)[1] = 0;
  // From 0: neighbors {1}, 2-hop {2} -> 2 reachable.
  EXPECT_DOUBLE_EQ(Average2HopCount(g), 2.0);
}

TEST(TwoHopTest, SamplingApproximatesFull) {
  FixedDegreeGraph g = Complete(40);
  const double full = Average2HopCount(g, 0);
  const double sampled = Average2HopCount(g, 10);
  EXPECT_DOUBLE_EQ(full, sampled);  // complete graph: same from any node
}

TEST(TwoHopTest, PaddedEntriesIgnored) {
  FixedDegreeGraph g(4, 3);  // all kInvalid
  EXPECT_DOUBLE_EQ(Average2HopCount(g), 0.0);
}

}  // namespace
}  // namespace cagra
