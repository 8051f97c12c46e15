#include <algorithm>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/profile.h"
#include "dataset/synthetic.h"
#include "knn/bruteforce.h"
#include "knn/nn_descent.h"
#include "util/rng.h"
#include "util/sort.h"
#include "util/thread_pool.h"

namespace cagra {
namespace {

/// Tiny deterministic dataset: points on a line so neighbors are obvious.
Matrix<float> LineDataset(size_t n) {
  Matrix<float> m(n, 2);
  for (size_t i = 0; i < n; i++) {
    m.MutableRow(i)[0] = static_cast<float>(i);
    m.MutableRow(i)[1] = 0.0f;
  }
  return m;
}

TEST(BruteForceTest, LineNearestNeighbors) {
  Matrix<float> base = LineDataset(10);
  Matrix<float> queries(1, 2);
  queries.MutableRow(0)[0] = 4.2f;
  const NeighborList r = ExactSearch(base, queries, 3, Metric::kL2);
  EXPECT_EQ(r.Row(0)[0], 4u);
  EXPECT_EQ(r.Row(0)[1], 5u);
  EXPECT_EQ(r.Row(0)[2], 3u);
}

TEST(BruteForceTest, DistancesAscending) {
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 300, 10, 11);
  const NeighborList r = ExactSearch(data.base, data.queries, 10, p->metric);
  for (size_t q = 0; q < 10; q++) {
    for (size_t i = 1; i < 10; i++) {
      EXPECT_LE(r.distances[q * 10 + i - 1], r.distances[q * 10 + i]);
    }
  }
}

TEST(BruteForceTest, GroundTruthMatrixMatchesSearch) {
  Matrix<float> base = LineDataset(20);
  Matrix<float> queries(2, 2);
  queries.MutableRow(0)[0] = 0.1f;
  queries.MutableRow(1)[0] = 19.0f;
  const auto gt = ComputeGroundTruth(base, queries, 2, Metric::kL2);
  EXPECT_EQ(gt.Row(0)[0], 0u);
  EXPECT_EQ(gt.Row(1)[0], 19u);
}

TEST(BruteForceTest, KnnGraphExcludesSelf) {
  Matrix<float> base = LineDataset(15);
  const FixedDegreeGraph g = ExactKnnGraph(base, 4, Metric::kL2);
  for (size_t v = 0; v < 15; v++) {
    for (size_t j = 0; j < 4; j++) {
      EXPECT_NE(g.Neighbors(v)[j], static_cast<uint32_t>(v));
    }
  }
}

TEST(BruteForceTest, KnnGraphRowsSortedByDistance) {
  const DatasetProfile* p = FindProfile("SIFT-1M");
  auto data = GenerateDataset(*p, 200, 1, 13);
  const FixedDegreeGraph g = ExactKnnGraph(data.base, 8, p->metric);
  for (size_t v = 0; v < g.num_nodes(); v++) {
    float prev = -1.0f;
    for (size_t j = 0; j < g.degree(); j++) {
      const float d =
          ComputeDistance(p->metric, data.base.Row(v),
                          data.base.Row(g.Neighbors(v)[j]), data.base.dim());
      EXPECT_GE(d, prev) << v << " " << j;
      prev = d;
    }
  }
}

TEST(BruteForceTest, LineKnnGraphIsAdjacent) {
  Matrix<float> base = LineDataset(30);
  const FixedDegreeGraph g = ExactKnnGraph(base, 2, Metric::kL2);
  // Interior points: the two nearest are i-1 and i+1.
  for (size_t v = 1; v + 1 < 30; v++) {
    std::set<uint32_t> nbrs = {g.Neighbors(v)[0], g.Neighbors(v)[1]};
    EXPECT_TRUE(nbrs.count(static_cast<uint32_t>(v - 1))) << v;
    EXPECT_TRUE(nbrs.count(static_cast<uint32_t>(v + 1))) << v;
  }
}

// ---------------------------------------------------------------- NN-descent

TEST(NnDescentTest, GraphShape) {
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 500, 1, 17);
  NnDescentParams params;
  params.k = 16;
  const FixedDegreeGraph g =
      BuildKnnGraphNnDescent(data.base, params, p->metric);
  EXPECT_EQ(g.num_nodes(), 500u);
  EXPECT_EQ(g.degree(), 16u);
}

TEST(NnDescentTest, NoSelfEdgesNoDuplicates) {
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 400, 1, 19);
  NnDescentParams params;
  params.k = 12;
  const FixedDegreeGraph g =
      BuildKnnGraphNnDescent(data.base, params, p->metric);
  for (size_t v = 0; v < g.num_nodes(); v++) {
    std::set<uint32_t> seen;
    for (size_t j = 0; j < g.degree(); j++) {
      const uint32_t u = g.Neighbors(v)[j];
      if (u == FixedDegreeGraph::kInvalid) continue;
      EXPECT_NE(u, static_cast<uint32_t>(v)) << v;
      EXPECT_TRUE(seen.insert(u).second) << v << " dup " << u;
    }
  }
}

TEST(NnDescentTest, RowsSortedByDistance) {
  const DatasetProfile* p = FindProfile("SIFT-1M");
  auto data = GenerateDataset(*p, 300, 1, 23);
  NnDescentParams params;
  params.k = 10;
  const FixedDegreeGraph g =
      BuildKnnGraphNnDescent(data.base, params, p->metric);
  for (size_t v = 0; v < g.num_nodes(); v++) {
    float prev = -1.0f;
    for (size_t j = 0; j < g.degree(); j++) {
      const uint32_t u = g.Neighbors(v)[j];
      if (u == FixedDegreeGraph::kInvalid) continue;
      const float d = ComputeDistance(p->metric, data.base.Row(v),
                                      data.base.Row(u), data.base.dim());
      EXPECT_GE(d, prev);
      prev = d;
    }
  }
}

TEST(NnDescentTest, HighRecallAgainstExactGraph) {
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 600, 1, 29);
  NnDescentParams params;
  params.k = 16;
  NnDescentStats stats;
  const FixedDegreeGraph approx =
      BuildKnnGraphNnDescent(data.base, params, p->metric, &stats);
  const FixedDegreeGraph exact = ExactKnnGraph(data.base, 16, p->metric);

  size_t hits = 0, total = 0;
  for (size_t v = 0; v < 600; v++) {
    std::set<uint32_t> truth(exact.Neighbors(v), exact.Neighbors(v) + 16);
    for (size_t j = 0; j < 16; j++) {
      const uint32_t u = approx.Neighbors(v)[j];
      if (u != FixedDegreeGraph::kInvalid && truth.count(u)) hits++;
      total++;
    }
  }
  const double recall = static_cast<double>(hits) / total;
  EXPECT_GT(recall, 0.90) << "NN-descent graph recall too low";
  EXPECT_GT(stats.iterations, 0u);
  EXPECT_GT(stats.distance_computations, 0u);
}

TEST(NnDescentTest, FarCheaperThanExact) {
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 2000, 1, 31);
  NnDescentParams params;
  params.k = 16;
  NnDescentStats stats;
  BuildKnnGraphNnDescent(data.base, params, p->metric, &stats);
  // Exact graph would need n*(n-1) = ~4M distance computations.
  EXPECT_LT(stats.distance_computations, 2000ull * 1999 / 2);
}

/// 100 SIFT-profile rows, each 4 times, so distances tie exactly all
/// over.
Matrix<float> TiedSiftRows() {
  const auto distinct = GenerateDataset(*FindProfile("SIFT-1M"), 100, 1, 43);
  Matrix<float> tied(4 * distinct.base.rows(), distinct.base.dim());
  for (size_t r = 0; r < tied.rows(); r++) {
    const float* row = distinct.base.Row(r % distinct.base.rows());
    std::copy(row, row + tied.dim(), tied.MutableRow(r));
  }
  return tied;
}

TEST(NnDescentTest, DeterministicInSeed) {
  const DatasetProfile* p = FindProfile("SIFT-1M");
  auto data = GenerateDataset(*p, 300, 1, 37);
  NnDescentParams params;
  params.k = 8;
  params.seed = 42;
  const auto a = BuildKnnGraphNnDescent(data.base, params, p->metric);
  const auto b = BuildKnnGraphNnDescent(data.base, params, p->metric);
  EXPECT_EQ(a.edges(), b.edges());

  // Tied rows. Builds run two at a time, which schedules the local
  // joins differently from the reference build's; the graph must not
  // depend on that.
  const Matrix<float> tied = TiedSiftRows();
  params.k = 16;
  const auto reference = BuildKnnGraphNnDescent(tied, params, p->metric);
  for (int round = 0; round < 4; round++) {
    FixedDegreeGraph builds[2];
    std::thread other([&] {
      builds[1] = BuildKnnGraphNnDescent(tied, params, p->metric);
    });
    builds[0] = BuildKnnGraphNnDescent(tied, params, p->metric);
    other.join();
    for (const FixedDegreeGraph& g : builds) {
      EXPECT_EQ(g.edges(), reference.edges()) << "round " << round;
    }
  }
}

/// SerialNnDescent's graph edges and statistics, and whether the update
/// exit held after its last iteration.
struct SerialBuild {
  std::vector<uint32_t> edges;
  NnDescentStats stats;
  bool few_updates = false;
};

/// NN-descent on one thread, inserting as it scores: the random
/// initialization, sampling and local join of BuildKnnGraphNnDescent with
/// none of its parallel structure. The library must match it exactly.
SerialBuild SerialNnDescent(const Matrix<float>& base,
                            const NnDescentParams& params, Metric metric) {
  struct Entry {
    float distance;
    uint32_t id;
    bool is_new;
  };
  const auto before = [](const Entry& a, const Entry& b) {
    return KeyValueLess({a.distance, a.id}, {b.distance, b.id});
  };
  const size_t n = base.rows();
  const size_t k = std::min(params.k, n - 1);
  std::vector<std::vector<Entry>> lists(n);
  // The UPDATE rule: reject anything not ahead of a full list's tail,
  // and an id already present. A stored copy sorts no later than the
  // entry, since the distance function is deterministic.
  const auto insert = [&](size_t v, float distance, uint32_t id) -> size_t {
    std::vector<Entry>& list = lists[v];
    const Entry entry{distance, id, true};
    if (list.size() >= k && !before(entry, list.back())) return 0;
    const auto it = std::lower_bound(list.begin(), list.end(), entry, before);
    if (it != list.end() && it->id == id) return 0;
    for (auto scan = list.begin(); scan != it; ++scan) {
      if (scan->id == id) return 0;
    }
    list.insert(it, entry);
    if (list.size() > k) list.pop_back();
    return 1;
  };
  const auto distance = [&](uint32_t a, uint32_t b) {
    float d;
    ComputeDistanceGather(metric, base.Row(a), base.data().data(), base.dim(),
                          &b, 1, &d);
    return d;
  };

  SerialBuild out;
  for (size_t v = 0; v < n; v++) {
    Pcg32 rng(params.seed + v, 17);
    size_t attempts = 0;
    while (lists[v].size() < k && attempts < 100 * k) {
      std::vector<uint32_t> cand;
      while (cand.size() < 2 * k && attempts < 100 * k) {
        attempts++;
        const uint32_t u = rng.NextBounded(static_cast<uint32_t>(n));
        if (u != v) cand.push_back(u);
      }
      out.stats.distance_computations += cand.size();
      for (const uint32_t u : cand) {
        insert(v, distance(static_cast<uint32_t>(v), u), u);
      }
    }
  }

  // The recall exit's sample, its exact lists read from the exhaustive
  // graph.
  const size_t samples = std::min(n, kNnDescentRecallSample);
  const FixedDegreeGraph exact = ExactKnnGraph(base, k, metric);
  out.stats.distance_computations += samples * n;
  const auto sampled_recall = [&] {
    size_t hits = 0;
    for (size_t s = 0; s < samples; s++) {
      const size_t v = s * n / samples;
      const uint32_t* truth = exact.Neighbors(v);
      for (const Entry& e : lists[v]) {
        hits += std::count(truth, truth + k, e.id);
      }
    }
    return static_cast<double>(hits) / static_cast<double>(samples * k);
  };

  const size_t max_sample = std::max<size_t>(
      1, static_cast<size_t>(params.sample_rate * static_cast<double>(k)));
  size_t iteration = 0;
  for (; iteration < params.max_iterations; iteration++) {
    std::vector<std::vector<uint32_t>> news(n), olds(n), rnew(n), rold(n);
    for (size_t v = 0; v < n; v++) {
      Pcg32 rng(params.seed ^ (iteration * 0x9e37u) ^ v, 23);
      size_t sampled = 0;
      for (Entry& e : lists[v]) {
        if (!e.is_new) {
          olds[v].push_back(e.id);
        } else if (sampled < max_sample &&
                   rng.NextFloat() < params.sample_rate) {
          news[v].push_back(e.id);
          e.is_new = false;
          sampled++;
        }
      }
    }
    for (size_t v = 0; v < n; v++) {
      for (const uint32_t u : news[v]) rnew[u].push_back(v);
      for (const uint32_t u : olds[v]) rold[u].push_back(v);
    }
    size_t updates = 0;
    for (size_t v = 0; v < n; v++) {
      Pcg32 rng(params.seed ^ (iteration * 0x85ebu) ^ (v << 1), 29);
      std::vector<uint32_t> all_new = news[v], all_old = olds[v];
      const auto sample_into = [&](const std::vector<uint32_t>& src,
                                   std::vector<uint32_t>* dst) {
        for (const uint32_t u : src) {
          if (dst->size() >= 2 * max_sample) {
            (*dst)[rng.NextBounded(static_cast<uint32_t>(dst->size()))] = u;
          } else {
            dst->push_back(u);
          }
        }
      };
      sample_into(rnew[v], &all_new);
      sample_into(rold[v], &all_old);
      for (size_t i = 0; i < all_new.size(); i++) {
        const uint32_t a = all_new[i];
        std::vector<uint32_t> partners(all_new.begin() + i + 1, all_new.end());
        partners.insert(partners.end(), all_old.begin(), all_old.end());
        for (const uint32_t b : partners) {
          if (b == a) continue;
          const float d = distance(a, b);
          out.stats.distance_computations++;
          updates += insert(a, d, b);
          updates += insert(b, d, a);
        }
      }
    }
    out.stats.updates += updates;
    out.stats.sampled_recall = sampled_recall();
    out.few_updates = static_cast<double>(updates) <=
                      params.termination_delta * static_cast<double>(n) *
                          static_cast<double>(k);
    if (out.stats.sampled_recall >= kNnDescentTargetRecall ||
        out.few_updates) {
      iteration++;
      break;
    }
  }
  out.stats.iterations = iteration;

  out.edges.assign(n * params.k, FixedDegreeGraph::kInvalid);
  for (size_t v = 0; v < n; v++) {
    for (size_t i = 0; i < lists[v].size(); i++) {
      out.edges[v * params.k + i] = lists[v][i].id;
    }
  }
  return out;
}

void ExpectMatchesSerial(const FixedDegreeGraph& g, const NnDescentStats& s,
                         const SerialBuild& ref, const char* where) {
  EXPECT_EQ(g.edges(), ref.edges) << where;
  EXPECT_EQ(s.iterations, ref.stats.iterations) << where;
  EXPECT_EQ(s.distance_computations, ref.stats.distance_computations)
      << where;
  EXPECT_EQ(s.updates, ref.stats.updates) << where;
  EXPECT_EQ(s.sampled_recall, ref.stats.sampled_recall) << where;
}

/// The parallel build against the one-thread oracle's result `ref`:
/// alone, two builds at once, and two builds nested in pool tasks (the
/// sharded build's shape). Matching `updates` catches offers applied out
/// of order, which the final lists alone may not show.
void CheckAgainstSerial(const Matrix<float>& base,
                        const NnDescentParams& params, Metric metric,
                        const SerialBuild& ref) {
  ASSERT_GT(ref.stats.updates, 0u);

  NnDescentStats alone;
  const FixedDegreeGraph g = BuildKnnGraphNnDescent(base, params, metric,
                                                    &alone);
  ExpectMatchesSerial(g, alone, ref, "alone");

  FixedDegreeGraph builds[2];
  NnDescentStats stats[2];
  std::thread other([&] {
    builds[1] = BuildKnnGraphNnDescent(base, params, metric, &stats[1]);
  });
  builds[0] = BuildKnnGraphNnDescent(base, params, metric, &stats[0]);
  other.join();
  for (int i = 0; i < 2; i++) {
    ExpectMatchesSerial(builds[i], stats[i], ref, "two at once");
  }

  GlobalThreadPool().ParallelFor(0, 2, [&](size_t i) {
    builds[i] = BuildKnnGraphNnDescent(base, params, metric, &stats[i]);
  });
  for (int i = 0; i < 2; i++) {
    ExpectMatchesSerial(builds[i], stats[i], ref, "nested in the pool");
  }
}

TEST(NnDescentTest, MatchesSerialJoinOnDeep) {
  // 400 rows at k = 48 join 16-node blocks, one node per task; 2000
  // rows at k = 32 join 126-node blocks in 7-node tasks.
  const DatasetProfile* p = FindProfile("DEEP-1M");
  const std::pair<size_t, size_t> shapes[] = {{2000, 32}, {400, 48}};
  for (const auto& [rows, k] : shapes) {
    auto data = GenerateDataset(*p, rows, 1, 47);
    NnDescentParams params;
    params.k = k;
    CheckAgainstSerial(data.base, params, p->metric,
                       SerialNnDescent(data.base, params, p->metric));
  }
}

TEST(NnDescentTest, MatchesSerialJoinOnTiedRows) {
  NnDescentParams params;
  params.k = 16;
  params.seed = 42;
  const Matrix<float> tied = TiedSiftRows();
  const Metric metric = FindProfile("SIFT-1M")->metric;
  CheckAgainstSerial(tied, params, metric,
                     SerialNnDescent(tied, params, metric));
}

/// The build's three exits.
enum class Exit { kRecall, kUpdates, kMaxIterations };

/// Asserts that `exit` alone held when the oracle's run ended, so that a
/// case stopping on it checks that exit and no other, and that the run
/// took more than one iteration.
void AssertEndedOnlyBy(Exit exit, const SerialBuild& ref,
                       const NnDescentParams& params) {
  ASSERT_EQ(ref.stats.sampled_recall >= kNnDescentTargetRecall,
            exit == Exit::kRecall);
  ASSERT_EQ(ref.few_updates, exit == Exit::kUpdates);
  ASSERT_EQ(ref.stats.iterations == params.max_iterations,
            exit == Exit::kMaxIterations);
  ASSERT_GT(ref.stats.iterations, 1u);
}

TEST(NnDescentTest, MatchesSerialJoinStoppingOnThreshold) {
  // At k = 6 the lists plateau below the recall target, so the update
  // count ends the run, and a miscounted update could move the last
  // iteration.
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 1500, 1, 53);
  NnDescentParams params;
  params.k = 6;
  params.termination_delta = 0.02;
  params.max_iterations = 50;
  const SerialBuild ref = SerialNnDescent(data.base, params, p->metric);
  AssertEndedOnlyBy(Exit::kUpdates, ref, params);
  CheckAgainstSerial(data.base, params, p->metric, ref);
}

TEST(NnDescentTest, MatchesSerialJoinStoppingOnRecall) {
  // The sampled lists reach the target after iteration 3, while the
  // update count is still far above its threshold. The whole graph must
  // be as good, so that a lucky sample cannot hide a worse one.
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 2000, 1, 31);
  NnDescentParams params;
  params.k = 16;
  const SerialBuild ref = SerialNnDescent(data.base, params, p->metric);
  AssertEndedOnlyBy(Exit::kRecall, ref, params);
  EXPECT_EQ(ref.stats.iterations, 3u);
  const FixedDegreeGraph exact = ExactKnnGraph(data.base, 16, p->metric);
  size_t hits = 0;
  for (size_t v = 0; v < exact.num_nodes(); v++) {
    const uint32_t* truth = exact.Neighbors(v);
    for (size_t j = 0; j < 16; j++) {
      hits += std::count(truth, truth + 16, ref.edges[v * 16 + j]);
    }
  }
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(2000 * 16), 0.9);
  CheckAgainstSerial(data.base, params, p->metric, ref);
}

TEST(NnDescentTest, MatchesSerialJoinStoppingOnMaxIterations) {
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 2000, 1, 31);
  NnDescentParams params;
  params.k = 16;
  params.max_iterations = 2;
  const SerialBuild ref = SerialNnDescent(data.base, params, p->metric);
  AssertEndedOnlyBy(Exit::kMaxIterations, ref, params);
  CheckAgainstSerial(data.base, params, p->metric, ref);
}

TEST(NnDescentTest, TinyDatasetDegreeClamped) {
  Matrix<float> base = LineDataset(5);
  NnDescentParams params;
  params.k = 10;  // more than n-1
  const FixedDegreeGraph g =
      BuildKnnGraphNnDescent(base, params, Metric::kL2);
  EXPECT_EQ(g.num_nodes(), 5u);
  // Each node can have at most 4 valid neighbors; the rest is padding.
  for (size_t v = 0; v < 5; v++) {
    size_t valid = 0;
    for (size_t j = 0; j < g.degree(); j++) {
      if (g.Neighbors(v)[j] != FixedDegreeGraph::kInvalid) valid++;
    }
    EXPECT_LE(valid, 4u);
    EXPECT_GE(valid, 1u);
  }
}

}  // namespace
}  // namespace cagra
