// The benchmark's own test: the traced run's layer decomposition does the
// same work as the composed calls the untraced run times, and the counts
// a later change may rest a claim on repeat exactly for a seed.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "dataset/profile.h"
#include "dataset/synthetic.h"
#include "workloads.h"

namespace perfbench {
namespace {

Shape SmallShape() {
  Shape s;
  s.batch_rows = 3000;
  s.batch_queries = 300;
  s.pq_rows = 3000;
  s.pq_queries = 200;
  s.pq_replay = 40;
  s.churn_rows = 3000;
  s.churn_batch = 100;
  s.churn_queries = 100;
  s.setup_reps = 1;
  return s;
}

RunOptions SmallRun(uint64_t seed) {
  RunOptions o;
  o.seed = seed;
  o.seconds = 0.5;
  o.shape = SmallShape();
  return o;
}

std::map<std::string, double> Layers(const Report& r) {
  return {r.per_layer.begin(), r.per_layer.end()};
}

TEST(PerfbenchTest, StagedBuildEqualsBuild) {
  const auto data = cagra::GenerateDataset(*cagra::FindProfile("DEEP-1M"),
                                           3000, 1, 5);
  const cagra::BuildParams params = IndexParams(5);
  cagra::BuildStats stats;
  auto built = cagra::CagraIndex::Build(data.base, params, &stats);
  ASSERT_TRUE(built.ok());
  Tracer tracer(true);
  cagra::NnDescentStats knn;
  auto staged = BuildInStages(data.base, params, &tracer, -1, &knn);
  ASSERT_TRUE(staged.ok());
  EXPECT_EQ(staged->snapshot()->GraphRef().edges(),
            built->snapshot()->GraphRef().edges());
  EXPECT_EQ(knn.iterations, stats.knn.iterations);
  EXPECT_EQ(knn.distance_computations, stats.knn.distance_computations);
  EXPECT_EQ(tracer.DurationsUs("knn.nn_descent").size(), 1u);
  EXPECT_EQ(tracer.DurationsUs("optimize.merge").size(), 1u);
}

TEST(PerfbenchTest, ShardReplayEqualsShardedSearch) {
  const auto data = cagra::GenerateDataset(*cagra::FindProfile("DEEP-1M"),
                                           3000, 30, 9);
  auto index = cagra::ShardedCagraIndex::Build(data.base, IndexParams(9), 2);
  ASSERT_TRUE(index.ok());
  index->EnablePq();
  cagra::SearchParams params;
  params.k = 10;
  params.precision = cagra::Precision::kPq;
  params.rerank = 32;
  const cagra::SearchParams pinned = PinnedRequestParams(params);
  Tracer tracer(true);
  for (size_t q = 0; q < data.queries.rows(); q++) {
    const auto one = cagra::SliceQueries(data.queries, q, 1);
    auto replay = ReplayShardedRequest(*index, one, pinned, &tracer, -1,
                                       static_cast<int64_t>(q));
    auto composed = index->Search(one, pinned);
    ASSERT_TRUE(replay.ok());
    ASSERT_TRUE(composed.ok());
    EXPECT_EQ(replay->ids, composed->neighbors.ids) << "query " << q;
    EXPECT_EQ(replay->distances, composed->neighbors.distances) << "query " << q;
  }
  EXPECT_EQ(tracer.DurationsUs("sharded.shard_search").size(),
            2 * data.queries.rows());
}

void ExpectCountsRepeat(Report (*run)(const RunOptions&, Tracer*)) {
  Tracer t1(true);
  Tracer t2(true);
  const Report a = run(SmallRun(3), &t1);
  const Report b = run(SmallRun(3), &t2);
  ASSERT_TRUE(a.correct()) << a.failures.front();
  ASSERT_TRUE(b.correct()) << b.failures.front();
  const auto la = Layers(a);
  const auto lb = Layers(b);
  for (const char* name :
       {"knn.nn_descent_iters", "knn.nn_descent_dist_evals",
        "search.dist_evals_per_query", "search.iters_per_query",
        "search.hash_probes_per_query", "search.sort_exchanges_per_query"}) {
    ASSERT_TRUE(la.count(name)) << name;
    EXPECT_GT(la.at(name), 0) << name;
    EXPECT_EQ(la.at(name), lb.at(name)) << name;
  }
}

TEST(PerfbenchTest, BatchDeepCountsRepeat) { ExpectCountsRepeat(RunBatchDeep); }

TEST(PerfbenchTest, OnlinePqCountsRepeat) { ExpectCountsRepeat(RunOnlinePq); }

TEST(PerfbenchTest, ChurnRunsCleanAndReportsEveryLayer) {
  // churn's search counts depend on when background compaction publishes,
  // so only its build counts repeat; the run itself must pass its checks.
  Tracer tracer(true);
  const Report r = RunChurn(SmallRun(4), &tracer);
  ASSERT_TRUE(r.correct()) << r.failures.front();
  const auto layers = Layers(r);
  EXPECT_GT(layers.at("index.add_us_per_row"), 0);
  EXPECT_GT(layers.at("knn.nn_descent_iters"), 0);
  EXPECT_EQ(r.end_to_end.size(), 5u);
}

}  // namespace
}  // namespace perfbench
