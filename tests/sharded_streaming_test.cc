// Scheduling-determinism suite for sharded search: every shard searches
// the whole batch as its own task and the caller merges the finished
// shards once. Whoever runs the shards — pool helpers at width 0, the
// caller at an explicit width — the result must be EXPECT_EQ-identical
// (ids *and* distances) to the serial per-shard reference
// (sharded_reference.h) for every storage precision, with and without
// uniform_seed, and across repeated runs. This suite is part of the
// TSan CI job, where the repeated pool-scheduled runs double as a race
// detector workload.
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/sharded.h"
#include "dataset/profile.h"
#include "dataset/synthetic.h"
#include "sharded_reference.h"

namespace cagra {
namespace {

class StreamingDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const DatasetProfile* p = FindProfile("DEEP-1M");
    data_ = new SyntheticData(GenerateDataset(*p, 900, 20, 4242));
    BuildParams bp;
    bp.graph_degree = 8;
    auto built = ShardedCagraIndex::Build(data_->base, bp, 3);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    index_ = new ShardedCagraIndex(std::move(built.value()));
    // A second sharded index carrying the OPQ-rotated PQ copy (one PQ
    // copy per index; copied before EnablePq so only the codebooks
    // differ), so the determinism matrix covers the rotated ADC path.
    opq_index_ = new ShardedCagraIndex(*index_);
    PqTrainParams opq_params;
    opq_params.rotate = true;
    opq_index_->EnablePq(opq_params);
    // 300-row shards: enough for the per-subspace PQ codebooks.
    index_->EnableInt8Quantization();
    index_->EnablePq();
  }
  static void TearDownTestSuite() {
    delete data_;
    delete index_;
    delete opq_index_;
    data_ = nullptr;
    index_ = nullptr;
    opq_index_ = nullptr;
  }

  static SearchParams BaseParams() {
    SearchParams sp;
    sp.k = 5;
    sp.itopk = 32;
    return sp;
  }

  static SyntheticData* data_;
  static ShardedCagraIndex* index_;
  static ShardedCagraIndex* opq_index_;
};

SyntheticData* StreamingDeterminismTest::data_ = nullptr;
ShardedCagraIndex* StreamingDeterminismTest::index_ = nullptr;
ShardedCagraIndex* StreamingDeterminismTest::opq_index_ = nullptr;

/// Sharded search must reproduce the serial per-shard reference
/// bit-for-bit across the (num_threads, repetition) matrix, for each
/// (precision, uniform_seed) input. Under uniform_seed every row
/// samples from the seed verbatim, as the serving scheduler asks.
class StreamingMatrixTest
    : public StreamingDeterminismTest,
      public ::testing::WithParamInterface<std::tuple<Precision, bool>> {};

TEST_P(StreamingMatrixTest, IdenticalToSerialBarrierReference) {
  SearchParams ref_params = BaseParams();
  ref_params.precision = std::get<0>(GetParam());
  ref_params.uniform_seed = std::get<1>(GetParam());
  auto ref = ShardedReferenceSearch(*index_, data_->queries, ref_params);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  for (size_t num_threads : {size_t{0}, size_t{1}, size_t{3}}) {
    // Scheduling only varies on the shared pool (num_threads == 0);
    // repeat that configuration 20 times to shake out races and
    // arrival-order dependence. The caller-run schedules get a sanity
    // repetition each.
    const int reps = num_threads == 0 ? 20 : 2;
    for (int rep = 0; rep < reps; rep++) {
      SearchParams sp = ref_params;
      sp.num_threads = num_threads;
      auto got = index_->Search(data_->queries, sp);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->neighbors.ids, ref->ids)
          << "threads=" << num_threads << " rep=" << rep;
      EXPECT_EQ(got->neighbors.distances, ref->distances)
          << "threads=" << num_threads << " rep=" << rep;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Precisions, StreamingMatrixTest,
    ::testing::Combine(::testing::Values(Precision::kFp32, Precision::kInt8,
                                         Precision::kPq),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<Precision, bool>>& info) {
      std::string name;
      switch (std::get<0>(info.param)) {
        case Precision::kFp32: name = "fp32"; break;
        case Precision::kInt8: name = "int8"; break;
        case Precision::kPq: name = "pq"; break;
        default: name = "other"; break;
      }
      return name + (std::get<1>(info.param) ? "_uniform_seed" : "");
    });

// Interleaved Add/Remove/Search schedules must be scheduling-invariant
// too: the same fixed mutation schedule replayed against fresh copies
// of one pristine index yields EXPECT_EQ-identical results at every
// search, whatever thread count the searches use. Inserts
// are seeded per external id and removals/compaction are deterministic,
// so the only thing that varies across configs is scheduling — which
// must never show through.
TEST_F(StreamingDeterminismTest,
       InterleavedMutationScheduleIsThreadCountInvariant) {
  SyntheticData churn =
      GenerateDataset(*FindProfile("DEEP-1M"), 340, 10, 911);
  const Matrix<float> base = SliceQueries(churn.base, 0, 300);
  BuildParams bp;
  bp.graph_degree = 8;
  auto built = ShardedCagraIndex::Build(base, bp, 3);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ShardedCagraIndex pristine = std::move(built.value());

  // Serial reference first; the pool-scheduled width (0) appears twice
  // to shake out arrival-order dependence.
  const std::vector<size_t> thread_counts = {1, 3, 0, 0};
  std::vector<uint32_t> ref_ids;
  std::vector<float> ref_dists;

  for (size_t cfg_i = 0; cfg_i < thread_counts.size(); cfg_i++) {
    const size_t threads = thread_counts[cfg_i];
    ShardedCagraIndex index = pristine;  // shares snapshots, mutates apart
    CompactionOptions opt;
    opt.trigger_fraction = 2.0;  // schedule stays the only mutator
    index.SetCompactionOptions(opt);

    std::vector<uint32_t> got_ids;
    std::vector<float> got_dists;
    auto run_search = [&] {
      SearchParams sp = BaseParams();
      sp.num_threads = threads;
      auto r = index.Search(churn.queries, sp);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      got_ids.insert(got_ids.end(), r->neighbors.ids.begin(),
                     r->neighbors.ids.end());
      got_dists.insert(got_dists.end(), r->neighbors.distances.begin(),
                       r->neighbors.distances.end());
    };

    std::vector<uint32_t> live(300);
    for (uint32_t i = 0; i < 300; i++) live[i] = i;
    size_t next_pool = 300;
    for (int step = 0; step < 5; step++) {
      ASSERT_TRUE(index.Add(SliceQueries(churn.base, next_pool, 8)).ok());
      for (uint32_t j = 0; j < 8; j++) {
        live.push_back(static_cast<uint32_t>(next_pool + j));
      }
      next_pool += 8;
      ASSERT_NO_FATAL_FAILURE(run_search());
      std::vector<uint32_t> dead;
      for (int j = 0; j < 5; j++) {
        const size_t pick = (step * 37 + j * 11) % live.size();
        dead.push_back(live[pick]);
        live.erase(live.begin() + pick);
      }
      ASSERT_TRUE(index.Remove(dead).ok());
      ASSERT_NO_FATAL_FAILURE(run_search());
    }
    ASSERT_TRUE(index.Compact().ok());
    ASSERT_NO_FATAL_FAILURE(run_search());

    if (cfg_i == 0) {
      ref_ids = std::move(got_ids);
      ref_dists = std::move(got_dists);
    } else {
      EXPECT_EQ(got_ids, ref_ids) << "threads=" << threads;
      EXPECT_EQ(got_dists, ref_dists) << "threads=" << threads;
    }
  }
}

TEST_F(StreamingDeterminismTest, OpqStreamingIdenticalToSerialBarrier) {
  // The OPQ determinism matrix: the rotated-codebook ADC path must be
  // as scheduling-invariant as the plain one — EXPECT_EQ to the serial
  // per-shard reference across threads x repeats.
  SearchParams ref_params = BaseParams();
  ref_params.precision = Precision::kPq;
  auto ref = ShardedReferenceSearch(*opq_index_, data_->queries, ref_params);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  for (size_t num_threads : {size_t{0}, size_t{1}, size_t{3}}) {
    const int reps = num_threads == 0 ? 10 : 2;
    for (int rep = 0; rep < reps; rep++) {
      SearchParams sp = ref_params;
      sp.num_threads = num_threads;
      auto got = opq_index_->Search(data_->queries, sp);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->neighbors.ids, ref->ids)
          << "threads=" << num_threads << " rep=" << rep;
      EXPECT_EQ(got->neighbors.distances, ref->distances)
          << "threads=" << num_threads << " rep=" << rep;
    }
  }
}

TEST_F(StreamingDeterminismTest, EmptyBatchReturnsEmptyResult) {
  // Regression: an empty batch used to reach the multi-CTA width
  // resolution with batch == 0 and divide by zero. It must return an
  // ok, empty result instead.
  Matrix<float> empty(0, data_->queries.dim());
  SearchParams sp = BaseParams();
  auto streamed = index_->Search(empty, sp);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(streamed->neighbors.k, sp.k);
  EXPECT_TRUE(streamed->neighbors.ids.empty());
  EXPECT_TRUE(streamed->neighbors.distances.empty());
  EXPECT_TRUE(streamed->complete);
}

}  // namespace
}  // namespace cagra
