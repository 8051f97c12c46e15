// Scheduling-determinism suite for the streaming sharded pipeline: the
// chunked, overlapped execution must be EXPECT_EQ-identical (ids *and*
// distances) to the serial per-shard reference (sharded_reference.h)
// for every thread count, chunk size, storage precision, and across
// repeated runs — streaming is purely a throughput structure, never a
// result change. This suite is part of the TSan CI job, where the
// repeated concurrent runs double as a race detector workload.
#include <cstdint>
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

/// Streaming must reproduce the serial per-shard reference bit-for-bit
/// across the full (num_threads, chunk size, repetition) matrix. The
/// chunk == batch column is the barrier schedule.
class StreamingMatrixTest
    : public StreamingDeterminismTest,
      public ::testing::WithParamInterface<Precision> {};

TEST_P(StreamingMatrixTest, IdenticalToSerialBarrierReference) {
  SearchParams ref_params = BaseParams();
  ref_params.precision = GetParam();
  auto ref = ShardedReferenceSearch(*index_, data_->queries, ref_params);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  const size_t batch = data_->queries.rows();
  for (size_t num_threads : {size_t{0}, size_t{1}, size_t{3}}) {
    for (size_t chunk : {size_t{1}, size_t{7}, batch}) {
      // Scheduling only varies on the shared pool (num_threads == 0);
      // repeat that configuration 20 times to shake out races and
      // arrival-order dependence. The serial schedules get a sanity
      // repetition each.
      const int reps = num_threads == 0 ? 20 : 2;
      for (int rep = 0; rep < reps; rep++) {
        SearchParams sp = ref_params;
        sp.num_threads = num_threads;
        sp.shard_chunk_queries = chunk;
        auto got = index_->Search(data_->queries, sp);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got->neighbors.ids, ref->ids)
            << "threads=" << num_threads << " chunk=" << chunk
            << " rep=" << rep;
        EXPECT_EQ(got->neighbors.distances, ref->distances)
            << "threads=" << num_threads << " chunk=" << chunk
            << " rep=" << rep;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Precisions, StreamingMatrixTest,
                         ::testing::Values(Precision::kFp32, Precision::kInt8,
                                           Precision::kPq),
                         [](const ::testing::TestParamInfo<Precision>& info) {
                           switch (info.param) {
                             case Precision::kFp32: return "fp32";
                             case Precision::kInt8: return "int8";
                             case Precision::kPq: return "pq";
                             default: return "other";
                           }
                         });

// Interleaved Add/Remove/Search schedules must be scheduling-invariant
// too: the same fixed mutation schedule replayed against fresh copies
// of one pristine index yields EXPECT_EQ-identical results at every
// search, whatever thread count or chunk size the searches use. Inserts
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

  struct Config {
    size_t threads;
    size_t chunk;
  };
  // Serial reference first; pool-scheduled configs (threads == 0)
  // appear twice to shake out arrival-order dependence.
  const std::vector<Config> configs = {{1, 0},        {3, 7}, {0, 1},
                                       {0, 1},        {0, 4}, {0, 0},
                                       {0, 0}};
  std::vector<uint32_t> ref_ids;
  std::vector<float> ref_dists;

  for (size_t cfg_i = 0; cfg_i < configs.size(); cfg_i++) {
    const Config& cfg = configs[cfg_i];
    ShardedCagraIndex index = pristine;  // shares snapshots, mutates apart
    CompactionOptions opt;
    opt.trigger_fraction = 2.0;  // schedule stays the only mutator
    index.SetCompactionOptions(opt);

    std::vector<uint32_t> got_ids;
    std::vector<float> got_dists;
    auto run_search = [&] {
      SearchParams sp = BaseParams();
      sp.num_threads = cfg.threads;
      sp.shard_chunk_queries = cfg.chunk;
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
      EXPECT_EQ(got_ids, ref_ids)
          << "threads=" << cfg.threads << " chunk=" << cfg.chunk;
      EXPECT_EQ(got_dists, ref_dists)
          << "threads=" << cfg.threads << " chunk=" << cfg.chunk;
    }
  }
}

TEST_F(StreamingDeterminismTest, OpqStreamingIdenticalToSerialBarrier) {
  // The OPQ determinism matrix: the rotated-codebook ADC path must be
  // as scheduling-invariant as the plain one — streaming EXPECT_EQ to
  // the serial per-shard reference across threads x chunk sizes x
  // repeats.
  SearchParams ref_params = BaseParams();
  ref_params.precision = Precision::kPq;
  auto ref = ShardedReferenceSearch(*opq_index_, data_->queries, ref_params);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  const size_t batch = data_->queries.rows();
  for (size_t num_threads : {size_t{0}, size_t{1}, size_t{3}}) {
    for (size_t chunk : {size_t{1}, size_t{7}, batch}) {
      const int reps = num_threads == 0 ? 10 : 2;
      for (int rep = 0; rep < reps; rep++) {
        SearchParams sp = ref_params;
        sp.num_threads = num_threads;
        sp.shard_chunk_queries = chunk;
        auto got = opq_index_->Search(data_->queries, sp);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got->neighbors.ids, ref->ids)
            << "threads=" << num_threads << " chunk=" << chunk
            << " rep=" << rep;
        EXPECT_EQ(got->neighbors.distances, ref->distances)
            << "threads=" << num_threads << " chunk=" << chunk
            << " rep=" << rep;
      }
    }
  }
}

TEST_F(StreamingDeterminismTest, AutoChunkMatchesExplicitFullBatch) {
  // shard_chunk_queries = 0 (auto) must be just another chunk size:
  // identical results to the single-chunk run.
  SearchParams sp = BaseParams();
  sp.shard_chunk_queries = 0;
  auto auto_chunk = index_->Search(data_->queries, sp);
  sp.shard_chunk_queries = data_->queries.rows();
  auto one_chunk = index_->Search(data_->queries, sp);
  ASSERT_TRUE(auto_chunk.ok());
  ASSERT_TRUE(one_chunk.ok());
  EXPECT_EQ(auto_chunk->neighbors.ids, one_chunk->neighbors.ids);
  EXPECT_EQ(auto_chunk->neighbors.distances, one_chunk->neighbors.distances);
}

TEST_F(StreamingDeterminismTest, OversizedChunkClampsToBatch) {
  SearchParams sp = BaseParams();
  sp.shard_chunk_queries = 10 * data_->queries.rows();
  auto got = index_->Search(data_->queries, sp);
  sp.shard_chunk_queries = data_->queries.rows();
  auto want = index_->Search(data_->queries, sp);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got->neighbors.ids, want->neighbors.ids);
}

TEST_F(StreamingDeterminismTest, SingleRowChunksUnderContention) {
  // The "many tiny chunks" stress: 1-row chunks turn every query into
  // its own (chunk, shard) task triple, maximizing queue and latch
  // traffic. Results must still be identical across repeats (this is
  // the hottest configuration the TSan job runs).
  SearchParams sp = BaseParams();
  sp.shard_chunk_queries = 1;
  auto first = index_->Search(data_->queries, sp);
  ASSERT_TRUE(first.ok());
  for (int rep = 0; rep < 10; rep++) {
    auto again = index_->Search(data_->queries, sp);
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(again->neighbors.ids, first->neighbors.ids) << "rep " << rep;
    ASSERT_EQ(again->neighbors.distances, first->neighbors.distances);
  }
}

TEST_F(StreamingDeterminismTest, StreamingModelsOverlapNotFullMergeTail) {
  // A single chunk (the barrier schedule) charges the host merge of the
  // whole batch after the slowest shard; more chunks hide all but the
  // final chunk's merge, while per-launch overhead grows — both must
  // stay positive and finite.
  SearchParams sp = BaseParams();
  sp.shard_chunk_queries = data_->queries.rows();
  auto one_chunk = index_->Search(data_->queries, sp);
  ASSERT_TRUE(one_chunk.ok());

  sp.shard_chunk_queries = 7;
  auto chunked = index_->Search(data_->queries, sp);
  ASSERT_TRUE(chunked.ok());
  // Both runs report modeled_seconds = cost.total (the scan estimate)
  // plus the merge tail, so the tail is recoverable exactly. The single
  // chunk's tail covers the whole batch; the chunked pipeline's must
  // cover only the final chunk — same per-entry overhead, scaled by
  // tail rows instead of batch rows.
  const size_t batch = data_->queries.rows();
  const size_t tail = batch % 7 == 0 ? 7 : batch % 7;
  ASSERT_LT(tail, batch);
  const double full_merge = one_chunk->modeled_seconds - one_chunk->cost.total;
  const double chunked_merge = chunked->modeled_seconds - chunked->cost.total;
  ASSERT_GT(full_merge, 0.0);
  ASSERT_GT(chunked_merge, 0.0);
  EXPECT_LT(chunked_merge, full_merge);
  EXPECT_NEAR(chunked_merge / full_merge,
              static_cast<double>(tail) / static_cast<double>(batch), 1e-9);
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
