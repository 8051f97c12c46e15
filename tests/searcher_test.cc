// The unified Searcher front door: Precision carried in SearchParams,
// one shared ValidateSearchParams on every path (identical bad input ->
// identical error), the uniform_seed result-identity contract the
// serving scheduler builds on, and host_threads reporting the width a
// batch can actually occupy.
#include <algorithm>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "core/searcher.h"
#include "core/sharded.h"
#include "dataset/profile.h"
#include "dataset/synthetic.h"
#include "util/thread_pool.h"

namespace cagra {
namespace {

class SearcherTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const DatasetProfile* p = FindProfile("DEEP-1M");
    data_ = new SyntheticData(GenerateDataset(*p, 3000, 24, 4242));
    BuildParams bp;
    bp.graph_degree = 16;
    auto index = CagraIndex::Build(data_->base, bp);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = new CagraIndex(std::move(index.value()));
    auto sharded = ShardedCagraIndex::Build(data_->base, bp, 2);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    sharded_ = new ShardedCagraIndex(std::move(sharded.value()));
  }
  static void TearDownTestSuite() {
    delete data_;
    delete index_;
    delete sharded_;
  }
  static SyntheticData* data_;
  static CagraIndex* index_;
  static ShardedCagraIndex* sharded_;
};

SyntheticData* SearcherTest::data_ = nullptr;
CagraIndex* SearcherTest::index_ = nullptr;
ShardedCagraIndex* SearcherTest::sharded_ = nullptr;

void ExpectSameNeighbors(const SearchResult& a, const SearchResult& b) {
  ASSERT_EQ(a.neighbors.ids.size(), b.neighbors.ids.size());
  EXPECT_EQ(a.neighbors.ids, b.neighbors.ids);
  EXPECT_EQ(a.neighbors.distances, b.neighbors.distances);
}

// --- Validation unification -----------------------------------------------

TEST_F(SearcherTest, IdenticalErrorForZeroKOnBothPaths) {
  SearchParams sp;
  sp.k = 0;
  auto single = Search(*index_, data_->queries, sp);
  auto sharded = sharded_->Search(data_->queries, sp);
  ASSERT_FALSE(single.ok());
  ASSERT_FALSE(sharded.ok());
  EXPECT_EQ(single.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(single.status().code(), sharded.status().code());
  EXPECT_EQ(single.status().message(), sharded.status().message());
}

TEST_F(SearcherTest, IdenticalErrorForItopkBelowKOnBothPaths) {
  SearchParams sp;
  sp.k = 20;
  sp.itopk = 10;
  auto single = Search(*index_, data_->queries, sp);
  auto sharded = sharded_->Search(data_->queries, sp);
  ASSERT_FALSE(single.ok());
  ASSERT_FALSE(sharded.ok());
  EXPECT_EQ(single.status().code(), sharded.status().code());
  EXPECT_EQ(single.status().message(), sharded.status().message());
  // And both match the shared validator verbatim.
  EXPECT_EQ(single.status().message(), ValidateSearchParams(sp).message());
}

TEST_F(SearcherTest, ValidateSearchParamsAcceptsAutoItopk) {
  SearchParams sp;
  sp.k = 100;
  sp.itopk = 0;  // auto widens past k; must not be rejected
  EXPECT_TRUE(ValidateSearchParams(sp).ok());
}

// --- Searcher interface ----------------------------------------------------

TEST_F(SearcherTest, IndexSearcherMatchesFreeFunction) {
  SearchParams sp;
  sp.k = 10;
  sp.itopk = 64;
  IndexSearcher adapter(*index_);
  const Searcher& searcher = adapter;
  EXPECT_EQ(searcher.dim(), index_->dim());
  auto via_interface = searcher.Search(data_->queries, sp);
  auto direct = Search(*index_, data_->queries, sp);
  ASSERT_TRUE(via_interface.ok());
  ASSERT_TRUE(direct.ok());
  ExpectSameNeighbors(*via_interface, *direct);
}

TEST_F(SearcherTest, ShardedIndexIsASearcher) {
  SearchParams sp;
  sp.k = 10;
  sp.itopk = 64;
  const Searcher& searcher = *sharded_;
  EXPECT_EQ(searcher.dim(), data_->base.dim());
  auto via_interface = searcher.Search(data_->queries, sp);
  auto direct = sharded_->Search(data_->queries, sp);
  ASSERT_TRUE(via_interface.ok());
  ASSERT_TRUE(direct.ok());
  ExpectSameNeighbors(*via_interface, *direct);
}

// --- uniform_seed identity contract ---------------------------------------

TEST_F(SearcherTest, UniformSeedMatchesBatchOfOne) {
  // The serving scheduler's contract: with the shape pinned at batch 1
  // and uniform_seed on, every row of a coalesced batch returns exactly
  // what a lone single-query Search would.
  SearchParams sp;
  sp.k = 10;
  sp.itopk = 64;
  SearchParams pinned = ResolveBatchShape(sp, DeviceSpec{}, 1);
  pinned.uniform_seed = true;
  auto batched = Search(*index_, data_->queries, pinned);
  ASSERT_TRUE(batched.ok());
  for (size_t q = 0; q < data_->queries.rows(); q++) {
    Matrix<float> one = SliceQueries(data_->queries, q, 1);
    auto lone = Search(*index_, one, sp);
    ASSERT_TRUE(lone.ok());
    for (size_t i = 0; i < sp.k; i++) {
      EXPECT_EQ(batched->neighbors.ids[q * sp.k + i], lone->neighbors.ids[i])
          << "query " << q << " rank " << i;
      EXPECT_EQ(batched->neighbors.distances[q * sp.k + i],
                lone->neighbors.distances[i]);
    }
  }
}

// --- host_threads reports the actual width --------------------------------

TEST_F(SearcherTest, HostThreadsClampedToBatch) {
  SearchParams sp;
  sp.k = 10;
  sp.itopk = 64;
  // A 1-query batch runs on exactly one thread no matter how wide the
  // global pool is.
  Matrix<float> one = SliceQueries(data_->queries, 0, 1);
  auto single = Search(*index_, one, sp);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->host_threads, 1u);

  // A full batch occupies min(batch, pool + caller).
  auto batched = Search(*index_, data_->queries, sp);
  ASSERT_TRUE(batched.ok());
  const size_t width = GlobalThreadPool().num_threads() + 1;
  EXPECT_EQ(batched->host_threads,
            std::min(data_->queries.rows(), width));
}

TEST_F(SearcherTest, HostThreadsSerialIsOne) {
  SearchParams sp;
  sp.k = 10;
  sp.itopk = 64;
  sp.num_threads = 1;
  auto r = Search(*index_, data_->queries, sp);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->host_threads, 1u);
}

TEST_F(SearcherTest, HostThreadsCappedByGlobalPool) {
  // num_threads caps the global pool, calling thread included: a width
  // above the pool's slots clamps to them.
  SearchParams sp;
  sp.k = 10;
  sp.itopk = 64;
  const size_t batch = data_->queries.rows();
  sp.num_threads = 2;
  auto two = Search(*index_, data_->queries, sp);
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(two->host_threads, std::min<size_t>(batch, 2));
  sp.num_threads = 64;
  auto wide = Search(*index_, data_->queries, sp);
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide->host_threads,
            std::min(batch, GlobalThreadPool().num_slots()));
}

/// Live threads of this process, from /proc/self/status.
size_t LiveThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;
}

TEST_F(SearcherTest, ExplicitWidthSpawnsNoThreads) {
  // An explicit width borrows global-pool workers; it never starts
  // threads of its own that outlive the call.
  GlobalThreadPool();  // started before the baseline count
  const size_t before = LiveThreads();
  ASSERT_GT(before, 0u) << "no Threads: line in /proc/self/status";

  std::mutex mu;
  std::condition_variable cv;
  bool searched = false;
  bool counted = false;
  bool ok = false;
  std::thread caller([&] {
    SearchParams sp;
    sp.k = 10;
    sp.itopk = 64;
    sp.num_threads = 3;
    const bool result_ok = Search(*index_, data_->queries, sp).ok();
    std::unique_lock<std::mutex> lock(mu);
    ok = result_ok;
    searched = true;
    cv.notify_all();
    while (!counted) cv.wait(lock);
  });
  size_t during = 0;
  {
    std::unique_lock<std::mutex> lock(mu);
    while (!searched) cv.wait(lock);
    during = LiveThreads();
    counted = true;
    cv.notify_all();
  }
  caller.join();
  EXPECT_TRUE(ok);
  EXPECT_EQ(during, before + 1) << "only the calling thread may be added";
}

}  // namespace
}  // namespace cagra
