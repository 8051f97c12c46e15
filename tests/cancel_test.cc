// Deadline + cancellation semantics across the search stack: the
// CancelToken/CancelCheck primitives, the two new status codes, the
// partial-result contract of the graph search, and sharded search.
// The invariant under test everywhere: cancellation degrades a search
// to a *well-formed* partial (sorted valid prefix, 0xffffffff/+inf
// padding, no duplicate ids, complete == false) — never a crash, a
// hang, or a malformed row.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/index.h"
#include "core/search.h"
#include "core/search_internal.h"
#include "core/sharded.h"
#include "dataset/profile.h"
#include "dataset/synthetic.h"
#include "util/cancel.h"
#include "util/status.h"

namespace cagra {
namespace {

using std::chrono::milliseconds;

constexpr uint32_t kPad = 0xffffffffu;

/// The partial-result contract, checked row by row: a sorted valid
/// prefix with no duplicate ids, then contiguous (0xffffffff, +inf)
/// padding to the end of the row.
void ExpectWellFormedTopK(const NeighborList& nl, size_t batch, size_t k) {
  ASSERT_EQ(nl.ids.size(), batch * k);
  ASSERT_EQ(nl.distances.size(), batch * k);
  for (size_t q = 0; q < batch; q++) {
    std::set<uint32_t> seen;
    bool in_padding = false;
    for (size_t i = 0; i < k; i++) {
      const uint32_t id = nl.ids[q * k + i];
      const float d = nl.distances[q * k + i];
      if (id == kPad) {
        in_padding = true;
        EXPECT_TRUE(std::isinf(d)) << "query " << q << " slot " << i;
        continue;
      }
      EXPECT_FALSE(in_padding)
          << "query " << q << ": valid id after padding at slot " << i;
      EXPECT_TRUE(seen.insert(id).second)
          << "query " << q << ": duplicate id " << id;
      if (i > 0 && nl.ids[q * k + i - 1] != kPad) {
        EXPECT_LE(nl.distances[q * k + i - 1], d)
            << "query " << q << ": distances not ascending at slot " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CancelToken / CancelCheck primitives.
// ---------------------------------------------------------------------------

TEST(CancelTokenTest, DefaultTokenNeverExpiresUntilCancelled) {
  CancelToken t;
  EXPECT_FALSE(t.has_deadline());
  EXPECT_FALSE(t.Expired());
  EXPECT_FALSE(t.cancelled());
  t.Cancel();
  EXPECT_TRUE(t.Expired());
  EXPECT_TRUE(t.cancelled());
  t.Cancel();  // idempotent
  EXPECT_TRUE(t.Expired());
}

TEST(CancelTokenTest, PastDeadlineExpiresAndLatches) {
  CancelToken t(CancelToken::Clock::now() - milliseconds(1));
  ASSERT_TRUE(t.has_deadline());
  // Before the first Expired() observation the manual flag is clear
  // (this window is what lets status mapping distinguish Cancel() from
  // deadline expiry via has_deadline()).
  EXPECT_FALSE(t.cancelled());
  EXPECT_TRUE(t.Expired());
  // Expiry latched into the flag: later checks are flag-only.
  EXPECT_TRUE(t.cancelled());
  EXPECT_TRUE(t.Expired());
}

TEST(CancelTokenTest, FutureDeadlineNotExpiredYet) {
  CancelToken t = CancelToken::WithTimeout(std::chrono::hours(1));
  EXPECT_TRUE(t.has_deadline());
  EXPECT_FALSE(t.Expired());
  t.Cancel();  // manual cancel beats the deadline
  EXPECT_TRUE(t.Expired());
}

TEST(CancelTokenTest, CancelVisibleAcrossThreads) {
  CancelToken t;
  std::thread canceller([&t] { t.Cancel(); });
  canceller.join();
  EXPECT_TRUE(t.Expired());
}

TEST(CancelCheckTest, NullTokenIsFreeAndNeverExpires) {
  CancelCheck check(nullptr, 4);
  for (int i = 0; i < 100; i++) EXPECT_FALSE(check.Expired());
  CancelCheck now_check(nullptr);
  EXPECT_FALSE(now_check.ExpiredNow());
}

TEST(CancelCheckTest, StrideAmortizesThenSticks) {
  CancelToken t;
  t.Cancel();
  CancelCheck check(&t, /*stride=*/4);
  // The token is only consulted on the stride-th call.
  EXPECT_FALSE(check.Expired());
  EXPECT_FALSE(check.Expired());
  EXPECT_FALSE(check.Expired());
  EXPECT_TRUE(check.Expired());
  // Sticky thereafter, including a fresh un-cancelled... no: same
  // token; the point is no further token reads are needed.
  EXPECT_TRUE(check.Expired());
  EXPECT_TRUE(check.ExpiredNow());
}

TEST(CancelCheckTest, ExpiredNowSkipsTheStride) {
  CancelToken t;
  t.Cancel();
  CancelCheck check(&t, /*stride=*/1000);
  EXPECT_TRUE(check.ExpiredNow());
  EXPECT_TRUE(check.Expired());  // stickiness carried over
}

TEST(CancelCheckTest, ZeroStrideIsClampedToOne) {
  CancelToken t;
  t.Cancel();
  CancelCheck check(&t, /*stride=*/0);
  EXPECT_TRUE(check.Expired());
}

// ---------------------------------------------------------------------------
// Status plumbing for the two new codes.
// ---------------------------------------------------------------------------

TEST(CancelStatusTest, NewCodesAreDistinctAndPrintable) {
  const Status d = Status::DeadlineExceeded("10ms budget spent");
  const Status c = Status::Cancelled("caller gave up");
  EXPECT_FALSE(d.ok());
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(d.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(c.code(), StatusCode::kCancelled);
  EXPECT_NE(d.code(), c.code());
  EXPECT_EQ(d.ToString(), "DEADLINE_EXCEEDED: 10ms budget spent");
  EXPECT_EQ(c.ToString(), "CANCELLED: caller gave up");
}

TEST(CancelStatusTest, ReturnIfErrorMacroPropagatesAndPassesOk) {
  auto fails = [](Status s) -> Status {
    CAGRA_RETURN_IF_ERROR(s);
    return Status::InvalidArgument("fell through");
  };
  EXPECT_EQ(fails(Status::DeadlineExceeded("x")).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(fails(Status::Ok()).code(), StatusCode::kInvalidArgument);
}

TEST(CancelStatusTest, AssignOrReturnMacroUnwrapsAndPropagates) {
  auto doubles = [](Result<int> r) -> Result<int> {
    CAGRA_ASSIGN_OR_RETURN(int v, r);
    return 2 * v;
  };
  auto ok = doubles(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  auto err = doubles(Status::Cancelled("upstream"));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Graph search with a token.
// ---------------------------------------------------------------------------

class SearchCancelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const DatasetProfile* p = FindProfile("DEEP-1M");
    data_ = new SyntheticData(GenerateDataset(*p, 1200, 16, 7));
    BuildParams bp;
    bp.graph_degree = 16;
    auto built = CagraIndex::Build(data_->base, bp);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    index_ = new CagraIndex(std::move(built.value()));
  }
  static void TearDownTestSuite() {
    delete index_;
    delete data_;
    index_ = nullptr;
    data_ = nullptr;
  }

  static SearchParams BaseParams() {
    SearchParams sp;
    sp.k = 10;
    sp.itopk = 64;
    return sp;
  }

  static SyntheticData* data_;
  static CagraIndex* index_;
};

SyntheticData* SearchCancelTest::data_ = nullptr;
CagraIndex* SearchCancelTest::index_ = nullptr;

TEST_F(SearchCancelTest, NullAndUnexpiredTokenAreIdenticalToNoToken) {
  // The zero-cost contract: compiling cancellation in and even carrying
  // a live (but never-expiring) token must not change a single id or
  // distance relative to the token-free call.
  SearchParams plain = BaseParams();
  auto ref = Search(*index_, data_->queries, plain);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_TRUE(ref->complete);

  CancelToken never = CancelToken::WithTimeout(std::chrono::hours(24));
  SearchParams with_token = BaseParams();
  with_token.cancel = &never;
  auto got = Search(*index_, data_->queries, with_token);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->complete);
  EXPECT_EQ(got->neighbors.ids, ref->neighbors.ids);
  EXPECT_EQ(got->neighbors.distances, ref->neighbors.distances);
}

TEST_F(SearchCancelTest, RowsExaminedPopulatedPerQuery) {
  auto r = Search(*index_, data_->queries, BaseParams());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows_examined.size(), data_->queries.rows());
  for (size_t q = 0; q < r->rows_examined.size(); q++) {
    EXPECT_GT(r->rows_examined[q], 0u) << "query " << q;
  }
}

TEST_F(SearchCancelTest, ExpiredTokenTruncatesToWellFormedPartial) {
  CancelToken expired;
  expired.Cancel();
  SearchParams sp = BaseParams();
  sp.cancel = &expired;
  auto r = Search(*index_, data_->queries, sp);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // An OK result flagged incomplete, never an error.
  EXPECT_FALSE(r->complete);
  ExpectWellFormedTopK(r->neighbors, data_->queries.rows(), sp.k);
  // A token cancelled before the call starts no query: every row is
  // padding and scored nothing.
  EXPECT_EQ(r->rows_examined,
            std::vector<uint64_t>(data_->queries.rows(), 0));
  EXPECT_EQ(r->neighbors.ids,
            std::vector<uint32_t>(data_->queries.rows() * sp.k, kPad));
}

TEST_F(SearchCancelTest, MultiCtaModeTruncatesCleanly) {
  CancelToken expired;
  expired.Cancel();
  SearchParams sp = BaseParams();
  sp.algo = SearchAlgo::kMultiCta;
  sp.cancel = &expired;
  auto r = Search(*index_, data_->queries, sp);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->complete);
  ExpectWellFormedTopK(r->neighbors, data_->queries.rows(), sp.k);
  EXPECT_EQ(r->rows_examined,
            std::vector<uint64_t>(data_->queries.rows(), 0));
}

TEST_F(SearchCancelTest, KernelsCutAtAnIterationBoundary) {
  // A token that expires while a query runs stops it at an iteration
  // boundary. Search starts no query on an expired token, so the
  // kernels are driven directly here, with a token cancelled before
  // they start: each must seed, stop within its first checked
  // iterations (the check is amortized over a stride of 4) and emit a
  // well-formed partial of real ids, set *truncated, and score fewer
  // rows than its full run.
  const auto snap = index_->snapshot();
  const internal_search::DatasetView dataset(*snap, Precision::kFp32);
  for (const SearchAlgo algo : {SearchAlgo::kSingleCta,
                                SearchAlgo::kMultiCta}) {
    SCOPED_TRACE(algo == SearchAlgo::kMultiCta ? "multi-CTA" : "single-CTA");
    SearchParams sp = BaseParams();
    sp.algo = algo;
    const internal_search::ResolvedConfig cfg = internal_search::ResolveConfig(
        ResolveBatchShape(sp, DeviceSpec{}, 1), snap->degree(), snap->size());
    struct Run {
      NeighborList out;
      KernelCounters counters;
      size_t iterations = 0;
      bool truncated = false;
    };
    auto run = [&](const CancelToken* token) {
      Run r;
      r.out.k = cfg.k;
      r.out.ids.assign(cfg.k, kPad);
      r.out.distances.assign(cfg.k, std::numeric_limits<float>::infinity());
      internal_search::ResolvedConfig c = cfg;
      c.cancel = token;
      internal_search::SearchScratch scratch;
      const auto kernel = algo == SearchAlgo::kMultiCta
                              ? internal_search::SearchMultiCta
                              : internal_search::SearchSingleCta;
      r.iterations = kernel(dataset, snap->GraphRef(), data_->queries.Row(0),
                            c, cfg.seed, r.out.ids.data(),
                            r.out.distances.data(), &r.counters, &scratch,
                            &r.truncated);
      return r;
    };
    const Run full = run(nullptr);
    EXPECT_FALSE(full.truncated);
    CancelToken expired;
    expired.Cancel();
    const Run cut = run(&expired);
    EXPECT_TRUE(cut.truncated);
    EXPECT_LE(cut.iterations, 4u);
    EXPECT_LT(cut.iterations, full.iterations);
    EXPECT_GT(cut.counters.distance_computations, 0u);
    EXPECT_LT(cut.counters.distance_computations,
              full.counters.distance_computations);
    ExpectWellFormedTopK(cut.out, 1, cfg.k);
    EXPECT_NE(cut.out.ids[cfg.k - 1], kPad);
  }
}

// ---------------------------------------------------------------------------
// Sharded search with a token.
// ---------------------------------------------------------------------------

class ShardedCancelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const DatasetProfile* p = FindProfile("DEEP-1M");
    data_ = new SyntheticData(GenerateDataset(*p, 900, 24, 31));
    BuildParams bp;
    bp.graph_degree = 8;
    auto built = ShardedCagraIndex::Build(data_->base, bp, 3);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    index_ = new ShardedCagraIndex(std::move(built.value()));
  }
  static void TearDownTestSuite() {
    delete index_;
    delete data_;
    index_ = nullptr;
    data_ = nullptr;
  }

  static SearchParams BaseParams() {
    SearchParams sp;
    sp.k = 5;
    sp.itopk = 32;
    return sp;
  }

  static SyntheticData* data_;
  static ShardedCagraIndex* index_;
};

SyntheticData* ShardedCancelTest::data_ = nullptr;
ShardedCagraIndex* ShardedCancelTest::index_ = nullptr;

TEST_F(ShardedCancelTest, UnexpiredTokenIdenticalToTokenFreeStreaming) {
  SearchParams plain = BaseParams();
  auto ref = index_->Search(data_->queries, plain);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  CancelToken never = CancelToken::WithTimeout(std::chrono::hours(24));
  SearchParams sp = plain;
  sp.cancel = &never;
  auto got = index_->Search(data_->queries, sp);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->complete);
  EXPECT_EQ(got->neighbors.ids, ref->neighbors.ids);
  EXPECT_EQ(got->neighbors.distances, ref->neighbors.distances);
}

TEST_F(ShardedCancelTest, ExpiredDeadlineReturnsWellFormedPartialFast) {
  // A deadline already in the past: every shard sheds at its pre-scan
  // check and the call returns a well-formed (possibly fully padded)
  // partial promptly — the fixed-cost path of the 2x-deadline
  // acceptance bound.
  CancelToken expired(CancelToken::Clock::now() - milliseconds(5));
  SearchParams sp = BaseParams();
  sp.cancel = &expired;
  const auto t0 = std::chrono::steady_clock::now();
  auto r = index_->Search(data_->queries, sp);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->complete);
  ExpectWellFormedTopK(r->neighbors, data_->queries.rows(), sp.k);
  // Generous sanity bound (CI machines stall): nowhere near a full
  // uncancelled batch, and certainly not hung.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST_F(ShardedCancelTest, ManualCancelMidFlightYieldsPartial) {
  // Cancel from another thread while the batch is in flight; whatever
  // the race outcome (finished or truncated), the result must be
  // well-formed and the call must return.
  for (int rep = 0; rep < 5; rep++) {
    CancelToken token;
    SearchParams sp = BaseParams();
    sp.cancel = &token;
    std::thread canceller([&token] { token.Cancel(); });
    auto r = index_->Search(data_->queries, sp);
    canceller.join();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectWellFormedTopK(r->neighbors, data_->queries.rows(), sp.k);
  }
}

TEST_F(ShardedCancelTest, PreCancelledTokenShedsEveryTask) {
  // A token cancelled before the call: every shard sheds before
  // scanning, whoever runs it — pool helpers read the derived token,
  // which starts cancelled, and the caller reads its own.
  CancelToken cancelled;
  cancelled.Cancel();
  const size_t batch = data_->queries.rows();
  for (size_t threads : {size_t{0}, size_t{1}, size_t{3}}) {
    SearchParams sp = BaseParams();
    sp.num_threads = threads;
    sp.cancel = &cancelled;
    auto r = index_->Search(data_->queries, sp);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->complete) << "threads=" << threads;
    EXPECT_EQ(r->rows_examined, std::vector<uint64_t>(batch, 0))
        << "threads=" << threads;
    EXPECT_EQ(r->neighbors.ids, std::vector<uint32_t>(batch * sp.k, kPad))
        << "threads=" << threads;
    EXPECT_EQ(r->neighbors.distances,
              std::vector<float>(batch * sp.k,
                                 std::numeric_limits<float>::infinity()));
  }
}

}  // namespace
}  // namespace cagra
