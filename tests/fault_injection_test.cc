// The fault-injection harness (util/fault_injection.h) and the
// degradation behavior it exists to prove. The controller's
// deterministic schedule is tested unconditionally; the injection
// matrix over the production fault points — shard scans, the serving
// admission/execute paths, index/file reads, index saves — only runs
// when the points are compiled in (-DCAGRA_FAULT_INJECTION=ON, the
// dedicated CI job) and GTEST_SKIPs otherwise. The invariants: every
// Submit future resolves exactly once whatever fires, Shutdown never
// hangs, partial results stay well-formed, a failed Save leaves the old
// file, and a disarmed controller changes nothing.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/index.h"
#include "core/sharded.h"
#include "dataset/io.h"
#include "dataset/profile.h"
#include "dataset/synthetic.h"
#include "serving/serving.h"
#include "sharded_reference.h"
#include "util/cancel.h"
#include "util/fault_injection.h"

namespace cagra {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

/// Every test leaves the process-wide controller clean, armed sites
/// included — a leaked spec would fire into an unrelated suite.
class FaultControllerTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultController::Instance().Reset(); }
  void TearDown() override { FaultController::Instance().Reset(); }
};

// ---------------------------------------------------------------------------
// Controller determinism (runs with or without the compiled-in points:
// the controller itself always exists; tests hit it directly).
// ---------------------------------------------------------------------------

TEST_F(FaultControllerTest, UnarmedSiteIsTransparentButCounted) {
  auto& fc = FaultController::Instance();
  EXPECT_TRUE(fc.Hit("nowhere").ok());
  EXPECT_TRUE(fc.Hit("nowhere").ok());
  EXPECT_EQ(fc.hits("nowhere"), 2u);
  EXPECT_EQ(fc.fires("nowhere"), 0u);
  EXPECT_EQ(fc.hits("never_touched"), 0u);
}

TEST_F(FaultControllerTest, ScheduleIsDeterministic) {
  auto& fc = FaultController::Instance();
  FaultSpec spec;
  spec.status = Status::IoError("injected");
  spec.skip_first = 2;
  spec.every_nth = 3;
  spec.max_fires = 2;
  fc.Arm("site", spec);
  std::vector<bool> fired;
  for (int i = 0; i < 12; i++) fired.push_back(!fc.Hit("site").ok());
  // Hits 1-2 skipped, then every 3rd hit fires (3, 6), capped at 2.
  const std::vector<bool> want = {false, false, true,  false, false, true,
                                  false, false, false, false, false, false};
  EXPECT_EQ(fired, want);
  EXPECT_EQ(fc.hits("site"), 12u);
  EXPECT_EQ(fc.fires("site"), 2u);
  // The exact same sequence again after re-arming: the schedule is a
  // pure function of the hit counter, not of time or history.
  fc.Arm("site", spec);
  std::vector<bool> again;
  for (int i = 0; i < 12; i++) again.push_back(!fc.Hit("site").ok());
  EXPECT_EQ(again, want);
}

TEST_F(FaultControllerTest, DefaultSpecFiresEveryHit) {
  auto& fc = FaultController::Instance();
  FaultSpec spec;
  spec.status = Status::Internal("boom");
  fc.Arm("always", spec);
  for (int i = 0; i < 5; i++) {
    EXPECT_EQ(fc.Hit("always").code(), StatusCode::kInternal) << "hit " << i;
  }
  EXPECT_EQ(fc.fires("always"), 5u);
}

TEST_F(FaultControllerTest, DisarmStopsFiringButKeepsCounting) {
  auto& fc = FaultController::Instance();
  FaultSpec spec;
  spec.status = Status::IoError("x");
  fc.Arm("site", spec);
  EXPECT_FALSE(fc.Hit("site").ok());
  fc.Disarm("site");
  EXPECT_TRUE(fc.Hit("site").ok());
  EXPECT_EQ(fc.hits("site"), 2u);
  EXPECT_EQ(fc.fires("site"), 1u);
}

TEST_F(FaultControllerTest, DelayOnlySpecStallsAndReturnsOk) {
  auto& fc = FaultController::Instance();
  FaultSpec spec;
  spec.delay = milliseconds(20);
  fc.Arm("slow", spec);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(fc.Hit("slow").ok());
  EXPECT_GE(std::chrono::steady_clock::now() - t0, milliseconds(20));
}

TEST_F(FaultControllerTest, ZeroEveryNthIsClampedToOne) {
  auto& fc = FaultController::Instance();
  FaultSpec spec;
  spec.status = Status::IoError("x");
  spec.every_nth = 0;
  fc.Arm("site", spec);
  EXPECT_FALSE(fc.Hit("site").ok());
  EXPECT_FALSE(fc.Hit("site").ok());
}

#if !defined(CAGRA_FAULT_INJECTION)

TEST(FaultInjectionMatrixTest, RequiresCompiledInFaultPoints) {
  GTEST_SKIP() << "built without -DCAGRA_FAULT_INJECTION=ON; the "
                  "production fault points compile to nothing";
}

#else  // CAGRA_FAULT_INJECTION

// ---------------------------------------------------------------------------
// Injection matrix over the production fault points.
// ---------------------------------------------------------------------------

constexpr uint32_t kPad = 0xffffffffu;

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
            << "query " << q << ": not ascending at slot " << i;
      }
    }
  }
}

class FaultMatrixTest : public FaultControllerTest {
 protected:
  static void SetUpTestSuite() {
    const DatasetProfile* p = FindProfile("DEEP-1M");
    data_ = new SyntheticData(GenerateDataset(*p, 900, 20, 4711));
    BuildParams bp;
    bp.graph_degree = 8;
    auto built = ShardedCagraIndex::Build(data_->base, bp, 3);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    sharded_ = new ShardedCagraIndex(std::move(built.value()));
  }
  static void TearDownTestSuite() {
    delete sharded_;
    delete data_;
    sharded_ = nullptr;
    data_ = nullptr;
  }

  static SearchParams BaseParams() {
    SearchParams sp;
    sp.k = 5;
    sp.itopk = 32;
    return sp;
  }

  static SyntheticData* data_;
  static ShardedCagraIndex* sharded_;
};

SyntheticData* FaultMatrixTest::data_ = nullptr;
ShardedCagraIndex* FaultMatrixTest::sharded_ = nullptr;

TEST_F(FaultMatrixTest, DisarmedPointsChangeNothing) {
  // Fault points compiled in but nothing armed: sharded search must
  // still be EXPECT_EQ-identical to the serial per-shard reference (the
  // acceptance bit-identity bound holds in the fault-injection build
  // too).
  SearchParams sp = BaseParams();
  auto ref = ShardedReferenceSearch(*sharded_, data_->queries, sp);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  for (int rep = 0; rep < 5; rep++) {
    auto got = sharded_->Search(data_->queries, sp);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(got->complete);
    EXPECT_EQ(got->neighbors.ids, ref->ids) << rep;
    EXPECT_EQ(got->neighbors.distances, ref->distances);
  }
}

TEST_F(FaultMatrixTest, StalledShardWithDeadlineReturnsPartialInTime) {
  // The headline acceptance scenario: one shard scan stalls 100ms, the
  // caller holds a 10ms deadline. The search must abandon the straggler
  // and return a well-formed partial at roughly the deadline — never
  // wait out the stall.
  FaultSpec stall;
  stall.delay = milliseconds(100);
  stall.max_fires = 1;  // exactly one shard stalls
  FaultController::Instance().Arm("shard_scan_stall", stall);

  CancelToken token = CancelToken::WithTimeout(milliseconds(10));
  SearchParams sp = BaseParams();
  sp.cancel = &token;
  const auto t0 = std::chrono::steady_clock::now();
  auto r = sharded_->Search(data_->queries, sp);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->complete);
  ExpectWellFormedTopK(r->neighbors, data_->queries.rows(), sp.k);
  EXPECT_EQ(FaultController::Instance().fires("shard_scan_stall"), 1u);
  // ~2x the deadline in the model (expiry at 10ms + 2ms drain grace);
  // the hard requirement is returning well before the 100ms stall.
  EXPECT_LT(elapsed, milliseconds(60))
      << "search waited out the stalled shard instead of abandoning it";
}

TEST_F(FaultMatrixTest, StalledShardPartialKeepsFinishedShards) {
  // The third shard claimed stalls far past the deadline, at any pool
  // width. The search abandons it, but every row the other two shards
  // found must survive the merge: each query keeps a real id in slot 0
  // and counts the finished shards' scans in rows_examined. The
  // deadline leaves the two healthy shards room to finish their
  // 20-query scans in the Debug ASan build too (tens of ms there), and
  // the stall is long enough that returning before it ends can only
  // mean the straggler was abandoned.
  FaultSpec stall;
  stall.delay = milliseconds(1000);
  stall.skip_first = 2;
  stall.max_fires = 1;
  FaultController::Instance().Arm("shard_scan_stall", stall);

  CancelToken token = CancelToken::WithTimeout(milliseconds(200));
  SearchParams sp = BaseParams();
  sp.cancel = &token;
  const auto t0 = std::chrono::steady_clock::now();
  auto r = sharded_->Search(data_->queries, sp);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->complete);
  const size_t batch = data_->queries.rows();
  ExpectWellFormedTopK(r->neighbors, batch, sp.k);
  EXPECT_EQ(FaultController::Instance().fires("shard_scan_stall"), 1u);
  ASSERT_EQ(r->rows_examined.size(), batch);
  for (size_t q = 0; q < batch; q++) {
    EXPECT_GT(r->rows_examined[q], 0u) << "query " << q;
    EXPECT_NE(r->neighbors.ids[q * sp.k], kPad) << "query " << q;
  }
  EXPECT_LT(elapsed, milliseconds(500))
      << "search waited out the stalled shard instead of abandoning it";
}

TEST_F(FaultMatrixTest, StallWithoutDeadlineWaitsAndStaysIdentical) {
  // No deadline: stalls only delay; results must not change. This pins
  // the publish-side determinism under scheduler perturbation.
  FaultSpec stall;
  stall.delay = milliseconds(30);
  stall.max_fires = 2;
  FaultController::Instance().Arm("shard_scan_stall", stall);
  SearchParams sp = BaseParams();
  auto slow = sharded_->Search(data_->queries, sp);
  FaultController::Instance().Reset();
  auto ref = sharded_->Search(data_->queries, sp);
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE(slow->complete);
  EXPECT_EQ(slow->neighbors.ids, ref->neighbors.ids);
  EXPECT_EQ(slow->neighbors.distances, ref->neighbors.distances);
}

TEST_F(FaultMatrixTest, QueuePushStallOnlyDelaysPublication) {
  FaultSpec stall;
  stall.delay = milliseconds(20);
  stall.max_fires = 3;
  FaultController::Instance().Arm("queue_push_stall", stall);
  SearchParams sp = BaseParams();
  auto slow = sharded_->Search(data_->queries, sp);
  FaultController::Instance().Reset();
  auto ref = sharded_->Search(data_->queries, sp);
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(slow->neighbors.ids, ref->neighbors.ids);
  EXPECT_EQ(slow->neighbors.distances, ref->neighbors.distances);
}

TEST_F(FaultMatrixTest, ShardScanFailureSurfacesTheInjectedStatus) {
  FaultSpec fail;
  fail.status = Status::Internal("injected shard failure");
  fail.max_fires = 1;
  FaultController::Instance().Arm("shard_scan_fail", fail);
  SearchParams sp = BaseParams();
  auto r = sharded_->Search(data_->queries, sp);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_EQ(r.status().message(), "injected shard failure");
  // The search recovers completely once the fault clears.
  FaultController::Instance().Reset();
  auto again = sharded_->Search(data_->queries, sp);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
}

TEST_F(FaultMatrixTest, GraphSwapFailureLeavesIndexUnchanged) {
  // The graph_swap point guards every mutator's snapshot publish
  // (Add / Remove / Compact / background compaction): a failure there
  // must abort the publish atomically — the previous version keeps
  // serving, bit-identically.
  BuildParams bp;
  bp.graph_degree = 8;
  auto built = CagraIndex::Build(SliceQueries(data_->base, 0, 300), bp);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  CagraIndex index = std::move(built.value());
  SearchParams sp = BaseParams();
  auto before = Search(index, data_->queries, sp);
  ASSERT_TRUE(before.ok());

  FaultSpec fail;
  fail.status = Status::Internal("injected publish failure");
  FaultController::Instance().Arm("graph_swap", fail);

  EXPECT_EQ(index.Add(SliceQueries(data_->base, 300, 1)).code(),
            StatusCode::kInternal);
  EXPECT_EQ(index.size(), 300u);
  EXPECT_EQ(index.Remove(std::vector<uint32_t>{1}).code(),
            StatusCode::kInternal);
  EXPECT_EQ(index.tombstone_count(), 0u);

  auto after = Search(index, data_->queries, sp);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->neighbors.ids, before->neighbors.ids);
  EXPECT_EQ(after->neighbors.distances, before->neighbors.distances);

  // A Compact publish failure keeps the tombstoned version intact…
  FaultController::Instance().Reset();
  ASSERT_TRUE(index.Remove(std::vector<uint32_t>{2}).ok());
  FaultController::Instance().Arm("graph_swap", fail);
  EXPECT_EQ(index.Compact().code(), StatusCode::kInternal);
  EXPECT_EQ(index.tombstone_count(), 1u);
  EXPECT_EQ(index.size(), 300u);

  // …and everything recovers once the fault clears.
  FaultController::Instance().Reset();
  ASSERT_TRUE(index.Compact().ok());
  EXPECT_EQ(index.size(), 299u);
  EXPECT_EQ(index.tombstone_count(), 0u);
}

TEST_F(FaultMatrixTest, IndexLoadPropagatesInjectedIoFailure) {
  const std::string path = ::testing::TempDir() + "/fi_index.cagra";
  {
    BuildParams bp;
    bp.graph_degree = 8;
    auto idx = CagraIndex::Build(data_->base, bp);
    ASSERT_TRUE(idx.ok());
    ASSERT_TRUE(idx->Save(path).ok());
  }
  FaultSpec fail;
  fail.status = Status::IoError("injected read failure");
  fail.max_fires = 1;
  FaultController::Instance().Arm("io_read", fail);
  auto loaded = CagraIndex::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_EQ(loaded.status().message(), "injected read failure");
  // max_fires exhausted: the very next load succeeds.
  auto retry = CagraIndex::Load(path);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
  std::remove(path.c_str());
}

TEST_F(FaultMatrixTest, FailedSaveStepLeavesTheOldFile) {
  // Save writes a new file and renames it over its target. Each step —
  // header, dataset, graph, flags, the PQ and id-map trailers, the
  // fsync and the rename — is an io_write fault point. A failure
  // injected at any of them must surface its status, leave the old file
  // byte-identical and loading, and leave no temporary beside it.
  auto read_all = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in), {});
  };
  std::string dir = ::testing::TempDir() + "/fi_save_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  auto entries = [&dir] {
    std::set<std::string> names;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      names.insert(e.path().filename().string());
    }
    return names;
  };
  const std::string path = dir + "/index.cagra";
  BuildParams bp;
  bp.graph_degree = 8;
  auto built = CagraIndex::Build(SliceQueries(data_->base, 0, 300), bp);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  CagraIndex index = std::move(built.value());
  ASSERT_TRUE(index.Save(path).ok());
  const std::vector<char> old_bytes = read_all(path);

  // The new file carries both trailers: an id map from compaction, and
  // the PQ copy.
  ASSERT_TRUE(index.Remove(std::vector<uint32_t>{7}).ok());
  ASSERT_TRUE(index.Compact().ok());
  PqTrainParams pq;
  pq.kmeans_iterations = 2;
  pq.sample_size = 256;
  index.EnablePq(pq);
  auto& fc = FaultController::Instance();
  fc.Reset();
  ASSERT_TRUE(index.Save(dir + "/count.cagra").ok());
  const size_t steps = fc.hits("io_write");
  EXPECT_EQ(steps, 8u);
  std::filesystem::remove(dir + "/count.cagra");

  for (size_t step = 0; step < steps; step++) {
    SCOPED_TRACE("failing step " + std::to_string(step));
    FaultSpec fail;
    fail.status = Status::IoError("injected write failure");
    fail.skip_first = step;
    fail.max_fires = 1;
    fc.Arm("io_write", fail);
    const Status s = index.Save(path);
    EXPECT_EQ(s.code(), StatusCode::kIoError);
    EXPECT_EQ(s.message(), "injected write failure");
    EXPECT_EQ(fc.fires("io_write"), 1u);
    EXPECT_EQ(read_all(path), old_bytes);
    EXPECT_TRUE(CagraIndex::Load(path).ok());
    EXPECT_EQ(entries(), std::set<std::string>{"index.cagra"});
  }
  // Past the last step nothing fires, and the Save lands.
  fc.Reset();
  ASSERT_TRUE(index.Save(path).ok());
  auto loaded = CagraIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->HasPq());
  EXPECT_EQ(loaded->size(), 299u);
  std::filesystem::remove_all(dir);
}

TEST_F(FaultMatrixTest, ReadFvecsPropagatesInjectedIoFailure) {
  FaultSpec fail;
  fail.status = Status::IoError("injected read failure");
  FaultController::Instance().Arm("io_read", fail);
  auto r = ReadFvecs("/nonexistent/base.fvecs");
  ASSERT_FALSE(r.ok());
  // The injected status wins over the (also inevitable) open failure:
  // the fault point sits first, modeling a device that dies pre-open.
  EXPECT_EQ(r.status().message(), "injected read failure");
}

// --- Serving under injected faults: every future resolves, exactly
// once, and Shutdown always returns.

class ServingFaultTest : public FaultMatrixTest {
 protected:
  /// Submits `n` requests from `producers` threads, shuts down, and
  /// asserts every future resolves. Returns the per-future statuses.
  static std::vector<Status> RunTraffic(ServingScheduler* sched,
                                        const Matrix<float>& queries,
                                        size_t n, size_t producers) {
    std::vector<std::future<Result<QueryResponse>>> futures(n);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < producers; t++) {
      threads.emplace_back([&, t] {
        for (size_t i = t; i < n; i += producers) {
          futures[i] = sched->Submit(queries.Row(i % queries.rows()), 5);
        }
      });
    }
    for (auto& th : threads) th.join();
    sched->Shutdown();
    std::vector<Status> statuses;
    statuses.reserve(n);
    for (auto& f : futures) {
      // Ready immediately after Shutdown — the drain guarantee. A
      // wait_for(0) that isn't ready means a dropped promise.
      EXPECT_EQ(f.wait_for(milliseconds(0)), std::future_status::ready);
      auto r = f.get();
      statuses.push_back(r.ok() ? Status::Ok() : r.status());
    }
    return statuses;
  }
};

TEST_F(ServingFaultTest, EveryFutureResolvesUnderAdmissionFailures) {
  FaultSpec fail;
  fail.status = Status::IoError("injected push failure");
  fail.every_nth = 3;
  FaultController::Instance().Arm("serving_queue_push_fail", fail);

  ServingOptions opt;
  opt.max_batch = 8;
  ServingScheduler sched(*sharded_, opt);
  const auto statuses = RunTraffic(&sched, data_->queries, 48, 4);

  size_t injected = 0, ok = 0;
  for (const Status& s : statuses) {
    if (s.ok()) {
      ok++;
    } else {
      EXPECT_EQ(s.code(), StatusCode::kIoError);
      injected++;
    }
  }
  EXPECT_EQ(injected, 16u);  // every 3rd of 48 admission attempts
  EXPECT_EQ(ok, 32u);
  EXPECT_EQ(sched.Snapshot().failed, injected);
}

TEST_F(ServingFaultTest, EveryFutureResolvesUnderAdmissionStalls) {
  FaultSpec stall;
  stall.delay = milliseconds(5);
  stall.every_nth = 4;
  FaultController::Instance().Arm("serving_queue_push_stall", stall);

  ServingOptions opt;
  opt.max_batch = 8;
  ServingScheduler sched(*sharded_, opt);
  const auto statuses = RunTraffic(&sched, data_->queries, 32, 4);
  for (const Status& s : statuses) EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(sched.Snapshot().completed, 32u);
}

TEST_F(ServingFaultTest, EveryFutureResolvesUnderBatchExecuteFailures) {
  FaultSpec fail;
  fail.status = Status::Internal("injected batch failure");
  fail.every_nth = 2;  // every other batch fails wholesale
  FaultController::Instance().Arm("serving_batch_execute_fail", fail);

  ServingOptions opt;
  opt.max_batch = 4;
  ServingScheduler sched(*sharded_, opt);
  const auto statuses = RunTraffic(&sched, data_->queries, 32, 4);

  size_t injected = 0, ok = 0;
  for (const Status& s : statuses) {
    if (s.ok()) {
      ok++;
    } else {
      EXPECT_EQ(s.code(), StatusCode::kInternal);
      injected++;
    }
  }
  EXPECT_EQ(injected + ok, 32u);
  const ServingStats stats = sched.Snapshot();
  EXPECT_EQ(stats.completed, ok);
  EXPECT_EQ(stats.failed, injected);
}

TEST_F(ServingFaultTest, ShutdownNeverHangsUnderExecuteStalls) {
  FaultSpec stall;
  stall.delay = milliseconds(25);
  FaultController::Instance().Arm("serving_batch_execute_stall", stall);

  ServingOptions opt;
  opt.max_batch = 4;
  opt.num_workers = 2;
  ServingScheduler sched(*sharded_, opt);
  const auto t0 = std::chrono::steady_clock::now();
  const auto statuses = RunTraffic(&sched, data_->queries, 24, 4);
  for (const Status& s : statuses) EXPECT_TRUE(s.ok()) << s.ToString();
  // Every batch stalled 25ms and everything still drained promptly
  // (bound is loose for CI; a hang would trip the CTest TIMEOUT).
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30));
}

TEST_F(ServingFaultTest, CombinedStallAndFailureMatrixResolvesEverything) {
  // All four serving sites armed at once on staggered schedules — the
  // worst case the harness models. The only invariants left: every
  // future resolves, stats add up, shutdown returns.
  FaultSpec push_stall;
  push_stall.delay = milliseconds(2);
  push_stall.every_nth = 5;
  FaultSpec push_fail;
  push_fail.status = Status::IoError("push");
  push_fail.skip_first = 3;
  push_fail.every_nth = 7;
  FaultSpec exec_stall;
  exec_stall.delay = milliseconds(5);
  exec_stall.every_nth = 3;
  FaultSpec exec_fail;
  exec_fail.status = Status::Internal("exec");
  exec_fail.skip_first = 1;
  exec_fail.every_nth = 4;
  auto& fc = FaultController::Instance();
  fc.Arm("serving_queue_push_stall", push_stall);
  fc.Arm("serving_queue_push_fail", push_fail);
  fc.Arm("serving_batch_execute_stall", exec_stall);
  fc.Arm("serving_batch_execute_fail", exec_fail);

  ServingOptions opt;
  opt.max_batch = 8;
  opt.num_workers = 2;
  ServingScheduler sched(*sharded_, opt);
  const size_t n = 64;
  const auto statuses = RunTraffic(&sched, data_->queries, n, 4);

  size_t ok = 0, failed = 0;
  for (const Status& s : statuses) {
    if (s.ok()) {
      ok++;
    } else {
      EXPECT_TRUE(s.code() == StatusCode::kIoError ||
                  s.code() == StatusCode::kInternal)
          << s.ToString();
      failed++;
    }
  }
  EXPECT_EQ(ok + failed, n);
  const ServingStats stats = sched.Snapshot();
  EXPECT_EQ(stats.completed, ok);
  EXPECT_EQ(stats.failed, failed);
}

TEST_F(ServingFaultTest, DeadlineTrafficUnderStallsShedsOrTruncates) {
  // Per-request deadlines + an execute-side stall: requests either
  // complete, come back partial, or are shed with kDeadlineExceeded —
  // never hang, never resolve twice.
  FaultSpec stall;
  stall.delay = milliseconds(15);
  FaultController::Instance().Arm("serving_batch_execute_stall", stall);

  ServingOptions opt;
  opt.max_batch = 4;
  ServingScheduler sched(*sharded_, opt);
  const size_t n = 16;
  std::vector<std::future<Result<QueryResponse>>> futures;
  for (size_t i = 0; i < n; i++) {
    futures.push_back(sched.Submit(data_->queries.Row(i),  5,
                                   ServingScheduler::Clock::now() +
                                       milliseconds(10)));
  }
  sched.Shutdown();
  size_t ok = 0, expired = 0;
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(milliseconds(0)), std::future_status::ready);
    auto r = f.get();
    if (r.ok()) {
      ok++;
      ASSERT_EQ(r->ids.size(), 5u);
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
      expired++;
    }
  }
  EXPECT_EQ(ok + expired, n);
  const ServingStats stats = sched.Snapshot();
  EXPECT_EQ(stats.deadline_expired, expired);
  EXPECT_EQ(stats.completed, ok);
}

#endif  // CAGRA_FAULT_INJECTION

}  // namespace
}  // namespace cagra
