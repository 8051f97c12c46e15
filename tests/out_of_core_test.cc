// The out-of-core storage tier: fp32 rows served from an mmap of the
// Save() file while the graph and compressed copies stay RAM-resident.
// The load-bearing contract is bit-identity — an out-of-core index must
// return EXPECT_EQ-identical results to the RAM-resident index it was
// saved from, across storage precisions (fp32 traversal, PQ and OPQ
// with exact-fp32 rerank) and dispatch tiers (the whole suite re-runs
// as out_of_core_test_scalar under CAGRA_FORCE_SCALAR=1). Also pinned
// here: LoadOutOfCore validation, clean kIoError on torn mapped files,
// Save over the backing file (by its own name or an alias) leaving the
// mapping serving, the serving scheduler running unchanged over the
// mapped tier and, in the fault-injection build, deadline expiry
// mid-rerank per the SearchResult::complete contract.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/index.h"
#include "core/search.h"
#include "core/searcher.h"
#include "dataset/mmap_matrix.h"
#include "dataset/profile.h"
#include "dataset/synthetic.h"
#include "serving/serving.h"
#include "util/fault_injection.h"

namespace cagra {
namespace {

/// A scratch file private to this process: the suite also runs as
/// out_of_core_test_scalar, possibly at the same time, and the two runs
/// must not overwrite or delete each other's index files.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

class OutOfCoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new SyntheticData(
        GenerateDataset(*FindProfile("DEEP-1M"), 500, 16, 4242));
    BuildParams bp;
    bp.graph_degree = 8;
    auto built = CagraIndex::Build(data_->base, bp);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    index_ = new CagraIndex(std::move(built.value()));
    // OPQ layout (rotation included) so the saved file carries the
    // largest trailer; a plain-PQ copy is derived per test when needed.
    PqTrainParams pq;
    pq.rotate = true;
    pq.kmeans_iterations = 3;
    pq.sample_size = 256;
    index_->EnablePq(pq);
    ASSERT_TRUE(index_->HasPq());
    path_ = new std::string(TempPath("ooc_index.cagra"));
    ASSERT_TRUE(index_->Save(*path_).ok());
  }
  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete path_;
    delete index_;
    delete data_;
    path_ = nullptr;
    index_ = nullptr;
    data_ = nullptr;
  }

  static void ExpectIdentical(const SearchResult& a, const SearchResult& b) {
    EXPECT_EQ(a.neighbors.ids, b.neighbors.ids);
    EXPECT_EQ(a.neighbors.distances, b.neighbors.distances);
    EXPECT_EQ(a.complete, b.complete);
  }

  /// Opens `path` out of core, saves the mapped index to `target` — the
  /// same file, by its own name or another — and returns "" when the
  /// Save succeeded, the mapped index still answers as before, and
  /// Load(path) answers the same; otherwise what went wrong. Searches
  /// read exact fp32 rows through the map (the rerank).
  static std::string SaveOverBackingFile(const std::string& path,
                                         const std::string& target) {
    auto mapped = CagraIndex::LoadOutOfCore(path);
    if (!mapped.ok()) return "LoadOutOfCore: " + mapped.status().ToString();
    SearchParams sp;
    sp.k = 10;
    sp.precision = Precision::kPq;
    sp.rerank = 32;
    auto before = Search(*mapped, data_->queries, sp);
    if (!before.ok()) return "search: " + before.status().ToString();
    const Status saved = mapped->Save(target);
    if (!saved.ok()) return "Save: " + saved.ToString();
    auto after = Search(*mapped, data_->queries, sp);
    auto reloaded = CagraIndex::Load(path);
    if (!after.ok() || !reloaded.ok()) return "search or Load failed";
    auto again = Search(*reloaded, data_->queries, sp);
    if (!again.ok()) return "search: " + again.status().ToString();
    auto same = [&](const SearchResult& r) {
      return r.neighbors.ids == before->neighbors.ids &&
             r.neighbors.distances == before->neighbors.distances;
    };
    if (!same(*after)) return "the mapped index changed its answers";
    if (!same(*again)) return "Load(path) answers differently";
    return "";
  }

  static SyntheticData* data_;
  static CagraIndex* index_;
  static std::string* path_;
};

SyntheticData* OutOfCoreTest::data_ = nullptr;
CagraIndex* OutOfCoreTest::index_ = nullptr;
std::string* OutOfCoreTest::path_ = nullptr;

TEST_F(OutOfCoreTest, LoadOutOfCoreMatchesResidentLoadExactly) {
  auto resident = CagraIndex::Load(*path_);
  ASSERT_TRUE(resident.ok()) << resident.status().ToString();
  auto mapped = CagraIndex::LoadOutOfCore(*path_);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->out_of_core());
  EXPECT_EQ(mapped->snapshot()->dataset, nullptr);  // fp32 rows not resident
  EXPECT_EQ(mapped->size(), resident->size());
  EXPECT_EQ(mapped->dim(), resident->dim());
  EXPECT_TRUE(mapped->HasPq());

  for (Precision prec : {Precision::kFp32, Precision::kPq}) {
    for (size_t rerank : {size_t{0}, size_t{32}}) {
      SCOPED_TRACE("precision=" + std::to_string(static_cast<int>(prec)) +
                   " rerank=" + std::to_string(rerank));
      SearchParams sp;
      sp.k = 10;
      sp.precision = prec;
      sp.rerank = rerank;
      auto a = Search(*resident, data_->queries, sp);
      auto b = Search(*mapped, data_->queries, sp);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      ExpectIdentical(*a, *b);
    }
  }
}

TEST_F(OutOfCoreTest, LoadOutOfCoreMatchesResidentAcrossPqVariants) {
  // fp32 / plain PQ / OPQ, resident vs LoadOutOfCore of its Save() file,
  // both execution modes: the mapped tier must be invisible to results
  // everywhere.
  for (bool opq : {false, true}) {
    CagraIndex resident = *index_;
    std::string save_path = *path_;
    if (!opq) {
      // Re-derive a rotation-free PQ copy from the resident rows.
      const auto snap = index_->snapshot();
      auto rebuilt =
          CagraIndex::FromGraph(data_->base, snap->GraphRef(), snap->metric);
      ASSERT_TRUE(rebuilt.ok());
      resident = std::move(rebuilt.value());
      PqTrainParams pq;
      pq.rotate = false;
      pq.kmeans_iterations = 3;
      pq.sample_size = 256;
      resident.EnablePq(pq);
      save_path = TempPath("ooc_plainpq.cagra");
      ASSERT_TRUE(resident.Save(save_path).ok());
    }
    auto loaded = CagraIndex::LoadOutOfCore(save_path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const CagraIndex& mapped = loaded.value();
    ASSERT_TRUE(mapped.out_of_core());
    for (Precision prec : {Precision::kFp32, Precision::kPq}) {
      for (auto algo : {SearchAlgo::kSingleCta, SearchAlgo::kMultiCta}) {
        SCOPED_TRACE("opq=" + std::to_string(opq) + " precision=" +
                     std::to_string(static_cast<int>(prec)) + " algo=" +
                     std::to_string(static_cast<int>(algo)));
        SearchParams sp;
        sp.k = 8;
        sp.precision = prec;
        sp.rerank = 48;
        sp.algo = algo;
        auto a = Search(resident, data_->queries, sp);
        auto b = Search(mapped, data_->queries, sp);
        ASSERT_TRUE(a.ok()) << a.status().ToString();
        ASSERT_TRUE(b.ok()) << b.status().ToString();
        ExpectIdentical(*a, *b);
      }
    }
    if (!opq) std::remove(save_path.c_str());
  }
}

TEST_F(OutOfCoreTest, RerankReturnsExactFp32Distances) {
  auto mapped = CagraIndex::LoadOutOfCore(*path_);
  ASSERT_TRUE(mapped.ok());
  SearchParams sp;
  sp.k = 10;
  sp.precision = Precision::kPq;
  sp.rerank = 64;
  auto r = Search(*mapped, data_->queries, sp);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Every returned distance must be the exact fp32 distance to the
  // returned row — the rerank's whole reason to exist — and each
  // query's list must be sorted and duplicate-free.
  const auto snap = mapped->snapshot();
  for (size_t q = 0; q < data_->queries.rows(); q++) {
    float prev = -1.0f;
    for (size_t i = 0; i < sp.k; i++) {
      const uint32_t id = r->neighbors.ids[q * sp.k + i];
      const float dist = r->neighbors.distances[q * sp.k + i];
      ASSERT_LT(id, snap->size());
      const float exact =
          ComputeDistance(snap->metric, data_->queries.Row(q),
                          snap->Fp32Row(id), snap->dim());
      EXPECT_EQ(dist, exact);
      EXPECT_GE(dist, prev);
      prev = dist;
      for (size_t j = i + 1; j < sp.k; j++) {
        EXPECT_NE(id, r->neighbors.ids[q * sp.k + j]);
      }
    }
  }
}

TEST_F(OutOfCoreTest, RerankRecallAtLeastPlainPq) {
  // The acceptance floor: exact-fp32 rerank over PQ candidates must
  // match the fp32 search's top-1 at least as often as raw PQ does.
  SearchParams fp;
  fp.k = 10;
  auto truth = Search(*index_, data_->queries, fp);
  ASSERT_TRUE(truth.ok());
  SearchParams pq = fp;
  pq.precision = Precision::kPq;
  auto raw = Search(*index_, data_->queries, pq);
  ASSERT_TRUE(raw.ok());
  SearchParams rr = pq;
  rr.rerank = 64;
  auto mapped = CagraIndex::LoadOutOfCore(*path_);
  ASSERT_TRUE(mapped.ok());
  auto refined = Search(*mapped, data_->queries, rr);
  ASSERT_TRUE(refined.ok());
  auto hits = [&](const SearchResult& r) {
    size_t h = 0;
    for (size_t q = 0; q < data_->queries.rows(); q++) {
      const uint32_t want = truth->neighbors.ids[q * fp.k];
      for (size_t i = 0; i < fp.k; i++) {
        if (r.neighbors.ids[q * fp.k + i] == want) {
          h++;
          break;
        }
      }
    }
    return h;
  };
  EXPECT_GE(hits(*refined), hits(*raw));
}

TEST_F(OutOfCoreTest, SaveOverTheBackingPathKeepsServing) {
  // Save writes a new file and renames it over the target, so the
  // mapping keeps reading the file it was opened on.
  const std::string path = TempPath("ooc_resave.cagra");
  ASSERT_TRUE(index_->Save(path).ok());
  EXPECT_EQ(SaveOverBackingFile(path, path), "");
  // The re-saved file streams the dataset back out of the mapping: the
  // same rows and graph the index was built with.
  auto reloaded = CagraIndex::Load(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  const auto snap = reloaded->snapshot();
  EXPECT_EQ(snap->DatasetRef().data(), data_->base.data());
  EXPECT_EQ(snap->GraphRef().edges(), index_->snapshot()->GraphRef().edges());
  std::remove(path.c_str());
}

TEST_F(OutOfCoreTest, SaveThroughAnAliasOfTheBackingPathKeepsServing) {
  // "<dir>/./<name>" names the backing file too, and no path compare
  // sees it. A Save that truncated its target would then fault (SIGBUS)
  // on the next row read through the map, so the check runs in a child.
  // The child re-executes this test ("threadsafe" style): a forked copy
  // of this process could inherit a pool lock a worker held mid-task.
  // It re-runs the suite set-up under its own pid, so it removes that
  // file and its own before it exits.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string name = std::to_string(::getpid()) + "_ooc_alias.cagra";
  const std::string path = ::testing::TempDir() + "/" + name;
  const std::string alias = ::testing::TempDir() + "/./" + name;
  ASSERT_TRUE(index_->Save(path).ok());
  EXPECT_EXIT(
      {
        const std::string err = SaveOverBackingFile(path, alias);
        std::fprintf(stderr, "%s\n", err.c_str());
        std::remove(path.c_str());
        std::remove(path_->c_str());
        std::_Exit(err.empty() ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  std::remove(path.c_str());
}

TEST_F(OutOfCoreTest, TruncatedMappedFileFailsWithCleanIoError) {
  // Cut the file inside the dataset section: the out-of-core open must
  // refuse before any row is dereferenced (SIGBUS territory).
  const std::string cut = TempPath("ooc_cut.cagra");
  std::FILE* in = std::fopen(path_->c_str(), "rb");
  ASSERT_NE(in, nullptr);
  std::vector<unsigned char> bytes(40 + index_->size() * index_->dim() * 2);
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), in), bytes.size());
  std::fclose(in);
  std::FILE* out = std::fopen(cut.c_str(), "wb");
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out), bytes.size());
  std::fclose(out);
  auto mapped = CagraIndex::LoadOutOfCore(cut);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kIoError);
  std::remove(cut.c_str());
}

TEST_F(OutOfCoreTest, MmapMatrixValidatesShapeAndOffset) {
  // Direct MmapMatrix contract: 64-bit overflow-checked bounds over a
  // descriptor the caller opened and still owns.
  const int fd = ::open(path_->c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  auto too_many_rows = MmapMatrix::Open(fd, 1ull << 40, 16, 40);
  ASSERT_FALSE(too_many_rows.ok());
  EXPECT_EQ(too_many_rows.status().code(), StatusCode::kIoError);
  auto unaligned = MmapMatrix::Open(fd, 1, 1, 39);
  ASSERT_FALSE(unaligned.ok());
  EXPECT_EQ(unaligned.status().code(), StatusCode::kInvalidArgument);
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  auto not_a_file = MmapMatrix::Open(pipe_fds[0], 1, 1, 0);
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
  ASSERT_FALSE(not_a_file.ok());
  EXPECT_EQ(not_a_file.status().code(), StatusCode::kIoError);
  auto ok = MmapMatrix::Open(fd, index_->size(), index_->dim(), 40);
  ::close(fd);  // the mapping outlives the descriptor
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->rows(), index_->size());
  // The mapped rows are the saved dataset, byte for byte — and
  // prefetching them (any order, padding included) is harmless.
  EXPECT_EQ(std::vector<float>(ok->Row(3), ok->Row(3) + ok->dim()),
            std::vector<float>(data_->base.Row(3),
                               data_->base.Row(3) + data_->base.dim()));
  const std::vector<uint32_t> ids = {7, 3, 499, 0xffffffffu, 3, 42};
  ok->PrefetchRows(ids.data(), ids.size());
}

TEST_F(OutOfCoreTest, SchedulerRunsUnchangedOverTheMappedTier) {
  // The serving scheduler must work — and answer identically to a lone
  // Search — over an out-of-core index, with no scheduler changes.
  auto mapped = CagraIndex::LoadOutOfCore(*path_);
  ASSERT_TRUE(mapped.ok());
  IndexSearcher searcher(*mapped);
  ServingOptions opt;
  opt.params.precision = Precision::kPq;
  opt.params.rerank = 32;
  ServingScheduler sched(searcher, opt);
  const size_t k = 5;
  std::vector<std::future<Result<QueryResponse>>> futures;
  for (size_t q = 0; q < data_->queries.rows(); q++) {
    futures.push_back(sched.Submit(data_->queries.Row(q), k));
  }
  SearchParams ref;
  ref.k = k;
  ref.precision = Precision::kPq;
  ref.rerank = 32;
  for (size_t q = 0; q < data_->queries.rows(); q++) {
    auto resp = futures[q].get();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    Matrix<float> one = SliceQueries(data_->queries, q, 1);
    auto lone = Search(*mapped, one, ref);
    ASSERT_TRUE(lone.ok());
    EXPECT_EQ(resp->ids, lone->neighbors.ids);
    EXPECT_EQ(resp->distances, lone->neighbors.distances);
  }
  sched.Shutdown();
}

#if defined(CAGRA_FAULT_INJECTION)
TEST_F(OutOfCoreTest, InjectedMmapFaultSurfacesOnEveryEntryPoint) {
  // The io_mmap site is the mmap-path sibling of io_read: an injected
  // map failure must surface as the injected Status from LoadOutOfCore.
  FaultController::Instance().Reset();
  FaultSpec spec;
  spec.status = Status::IoError("injected mmap failure");
  FaultController::Instance().Arm("io_mmap", spec);
  auto loaded = CagraIndex::LoadOutOfCore(*path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  FaultController::Instance().Reset();
  // Disarmed, the same call succeeds.
  ASSERT_TRUE(CagraIndex::LoadOutOfCore(*path_).ok());
}

TEST_F(OutOfCoreTest, DeadlineExpiryMidRerankFallsBackToApproximateRanking) {
  // A stall between the traversal and the rerank outlasts the deadline,
  // so every query has its candidates and the first rerank-block check
  // finds the token expired. Each query must fall back to its
  // approximate-ranked candidates: exactly what the same PQ search
  // without rerank returns (widening the emission to the rerank depth
  // leaves the traversal unchanged), with the batch marked incomplete.
  // The deadline leaves the 16-query traversal room to finish in the
  // Debug ASan build too, and the stall runs far past it.
  auto mapped = CagraIndex::LoadOutOfCore(*path_);
  ASSERT_TRUE(mapped.ok());
  SearchParams plain;
  plain.k = 10;
  plain.precision = Precision::kPq;
  auto ref = Search(*mapped, data_->queries, plain);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  FaultController::Instance().Reset();
  FaultSpec stall;
  stall.delay = std::chrono::milliseconds(600);
  stall.max_fires = 1;
  FaultController::Instance().Arm("search_rerank_stall", stall);
  CancelToken token = CancelToken::WithTimeout(std::chrono::milliseconds(200));
  SearchParams sp = plain;
  sp.rerank = 64;
  sp.cancel = &token;
  auto r = Search(*mapped, data_->queries, sp);
  EXPECT_EQ(FaultController::Instance().fires("search_rerank_stall"), 1u);
  FaultController::Instance().Reset();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->complete);
  // Every row holds real ids: the fallback, not padding, filled it.
  for (size_t q = 0; q < data_->queries.rows(); q++) {
    for (size_t i = 0; i < sp.k; i++) {
      ASSERT_LT(r->neighbors.ids[q * sp.k + i], mapped->size())
          << "query " << q << " slot " << i;
    }
  }
  EXPECT_EQ(r->neighbors.ids, ref->neighbors.ids);
  EXPECT_EQ(r->neighbors.distances, ref->neighbors.distances);
  // The rerank scored nothing: each query counts its traversal alone.
  EXPECT_EQ(r->rows_examined, ref->rows_examined);
}
#endif  // CAGRA_FAULT_INJECTION

}  // namespace
}  // namespace cagra
