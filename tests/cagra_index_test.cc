#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <sys/resource.h>

#include <gtest/gtest.h>

#include "core/search.h"
#include "dataset/profile.h"
#include "dataset/synthetic.h"
#include "graph/analysis.h"

namespace cagra {
namespace {

SyntheticData SmallData(size_t n = 1000, uint64_t seed = 55) {
  return GenerateDataset(*FindProfile("DEEP-1M"), n, 8, seed);
}

TEST(CagraIndexTest, BuildProducesFixedDegreeGraph) {
  auto data = SmallData();
  BuildParams params;
  params.graph_degree = 16;
  BuildStats stats;
  auto index = CagraIndex::Build(data.base, params, &stats);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->degree(), 16u);
  EXPECT_EQ(index->size(), 1000u);
  EXPECT_EQ(index->dim(), 96u);
  EXPECT_GT(stats.total_seconds, 0.0);
  EXPECT_GT(stats.knn.distance_computations, 0u);
}

TEST(CagraIndexTest, BuildDefaultsIntermediateDegreeToTwiceFinal) {
  auto data = SmallData();
  BuildParams params;
  params.graph_degree = 8;
  BuildStats stats;
  auto index = CagraIndex::Build(data.base, params, &stats);
  ASSERT_TRUE(index.ok());
  // Distance table bytes reflect d_init = 2d = 16.
  EXPECT_EQ(stats.optimize.distance_table_bytes,
            1000u * 16u * sizeof(float));
}

TEST(CagraIndexTest, BuiltGraphIsWellFormed) {
  auto data = SmallData();
  BuildParams params;
  params.graph_degree = 16;
  auto index = CagraIndex::Build(data.base, params);
  ASSERT_TRUE(index.ok());
  const auto snap = index->snapshot();
  const auto& g = snap->GraphRef();
  for (size_t v = 0; v < g.num_nodes(); v++) {
    for (size_t j = 0; j < g.degree(); j++) {
      const uint32_t u = g.Neighbors(v)[j];
      if (u == FixedDegreeGraph::kInvalid) continue;
      EXPECT_LT(u, g.num_nodes());
      EXPECT_NE(u, static_cast<uint32_t>(v));
    }
  }
}

TEST(CagraIndexTest, BuiltGraphIsNearlyStronglyConnected) {
  auto data = SmallData();
  BuildParams params;
  params.graph_degree = 16;
  auto index = CagraIndex::Build(data.base, params);
  ASSERT_TRUE(index.ok());
  // Fig. 3: full optimization drives strong CC to ~1.
  const auto snap = index->snapshot();
  EXPECT_LE(CountStrongComponents(snap->GraphRef()), 3u);
}

TEST(CagraIndexTest, RejectsEmptyDataset) {
  Matrix<float> empty;
  BuildParams params;
  auto index = CagraIndex::Build(empty, params);
  EXPECT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument);
}

TEST(CagraIndexTest, RejectsDegreeBelowTwo) {
  auto data = SmallData(100);
  BuildParams params;
  params.graph_degree = 1;
  auto index = CagraIndex::Build(data.base, params);
  EXPECT_FALSE(index.ok());
}

TEST(CagraIndexTest, FromGraphValidatesShape) {
  auto data = SmallData(100);
  FixedDegreeGraph wrong(99, 4);
  auto index = CagraIndex::FromGraph(data.base, std::move(wrong), Metric::kL2);
  EXPECT_FALSE(index.ok());
}

TEST(CagraIndexTest, FromGraphSearchable) {
  auto data = SmallData(500);
  // Exact kNN graph as the search graph.
  BuildParams params;
  params.graph_degree = 12;
  auto built = CagraIndex::Build(data.base, params);
  ASSERT_TRUE(built.ok());
  const auto snap = built->snapshot();
  auto wrapped =
      CagraIndex::FromGraph(data.base, snap->GraphRef(), Metric::kL2);
  ASSERT_TRUE(wrapped.ok());
  SearchParams sp;
  sp.k = 5;
  sp.itopk = 32;
  auto r = Search(*wrapped, data.queries, sp);
  ASSERT_TRUE(r.ok());
}

TEST(CagraIndexTest, HalfPrecisionLifecycle) {
  auto data = SmallData(200);
  BuildParams params;
  params.graph_degree = 8;
  auto index = CagraIndex::Build(data.base, params);
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(index->HasHalfPrecision());
  index->EnableHalfPrecision();
  EXPECT_TRUE(index->HasHalfPrecision());
  EXPECT_EQ(index->snapshot()->HalfRef().rows(), 200u);
  index->EnableHalfPrecision();  // idempotent
  EXPECT_TRUE(index->HasHalfPrecision());
}

TEST(CagraIndexTest, SaveLoadRoundTripPreservesSearch) {
  auto data = SmallData(600);
  BuildParams params;
  params.graph_degree = 12;
  auto index = CagraIndex::Build(data.base, params);
  ASSERT_TRUE(index.ok());

  const std::string path = ::testing::TempDir() + "/index.cagra";
  ASSERT_TRUE(index->Save(path).ok());
  auto loaded = CagraIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), index->size());
  EXPECT_EQ(loaded->degree(), index->degree());
  EXPECT_EQ(loaded->metric(), index->metric());
  EXPECT_EQ(loaded->snapshot()->GraphRef().edges(),
            index->snapshot()->GraphRef().edges());

  SearchParams sp;
  sp.k = 5;
  sp.itopk = 32;
  auto a = Search(*index, data.queries, sp);
  auto b = Search(*loaded, data.queries, sp);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->neighbors.ids, b->neighbors.ids);
  std::remove(path.c_str());
}

TEST(CagraIndexTest, SaveLoadCarriesPqCodebookAndRotation) {
  // The PQ trailer: codebooks, OPQ rotation, row norms, and codes must
  // survive the round trip so a loaded index answers Precision::kPq
  // searches identically without retraining — the rotation is part of
  // the codebook's coordinate system and must never be separated.
  auto data = SmallData(600);
  BuildParams params;
  params.graph_degree = 12;
  auto index = CagraIndex::Build(data.base, params);
  ASSERT_TRUE(index.ok());
  PqTrainParams pq_params;
  pq_params.rotate = true;
  pq_params.kmeans_iterations = 3;
  pq_params.sample_size = 512;
  index->EnablePq(pq_params);
  ASSERT_TRUE(index->HasPq());
  ASSERT_TRUE(index->snapshot()->PqRef().HasRotation());

  const std::string path = ::testing::TempDir() + "/index_pq.cagra";
  ASSERT_TRUE(index->Save(path).ok());
  auto loaded = CagraIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->HasPq());
  const auto snap_a = index->snapshot();
  const auto snap_b = loaded->snapshot();
  const PqDataset& a = snap_a->PqRef();
  const PqDataset& b = snap_b->PqRef();
  EXPECT_EQ(b.dim, a.dim);
  EXPECT_EQ(b.dsub, a.dsub);
  EXPECT_EQ(b.rotation, a.rotation);
  EXPECT_EQ(b.centroids, a.centroids);
  EXPECT_EQ(b.centroid_norm2, a.centroid_norm2);
  EXPECT_EQ(b.row_norm2, a.row_norm2);
  EXPECT_EQ(b.codes.data(), a.codes.data());

  SearchParams sp;
  sp.k = 5;
  sp.itopk = 32;
  sp.precision = Precision::kPq;
  auto r1 = Search(*index, data.queries, sp);
  auto r2 = Search(*loaded, data.queries, sp);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->neighbors.ids, r2->neighbors.ids);
  EXPECT_EQ(r1->neighbors.distances, r2->neighbors.distances);
  std::remove(path.c_str());
}

TEST(CagraIndexTest, LoadRejectsCorruptPqTrailer) {
  // The PQ trailer header is untrusted input: a corrupted dsub (which
  // sizes the centroid buffers) must fail cleanly as an IoError, never
  // reach a huge/overflowed allocation.
  auto data = SmallData(200);
  BuildParams params;
  params.graph_degree = 8;
  auto index = CagraIndex::Build(data.base, params);
  ASSERT_TRUE(index.ok());
  PqTrainParams pq_params;
  pq_params.kmeans_iterations = 2;
  index->EnablePq(pq_params);
  const std::string path = ::testing::TempDir() + "/index_badpq.cagra";
  ASSERT_TRUE(index->Save(path).ok());

  // pq_header[1] (dsub) sits 16 bytes after the graph block's flags
  // word: 5*8 header + dataset + graph + 8 flags + 8 (pq dim field).
  const long offset =
      static_cast<long>(5 * 8 + index->size() * index->dim() * 4 +
                        index->size() * index->degree() * 4 + 8 + 8);
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const uint64_t huge = 1ull << 40;
  ASSERT_EQ(std::fwrite(&huge, sizeof(huge), 1, f), 1u);
  std::fclose(f);

  auto loaded = CagraIndex::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(CagraIndexTest, SaveLoadWithoutPqStillLoads) {
  // Files written without the PQ trailer load with HasPq false.
  auto data = SmallData(200);
  BuildParams params;
  params.graph_degree = 8;
  auto index = CagraIndex::Build(data.base, params);
  ASSERT_TRUE(index.ok());
  const std::string path = ::testing::TempDir() + "/index_nopq.cagra";
  ASSERT_TRUE(index->Save(path).ok());
  auto loaded = CagraIndex::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->HasPq());
  std::remove(path.c_str());
}

TEST(CagraIndexTest, FailedSaveKeepsThePreviousFile) {
  // A child whose file-size limit (64 KiB) is far below the index's
  // 2000 rows saves over a good file. SIGXFSZ is ignored, so the write
  // past the limit fails with EFBIG instead of killing the child. The
  // Save must fail with kIoError and leave the previous file loading as
  // before, with no temporary left beside it. The child is a fork
  // ("fast" style), so it saves over this process's file; it calls
  // nothing but Save, which takes no thread-pool lock a worker could
  // have held at the fork.
  ::testing::FLAGS_gtest_death_test_style = "fast";
  auto data = SmallData(2000);
  BuildParams params;
  params.graph_degree = 8;
  auto index = CagraIndex::Build(data.base, params);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  std::string dir = ::testing::TempDir() + "/failed_save_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string path = dir + "/index.cagra";
  ASSERT_TRUE(index->Save(path).ok());
  const struct rlimit limit = {64 << 10, 64 << 10};
  EXPECT_EXIT(
      {
        std::signal(SIGXFSZ, SIG_IGN);
        const bool limited = ::setrlimit(RLIMIT_FSIZE, &limit) == 0;
        const Status s = index->Save(path);
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        std::_Exit(limited && s.code() == StatusCode::kIoError ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");

  auto loaded = CagraIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->snapshot()->GraphRef().edges(),
            index->snapshot()->GraphRef().edges());
  SearchParams sp;
  sp.k = 5;
  sp.itopk = 32;
  auto a = Search(*index, data.queries, sp);
  auto b = Search(*loaded, data.queries, sp);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->neighbors.ids, b->neighbors.ids);
  EXPECT_EQ(a->neighbors.distances, b->neighbors.distances);
  std::vector<std::string> left;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    left.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(left, std::vector<std::string>{"index.cagra"});
  std::filesystem::remove_all(dir);
}

TEST(CagraIndexTest, LoadRejectsNonIndexFile) {
  const std::string path = ::testing::TempDir() + "/notindex.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const char junk[64] = {0};
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  auto loaded = CagraIndex::Load(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(CagraIndexTest, DegreeClampedOnTinyDataset) {
  auto data = SmallData(30);
  BuildParams params;
  params.graph_degree = 64;  // larger than n
  auto index = CagraIndex::Build(data.base, params);
  ASSERT_TRUE(index.ok());
  EXPECT_LT(index->degree(), 30u);
}

}  // namespace
}  // namespace cagra
