#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "dataset/io.h"
#include "dataset/matrix.h"
#include "dataset/profile.h"
#include "dataset/recall.h"
#include "dataset/synthetic.h"

namespace cagra {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------- Matrix

TEST(MatrixTest, ShapeAndRowAccess) {
  Matrix<float> m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.dim(), 4u);
  EXPECT_EQ(m.RowBytes(), 16u);
  m.MutableRow(1)[2] = 7.0f;
  EXPECT_EQ(m.Row(1)[2], 7.0f);
  EXPECT_EQ(m.Row(0)[0], 0.0f);  // zero-initialized
}

TEST(MatrixTest, ToHalfConvertsEveryElement) {
  Matrix<float> m(2, 3);
  for (size_t i = 0; i < 2; i++) {
    for (size_t j = 0; j < 3; j++) {
      m.MutableRow(i)[j] = static_cast<float>(i * 3 + j);
    }
  }
  Matrix<Half> h = ToHalf(m);
  EXPECT_EQ(h.RowBytes(), 6u);
  for (size_t i = 0; i < 2; i++) {
    for (size_t j = 0; j < 3; j++) {
      EXPECT_EQ(h.Row(i)[j].ToFloat(), m.Row(i)[j]);
    }
  }
}

// ---------------------------------------------------------------- Profiles

TEST(ProfileTest, TableOneDatasetsPresent) {
  // Table I of the paper: name, dim, degree.
  struct Expected {
    const char* name;
    size_t dim;
    size_t degree;
  };
  const Expected expected[] = {
      {"SIFT-1M", 128, 32},  {"GIST-1M", 960, 48}, {"GloVe-200", 200, 80},
      {"NYTimes", 256, 64},  {"DEEP-1M", 96, 32},  {"DEEP-10M", 96, 32},
      {"DEEP-100M", 96, 32},
  };
  for (const auto& e : expected) {
    const DatasetProfile* p = FindProfile(e.name);
    ASSERT_NE(p, nullptr) << e.name;
    EXPECT_EQ(p->dim, e.dim) << e.name;
    EXPECT_EQ(p->cagra_degree, e.degree) << e.name;
  }
}

TEST(ProfileTest, PaperSizesMatchTableOne) {
  EXPECT_EQ(FindProfile("SIFT-1M")->paper_size, 1000000u);
  EXPECT_EQ(FindProfile("GloVe-200")->paper_size, 1183514u);
  EXPECT_EQ(FindProfile("NYTimes")->paper_size, 290000u);
  EXPECT_EQ(FindProfile("DEEP-100M")->paper_size, 100000000u);
}

TEST(ProfileTest, UnknownProfileReturnsNull) {
  EXPECT_EQ(FindProfile("BogusDataset"), nullptr);
}

TEST(ProfileTest, ScaledSizeHasFloor) {
  DatasetProfile tiny = *FindProfile("SIFT-1M");
  tiny.default_size = 10;
  EXPECT_GE(ScaledSize(tiny), 2000u);
}

// ---------------------------------------------------------------- Synthetic

TEST(SyntheticTest, ShapeMatchesRequest) {
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 500, 20, 1);
  EXPECT_EQ(data.base.rows(), 500u);
  EXPECT_EQ(data.base.dim(), 96u);
  EXPECT_EQ(data.queries.rows(), 20u);
  EXPECT_EQ(data.queries.dim(), 96u);
}

TEST(SyntheticTest, DeterministicInSeed) {
  const DatasetProfile* p = FindProfile("SIFT-1M");
  auto a = GenerateDataset(*p, 100, 5, 7);
  auto b = GenerateDataset(*p, 100, 5, 7);
  EXPECT_EQ(a.base.data(), b.base.data());
  EXPECT_EQ(a.queries.data(), b.queries.data());
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  const DatasetProfile* p = FindProfile("SIFT-1M");
  auto a = GenerateDataset(*p, 100, 5, 7);
  auto b = GenerateDataset(*p, 100, 5, 8);
  EXPECT_NE(a.base.data(), b.base.data());
}

TEST(SyntheticTest, NormalizedProfilesHaveUnitRows) {
  const DatasetProfile* p = FindProfile("GloVe-200");
  ASSERT_TRUE(p->normalize);
  auto data = GenerateDataset(*p, 50, 5, 3);
  for (size_t i = 0; i < data.base.rows(); i++) {
    double norm = 0;
    const float* row = data.base.Row(i);
    for (size_t j = 0; j < data.base.dim(); j++) norm += row[j] * row[j];
    EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-4) << i;
  }
}

TEST(SyntheticTest, QueriesDifferFromBase) {
  const DatasetProfile* p = FindProfile("DEEP-1M");
  auto data = GenerateDataset(*p, 100, 100, 5);
  // No query row should be bit-identical to a base row.
  for (size_t q = 0; q < data.queries.rows(); q++) {
    for (size_t b = 0; b < data.base.rows(); b++) {
      bool identical = true;
      for (size_t j = 0; j < data.base.dim() && identical; j++) {
        identical = data.queries.Row(q)[j] == data.base.Row(b)[j];
      }
      EXPECT_FALSE(identical) << q << " " << b;
    }
  }
}

TEST(SyntheticTest, ClusterStructureExists) {
  // With clusters, the nearest neighbor of a point must be far closer
  // than a random point on average.
  const DatasetProfile* p = FindProfile("SIFT-1M");
  auto data = GenerateDataset(*p, 400, 1, 9);
  double nn_sum = 0, rand_sum = 0;
  size_t count = 0;
  for (size_t i = 0; i < 50; i++) {
    float nn = 1e30f;
    for (size_t j = 0; j < data.base.rows(); j++) {
      if (i == j) continue;
      const float d = ComputeDistance(Metric::kL2, data.base.Row(i),
                                      data.base.Row(j), data.base.dim());
      nn = std::min(nn, d);
    }
    nn_sum += nn;
    rand_sum += ComputeDistance(Metric::kL2, data.base.Row(i),
                                data.base.Row((i + 200) % 400),
                                data.base.dim());
    count++;
  }
  EXPECT_LT(nn_sum / count, 0.7 * rand_sum / count);
}

// ---------------------------------------------------------------- IO

TEST(IoTest, FvecsRoundTrip) {
  Matrix<float> m(5, 7);
  for (size_t i = 0; i < 5; i++) {
    for (size_t j = 0; j < 7; j++) {
      m.MutableRow(i)[j] = static_cast<float>(i) * 10 + j;
    }
  }
  const std::string path = TempPath("roundtrip.fvecs");
  ASSERT_TRUE(WriteFvecs(path, m).ok());
  auto r = ReadFvecs(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows(), 5u);
  EXPECT_EQ(r->dim(), 7u);
  EXPECT_EQ(r->data(), m.data());
  std::remove(path.c_str());
}

TEST(IoTest, IvecsRoundTrip) {
  Matrix<uint32_t> m(3, 4);
  for (size_t i = 0; i < 12; i++) (*m.mutable_data())[i] = i * 3;
  const std::string path = TempPath("roundtrip.ivecs");
  ASSERT_TRUE(WriteIvecs(path, m).ok());
  auto r = ReadIvecs(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->data(), m.data());
  std::remove(path.c_str());
}

TEST(IoTest, MaxRowsLimitsRead) {
  Matrix<float> m(10, 3);
  const std::string path = TempPath("limited.fvecs");
  ASSERT_TRUE(WriteFvecs(path, m).ok());
  auto r = ReadFvecs(path, 4);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows(), 4u);
  std::remove(path.c_str());
}

TEST(IoTest, MissingFileIsIoError) {
  auto r = ReadFvecs("/nonexistent/path/x.fvecs");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(IoTest, TruncatedFileIsIoError) {
  const std::string path = TempPath("truncated.fvecs");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const int32_t dim = 100;  // header promises 100 floats, provide none
  std::fwrite(&dim, sizeof(dim), 1, f);
  std::fclose(f);
  auto r = ReadFvecs(path);
  EXPECT_FALSE(r.ok());
  std::remove(path.c_str());
}

TEST(IoTest, ZeroDimHeaderIsIoError) {
  // A d == 0 header used to make every row a zero-byte fread "success",
  // spinning without progress; it must be rejected as corrupt.
  const std::string path = TempPath("zerodim.fvecs");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const int32_t dim = 0;
  const float payload[4] = {1, 2, 3, 4};
  std::fwrite(&dim, sizeof(dim), 1, f);
  std::fwrite(payload, sizeof(float), 4, f);
  std::fclose(f);
  auto r = ReadFvecs(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(IoTest, NegativeDimHeaderIsIoError) {
  const std::string path = TempPath("negdim.fvecs");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const int32_t dim = -7;
  std::fwrite(&dim, sizeof(dim), 1, f);
  std::fclose(f);
  auto r = ReadFvecs(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(IoTest, HugeDimHeaderIsRejectedWithoutAllocating) {
  // A corrupt header promising a ~2^30-element row must fail the
  // file-size plausibility check instead of attempting a multi-GB
  // row_buf allocation.
  const std::string path = TempPath("hugedim.fvecs");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const int32_t dim = 1 << 30;
  const float payload[8] = {0};
  std::fwrite(&dim, sizeof(dim), 1, f);
  std::fwrite(payload, sizeof(float), 8, f);
  std::fclose(f);
  auto r = ReadFvecs(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(IoTest, DimLargerThanFileIsIoError) {
  // Plausible-looking dim, but the file is too short to ever hold one
  // such row: caught by the header check, not by a giant read attempt.
  const std::string path = TempPath("shortfile.ivecs");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const int32_t dim = 1000;
  const uint32_t payload[2] = {1, 2};
  std::fwrite(&dim, sizeof(dim), 1, f);
  std::fwrite(payload, sizeof(payload), 1, f);
  std::fclose(f);
  auto r = ReadIvecs(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(IoTest, TruncatedSecondRowIsIoError) {
  // The first row is complete (so the header check passes) but the
  // second row is cut mid-payload.
  const std::string path = TempPath("midtrunc.fvecs");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const int32_t dim = 4;
  const float row[4] = {1, 2, 3, 4};
  std::fwrite(&dim, sizeof(dim), 1, f);
  std::fwrite(row, sizeof(float), 4, f);
  std::fwrite(&dim, sizeof(dim), 1, f);
  std::fwrite(row, sizeof(float), 2, f);  // half a row
  std::fclose(f);
  auto r = ReadFvecs(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(IoTest, TornTrailingHeaderBytesAreIoError) {
  // 1-3 bytes past the last complete row are a torn next-row header,
  // not a row boundary. The old item-count fread could not tell the two
  // apart and silently returned a truncated matrix.
  for (size_t torn : {size_t{1}, size_t{2}, size_t{3}}) {
    SCOPED_TRACE(torn);
    const std::string path = TempPath("tornheader.fvecs");
    std::FILE* f = std::fopen(path.c_str(), "wb");
    const int32_t dim = 4;
    const float row[4] = {1, 2, 3, 4};
    std::fwrite(&dim, sizeof(dim), 1, f);
    std::fwrite(row, sizeof(float), 4, f);
    std::fwrite(&dim, 1, torn, f);  // torn header of a lost second row
    std::fclose(f);
    auto r = ReadFvecs(path);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIoError);
    std::remove(path.c_str());
  }
}

TEST(IoTest, FileByteSizeIs64BitOnSparseFiles) {
  // The helper behind every size-plausibility check must report sizes
  // past 2^31 correctly (std::ftell returns long, which tops out at
  // 2 GiB on LLP64 — exactly the regime out-of-core files live in).
  // A sparse file provides the size without the disk bytes.
  const std::string path = TempPath("sparse3g.bin");
  const uint64_t size = 3ull << 30;  // 3 GiB
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (::ftruncate(fileno(f), static_cast<off_t>(size)) != 0) {
    std::fclose(f);
    std::remove(path.c_str());
    GTEST_SKIP() << "filesystem does not support sparse files";
  }
  uint64_t got = 0;
  ASSERT_TRUE(FileByteSize(f, &got));
  EXPECT_EQ(got, size);
  // No seeking involved: the stream position is untouched.
  EXPECT_EQ(::ftello(f), 0);
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(IoTest, MockedHeaderIsValidatedAgainst64BitFileSize) {
  // A dim whose row would be ~8 GiB must be rejected by the plausibility
  // check against the true 64-bit size — cleanly, with no allocation —
  // even when the file itself is past the old 2 GiB long limit.
  const std::string path = TempPath("mocked64.fvecs");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const int32_t dim = 0x7ffffff0;  // promises a ~8 GiB row
  ASSERT_EQ(std::fwrite(&dim, sizeof(dim), 1, f), 1u);
  if (::ftruncate(fileno(f), static_cast<off_t>(3ull << 30)) != 0) {
    std::fclose(f);
    std::remove(path.c_str());
    GTEST_SKIP() << "filesystem does not support sparse files";
  }
  std::fclose(f);
  auto r = ReadFvecs(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(IoTest, NonSeekableStreamReadsAndValidates) {
  // A FIFO has no byte size, so ReadFvecs runs with the plausibility
  // check disabled and every row validated as it streams. A complete
  // stream must parse; a stream ending in a short final row must fail
  // with kIoError instead of silently dropping the tail.
  for (bool torn : {false, true}) {
    SCOPED_TRACE(torn ? "short final row" : "complete stream");
    const std::string path = TempPath(torn ? "torn.fifo" : "whole.fifo");
    std::remove(path.c_str());
    ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
    std::thread writer([&] {
      std::FILE* w = std::fopen(path.c_str(), "wb");
      ASSERT_NE(w, nullptr);
      uint64_t sz = 0;
      EXPECT_FALSE(FileByteSize(w, &sz));  // FIFOs report no size
      const int32_t dim = 3;
      const float row[3] = {1, 2, 3};
      std::fwrite(&dim, sizeof(dim), 1, w);
      std::fwrite(row, sizeof(float), 3, w);
      std::fwrite(&dim, sizeof(dim), 1, w);
      std::fwrite(row, sizeof(float), torn ? 1 : 3, w);
      std::fclose(w);
    });
    auto r = ReadFvecs(path);
    writer.join();
    if (torn) {
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kIoError);
    } else {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->rows(), 2u);
      EXPECT_EQ(r->dim(), 3u);
    }
    std::remove(path.c_str());
  }
}

TEST(IoTest, BvecsWidensToFloat) {
  const std::string path = TempPath("bytes.bvecs");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const int32_t dim = 3;
  const unsigned char row[3] = {0, 128, 255};
  std::fwrite(&dim, sizeof(dim), 1, f);
  std::fwrite(row, 1, 3, f);
  std::fclose(f);
  auto r = ReadBvecsAsFloat(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->Row(0)[0], 0.0f);
  EXPECT_EQ(r->Row(0)[1], 128.0f);
  EXPECT_EQ(r->Row(0)[2], 255.0f);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- Recall

TEST(RecallTest, PerfectMatchIsOne) {
  NeighborList results;
  results.k = 3;
  results.ids = {1, 2, 3, 4, 5, 6};
  Matrix<uint32_t> gt(2, 3);
  *gt.mutable_data() = {3, 2, 1, 6, 5, 4};  // order within row irrelevant
  EXPECT_EQ(ComputeRecall(results, gt), 1.0);
}

TEST(RecallTest, DisjointIsZero) {
  NeighborList results;
  results.k = 2;
  results.ids = {1, 2};
  Matrix<uint32_t> gt(1, 2);
  *gt.mutable_data() = {3, 4};
  EXPECT_EQ(ComputeRecall(results, gt), 0.0);
}

TEST(RecallTest, PartialOverlap) {
  NeighborList results;
  results.k = 4;
  results.ids = {1, 2, 3, 4};
  Matrix<uint32_t> gt(1, 4);
  *gt.mutable_data() = {1, 2, 9, 8};
  EXPECT_EQ(ComputeRecall(results, gt), 0.5);
}

TEST(RecallTest, UsesOnlyTopKOfGroundTruth) {
  // gt row has 4 entries but k=2: only the first 2 count (recall@2).
  NeighborList results;
  results.k = 2;
  results.ids = {30, 40};
  Matrix<uint32_t> gt(1, 4);
  *gt.mutable_data() = {10, 20, 30, 40};
  EXPECT_EQ(ComputeRecall(results, gt), 0.0);
}

TEST(RecallTest, DuplicateFoundIdsCountOnce) {
  // Regression: a result list that repeats one correct id must score it
  // once, not k times (the old implementation reported 1.0 here).
  NeighborList results;
  results.k = 3;
  results.ids = {1, 1, 1};
  Matrix<uint32_t> gt(1, 3);
  *gt.mutable_data() = {1, 2, 3};
  EXPECT_NEAR(ComputeRecall(results, gt), 1.0 / 3.0, 1e-12);
}

TEST(RecallTest, PaddingSentinelNeverMatchesPaddedGroundTruth) {
  // Regression: 0xffffffff padding in the results used to "match" the
  // 0xffffffff padding in short ground-truth rows, inflating recall.
  constexpr uint32_t kPad = 0xffffffffu;
  NeighborList results;
  results.k = 2;
  results.ids = {kPad, kPad};
  Matrix<uint32_t> gt(1, 2);
  *gt.mutable_data() = {3, kPad};
  EXPECT_EQ(ComputeRecall(results, gt), 0.0);
}

TEST(RecallTest, KBeyondDatasetRowsScoresOnlyValidEntries) {
  // k = 8 over a 5-row dataset: results and ground truth both pad with
  // the sentinel. A search that found 3 of the 5 reachable neighbors
  // scores 3/5 — the old implementation counted the pad-pad matches
  // too and reported a perfect 1.0.
  constexpr uint32_t kPad = 0xffffffffu;
  NeighborList results;
  results.k = 8;
  results.ids = {0, 1, 2, kPad, kPad, kPad, kPad, kPad};
  Matrix<uint32_t> gt(1, 8);
  *gt.mutable_data() = {0, 1, 2, 3, 4, kPad, kPad, kPad};
  EXPECT_NEAR(ComputeRecall(results, gt), 3.0 / 5.0, 1e-12);
}

TEST(RecallTest, AllPaddedGroundTruthIsZeroNotNan) {
  constexpr uint32_t kPad = 0xffffffffu;
  NeighborList results;
  results.k = 2;
  results.ids = {kPad, kPad};
  Matrix<uint32_t> gt(1, 2);
  *gt.mutable_data() = {kPad, kPad};
  EXPECT_EQ(ComputeRecall(results, gt), 0.0);
}

}  // namespace
}  // namespace cagra
