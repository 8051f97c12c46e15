// Fuzz-style hardening suite for CagraIndex::Load against truncated,
// extended and torn files. A saved index (with the full PQ trailer,
// rotation included) is cut at every section boundary, one byte to
// either side of each, and on a coarse sweep of interior offsets. One
// contract holds for every cut, resident and out-of-core: only the
// whole file loads. Every proper prefix, and the file plus one trailing
// byte, fails with a clean kIoError. Nothing may crash, over-allocate
// from a torn header, or leave partial state (Load builds into a local
// and returns by value).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/index.h"
#include "core/search.h"
#include "dataset/profile.h"
#include "dataset/synthetic.h"

namespace cagra {
namespace {

std::vector<unsigned char> ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<unsigned char> bytes(static_cast<size_t>(size));
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WritePrefix(const std::string& path,
                 const std::vector<unsigned char>& bytes, size_t len) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (len > 0) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, len, f), len);
  }
  std::fclose(f);
}

class IndexLoadFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto data = GenerateDataset(*FindProfile("DEEP-1M"), 300, 4, 913);
    BuildParams bp;
    bp.graph_degree = 8;
    auto built = CagraIndex::Build(data.base, bp);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    index_ = new CagraIndex(std::move(built.value()));
    PqTrainParams pq;
    pq.rotate = true;  // the largest trailer layout: rotation included
    pq.kmeans_iterations = 2;
    pq.sample_size = 256;
    index_->EnablePq(pq);
    ASSERT_TRUE(index_->HasPq());
    path_ = new std::string(::testing::TempDir() + "/fuzz_index.cagra");
    ASSERT_TRUE(index_->Save(*path_).ok());
    bytes_ = new std::vector<unsigned char>(ReadAll(*path_));
  }
  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete bytes_;
    delete path_;
    delete index_;
    bytes_ = nullptr;
    path_ = nullptr;
    index_ = nullptr;
  }

  /// Byte offsets of every section boundary in the serialized layout
  /// (each value = first byte past the section).
  static std::vector<size_t> SectionBoundaries() {
    const auto snap = index_->snapshot();
    const size_t rows = snap->size();
    const size_t dim = snap->dim();
    const size_t degree = snap->degree();
    const PqDataset& pq = snap->PqRef();
    const size_t m = pq.num_subspaces();
    std::vector<size_t> b;
    size_t off = 5 * sizeof(uint64_t);               // header
    b.push_back(off);
    off += rows * dim * sizeof(float);               // dataset
    b.push_back(off);
    off += rows * degree * sizeof(uint32_t);         // graph
    b.push_back(off);
    off += sizeof(uint64_t);                         // flags word
    b.push_back(off);
    off += 5 * sizeof(uint64_t);                     // pq header
    b.push_back(off);
    off += dim * dim * sizeof(float);                // rotation
    b.push_back(off);
    off += m * PqDataset::kNumCentroids * pq.dsub * sizeof(float);
    b.push_back(off);                                // centroids
    off += m * PqDataset::kNumCentroids * sizeof(float);
    b.push_back(off);                                // centroid norms
    off += rows * m;                                 // codes
    b.push_back(off);                                // == full file
    return b;
  }

  static size_t GraphEndOffset() { return SectionBoundaries()[2]; }

  /// Every section boundary, one byte to either side of each, and 0.
  /// The last boundary's "+1" is the whole file plus one trailing byte.
  static std::vector<size_t> BoundaryLengths() {
    std::vector<size_t> lengths = {0};
    for (size_t b : SectionBoundaries()) {
      lengths.insert(lengths.end(), {b - 1, b, b + 1});
    }
    return lengths;
  }

  /// Writes the saved file cut to each of `lengths` (a length past the
  /// end appends zero bytes) and loads it: the whole file must load,
  /// every other length must fail with kIoError.
  static void ExpectOnlyTheWholeFileLoads(const std::vector<size_t>& lengths,
                                          bool out_of_core) {
    const std::string cut = ::testing::TempDir() + "/fuzz_cut.cagra";
    std::vector<unsigned char> bytes = *bytes_;
    for (size_t len : lengths) {
      SCOPED_TRACE("cut to " + std::to_string(len) + " of " +
                   std::to_string(bytes_->size()) + " bytes");
      if (bytes.size() < len) bytes.resize(len, 0);
      WritePrefix(cut, bytes, len);
      auto loaded = out_of_core ? CagraIndex::LoadOutOfCore(cut)
                                : CagraIndex::Load(cut);
      if (len == bytes_->size()) {
        ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
        EXPECT_TRUE(loaded->HasPq());
        EXPECT_EQ(loaded->out_of_core(), out_of_core);
      } else {
        ASSERT_FALSE(loaded.ok()) << "accepted a " + std::to_string(len) +
                                         "-byte file";
        EXPECT_EQ(loaded.status().code(), StatusCode::kIoError)
            << loaded.status().ToString();
      }
    }
    std::remove(cut.c_str());
  }

  static CagraIndex* index_;
  static std::string* path_;
  static std::vector<unsigned char>* bytes_;
};

CagraIndex* IndexLoadFuzzTest::index_ = nullptr;
std::string* IndexLoadFuzzTest::path_ = nullptr;
std::vector<unsigned char>* IndexLoadFuzzTest::bytes_ = nullptr;

TEST_F(IndexLoadFuzzTest, BoundaryLayoutMatchesTheFile) {
  // The offsets above must describe the actual serialized layout, or
  // every other test here fuzzes the wrong positions.
  EXPECT_EQ(SectionBoundaries().back(), bytes_->size());
}

TEST_F(IndexLoadFuzzTest, TruncationAtAndAroundEveryBoundary) {
  ExpectOnlyTheWholeFileLoads(BoundaryLengths(), /*out_of_core=*/false);
}

TEST_F(IndexLoadFuzzTest, TruncationSweepAcrossInteriorOffsets) {
  // A coarse prime-stride sweep over interior cut points (the
  // boundaries test covers the exact edges).
  std::vector<size_t> lengths;
  for (size_t len = 1; len < bytes_->size(); len += 997) {
    lengths.push_back(len);
  }
  ExpectOnlyTheWholeFileLoads(lengths, /*out_of_core=*/false);
}

TEST_F(IndexLoadFuzzTest, CorruptHeaderFieldsRejectCleanly) {
  const std::string cut = ::testing::TempDir() + "/fuzz_corrupt.cagra";
  struct Corruption {
    const char* what;
    size_t offset;       ///< byte offset of the u64 to overwrite
    uint64_t value;
  };
  const std::vector<Corruption> cases = {
      {"magic", 0, 0xdeadbeefull},
      {"huge rows", 8, 1ull << 40},
      {"huge dim", 16, 1ull << 40},
      {"huge degree", 24, 1ull << 40},
      {"unknown metric", 32, 17},
      {"unknown flags", GraphEndOffset(), 0xffull},
      // rows overflow bait: rows * (dim + degree) wrapping u64 must
      // still be caught by the division-form size check.
      {"overflow rows", 8, (1ull << 63) / 13},
  };
  for (const Corruption& c : cases) {
    SCOPED_TRACE(c.what);
    std::vector<unsigned char> mutated = *bytes_;
    ASSERT_LE(c.offset + sizeof(uint64_t), mutated.size());
    std::memcpy(mutated.data() + c.offset, &c.value, sizeof(c.value));
    WritePrefix(cut, mutated, mutated.size());
    auto loaded = CagraIndex::Load(cut);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  }
  std::remove(cut.c_str());
}

TEST_F(IndexLoadFuzzTest, OutOfCoreTruncationFollowsTheSameContract) {
  // The out-of-core open mode maps the dataset section instead of
  // reading it, but its failure contract is Load's: never a crash or a
  // mapping past EOF (which would defer the failure to a SIGBUS at
  // first row touch).
  std::vector<size_t> lengths = BoundaryLengths();
  for (size_t len = 1; len < bytes_->size(); len += 2503) {
    lengths.push_back(len);
  }
  ExpectOnlyTheWholeFileLoads(lengths, /*out_of_core=*/true);
}

TEST_F(IndexLoadFuzzTest, OutOfCoreLoadMatchesResidentLoad) {
  // Beyond not-crashing: the mapped open of the intact file must yield
  // an index that searches identically to the resident load.
  auto resident = CagraIndex::Load(*path_);
  auto mapped = CagraIndex::LoadOutOfCore(*path_);
  ASSERT_TRUE(resident.ok());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  auto data = GenerateDataset(*FindProfile("DEEP-1M"), 300, 4, 913);
  SearchParams sp;
  sp.k = 5;
  sp.rerank = 16;
  auto a = Search(*resident, data.queries, sp);
  auto b = Search(*mapped, data.queries, sp);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->neighbors.ids, b->neighbors.ids);
  EXPECT_EQ(a->neighbors.distances, b->neighbors.distances);
}

TEST_F(IndexLoadFuzzTest, RowCountPastTheIdLimitRejects) {
  // A 48-byte file: the header claims 2^40 rows of dim 0 and degree 0,
  // so every section is empty and the flags word follows at once. No
  // section check can see the lie; the row count itself must fail, as
  // Build, FromGraph and Add refuse more than kMaxDatasetSize rows.
  // rows, dim, degree, metric, flags
  const uint64_t fields[5] = {1ull << 40, 0, 0, 0, 0};
  std::vector<unsigned char> forged(bytes_->begin(), bytes_->begin() + 8);
  forged.resize(8 + sizeof(fields));
  std::memcpy(forged.data() + 8, fields, sizeof(fields));  // after the magic
  const std::string cut = ::testing::TempDir() + "/fuzz_rows.cagra";
  WritePrefix(cut, forged, forged.size());
  for (const bool out_of_core : {false, true}) {
    SCOPED_TRACE(out_of_core ? "out-of-core" : "resident");
    auto loaded = out_of_core ? CagraIndex::LoadOutOfCore(cut)
                              : CagraIndex::Load(cut);
    ASSERT_FALSE(loaded.ok()) << "size " << loaded->size();
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  }
  std::remove(cut.c_str());
}

TEST_F(IndexLoadFuzzTest, EmptyAndHeaderOnlyFilesReject) {
  const std::string cut = ::testing::TempDir() + "/fuzz_tiny.cagra";
  for (size_t len : {size_t{0}, size_t{1}, size_t{8}, size_t{39}}) {
    SCOPED_TRACE(len);
    WritePrefix(cut, *bytes_, len);
    auto loaded = CagraIndex::Load(cut);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  }
  std::remove(cut.c_str());
}

}  // namespace
}  // namespace cagra
