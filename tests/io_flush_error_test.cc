// Regression test: every file writer must surface a failed write as
// kIoError instead of returning Ok() on a torn file. Small payloads fit
// entirely in the stdio buffer, so every fwrite "succeeds" and the
// first real write(2) happens at flush time — exactly the case the
// library used to get wrong (the deleter's fclose swallowed the error).
//
// /dev/full gives the deterministic failure: writes to it fail with
// ENOSPC at the syscall, so a checked fflush is the only thing standing
// between the caller and a silent data loss. Skipped where the device
// does not exist (non-Linux).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/index.h"
#include "dataset/io.h"
#include "dataset/matrix.h"
#include "util/status.h"

namespace cagra {
namespace {

bool HaveDevFull() {
  std::FILE* f = std::fopen("/dev/full", "wb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

Matrix<float> SmallMatrix(size_t rows = 4) {
  Matrix<float> m(rows, 8);
  for (size_t i = 0; i < m.rows(); i++) {
    for (size_t j = 0; j < m.dim(); j++) {
      m.MutableRow(i)[j] = static_cast<float>((i * 7 + j * 3) % 11);
    }
  }
  return m;
}

TEST(IoFlushErrorTest, WriteFvecsReportsFullDisk) {
  if (!HaveDevFull()) GTEST_SKIP() << "/dev/full not available";
  const Status s = WriteFvecs("/dev/full", SmallMatrix());
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(IoFlushErrorTest, WriteIvecsReportsFullDisk) {
  if (!HaveDevFull()) GTEST_SKIP() << "/dev/full not available";
  Matrix<uint32_t> m(2, 4);
  const Status s = WriteIvecs("/dev/full", m);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

// CagraIndex::Save writes a new file and renames it over its target,
// so a full disk cannot tear the old file (cagra_index_test covers the
// failed write). Its contract here is the target: a path that exists
// but is not a regular file — a device, a FIFO, a symlink — is refused
// with kIoError before anything is created beside it.
TEST(IoFlushErrorTest, IndexSaveRefusesANonRegularTarget) {
  BuildParams params;
  params.graph_degree = 4;
  auto index = CagraIndex::Build(SmallMatrix(64), params);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  if (HaveDevFull()) {
    const Status s = index->Save("/dev/full");
    EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
  }

  std::string dir = ::testing::TempDir() + "/io_flush_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string fifo = dir + "/fifo";
  const std::string link = dir + "/link";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  ASSERT_EQ(::symlink("target.cagra", link.c_str()), 0);
  for (const std::string& target : {fifo, link}) {
    SCOPED_TRACE(target);
    const Status s = index->Save(target);
    EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
  }
  std::vector<std::string> left;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    left.push_back(entry.path().filename().string());
  }
  std::sort(left.begin(), left.end());
  EXPECT_EQ(left, (std::vector<std::string>{"fifo", "link"}));
  std::filesystem::remove_all(dir);
}

// The fix must not regress the success path: a normal save still
// round-trips.
TEST(IoFlushErrorTest, NormalWriteStillSucceeds) {
  const std::string path = ::testing::TempDir() + "/io_flush_ok.fvecs";
  ASSERT_TRUE(WriteFvecs(path, SmallMatrix()).ok());
  auto back = ReadFvecs(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->rows(), 4u);
  EXPECT_EQ(back->dim(), 8u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cagra
