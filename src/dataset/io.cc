#include "dataset/io.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "util/fault_injection.h"

namespace cagra {

bool FileByteSize(std::FILE* f, uint64_t* size) {
  const int fd = fileno(f);
  struct stat st;
  if (fd < 0 || fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) return false;
  *size = static_cast<uint64_t>(st.st_size);
  return true;
}

namespace {

/// Reads vecs-format rows of `elem_size`-byte elements into `out` (resized
/// by the caller-provided append function). The per-row dim header is
/// untrusted input: it must be positive, consistent across rows, and
/// small enough that the row it promises actually fits in the file —
/// otherwise a corrupt header would drive a zero-progress read loop
/// (d == 0) or a multi-gigabyte row_buf allocation (huge d) before the
/// truncation was ever noticed.
template <typename T, typename Widen>
Result<Matrix<T>> ReadVecs(const std::string& path, size_t elem_size,
                           size_t max_rows, Widen widen) {
  CAGRA_RETURN_IF_ERROR(CAGRA_FAULT_STATUS("io_read"));
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IoError("cannot open " + path);
  // When the size is unavailable (non-seekable stream: pipe, FIFO),
  // skip the plausibility check and rely on the per-row truncation
  // errors rather than refusing a readable stream. The per-row checks
  // carry the full validation load there, which is why the header read
  // below distinguishes clean EOF from torn trailing bytes and the row
  // read is chunked instead of trusting the header with one huge
  // allocation.
  uint64_t file_size = 0;
  const bool have_size = FileByteSize(f.get(), &file_size);

  // Upper bound on the staging buffer: rows stream through in chunks
  // (a multiple of every elem_size used here), so an absurd dim from a
  // corrupt header on an unsized stream costs at most one chunk before
  // the truncated read surfaces.
  constexpr size_t kRowChunkBytes = 1ull << 20;

  std::vector<T> data;
  std::vector<unsigned char> row_buf;
  size_t dim = 0;
  size_t rows = 0;
  while (max_rows == 0 || rows < max_rows) {
    int32_t d = 0;
    const size_t got = std::fread(&d, 1, sizeof(d), f.get());
    if (got == 0) break;  // clean EOF at a row boundary
    if (got != sizeof(d)) {
      // 1-3 trailing bytes: a torn header, not a row boundary. The old
      // item-count fread conflated the two and silently returned a
      // truncated matrix.
      return Status::IoError(path + ": truncated row header");
    }
    if (d <= 0) return Status::IoError(path + ": non-positive row dim");
    if (dim == 0) {
      dim = static_cast<size_t>(d);
      // Header sanity: the first row it promises must fit in the file
      // (the rule holds for later rows too, since every row re-reads
      // the same dim and a short read fails as a truncated row below).
      if (have_size && static_cast<uint64_t>(dim) * elem_size >
                           file_size - sizeof(d)) {
        return Status::IoError(path + ": row dim implausible for file size");
      }
    } else if (dim != static_cast<size_t>(d)) {
      return Status::IoError(path + ": inconsistent row dims");
    }
    const uint64_t row_bytes = static_cast<uint64_t>(dim) * elem_size;
    row_buf.resize(static_cast<size_t>(
        std::min<uint64_t>(row_bytes, kRowChunkBytes)));
    uint64_t remaining = row_bytes;
    while (remaining > 0) {
      const size_t take = static_cast<size_t>(
          std::min<uint64_t>(remaining, row_buf.size()));
      if (std::fread(row_buf.data(), 1, take, f.get()) != take) {
        return Status::IoError(path + ": truncated row");
      }
      for (size_t j = 0; j < take / elem_size; j++) {
        data.push_back(widen(row_buf.data() + j * elem_size));
      }
      remaining -= take;
    }
    rows++;
  }
  if (rows == 0) return Status::IoError(path + ": empty file");

  Matrix<T> m(rows, dim);
  std::copy(data.begin(), data.end(), m.mutable_data()->begin());
  return m;
}

template <typename T>
Status WriteVecs(const std::string& path, const Matrix<T>& m) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IoError("cannot open " + path + " for writing");
  const int32_t d = static_cast<int32_t>(m.dim());
  for (size_t i = 0; i < m.rows(); i++) {
    if (std::fwrite(&d, sizeof(d), 1, f.get()) != 1 ||
        std::fwrite(m.Row(i), sizeof(T), m.dim(), f.get()) != m.dim()) {
      return Status::IoError(path + ": short write");
    }
  }
  // fwrite only fills the stdio buffer; the write(2) that can hit a full
  // disk happens at flush/close, and the close in the deleter cannot
  // report it. Flush here so ENOSPC surfaces as a Status instead of a
  // silently torn file.
  if (std::fflush(f.get()) != 0) {
    return Status::IoError(path + ": flush failed");
  }
  return Status::Ok();
}

}  // namespace

Result<Matrix<float>> ReadFvecs(const std::string& path, size_t max_rows) {
  return ReadVecs<float>(path, sizeof(float), max_rows,
                         [](const unsigned char* p) {
                           float v;
                           std::memcpy(&v, p, sizeof(v));
                           return v;
                         });
}

Status WriteFvecs(const std::string& path, const Matrix<float>& m) {
  return WriteVecs(path, m);
}

Result<Matrix<uint32_t>> ReadIvecs(const std::string& path, size_t max_rows) {
  return ReadVecs<uint32_t>(path, sizeof(uint32_t), max_rows,
                            [](const unsigned char* p) {
                              uint32_t v;
                              std::memcpy(&v, p, sizeof(v));
                              return v;
                            });
}

Status WriteIvecs(const std::string& path, const Matrix<uint32_t>& m) {
  return WriteVecs(path, m);
}

Result<Matrix<float>> ReadBvecsAsFloat(const std::string& path,
                                       size_t max_rows) {
  return ReadVecs<float>(path, 1, max_rows, [](const unsigned char* p) {
    return static_cast<float>(*p);
  });
}

}  // namespace cagra
