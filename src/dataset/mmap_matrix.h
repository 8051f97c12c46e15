#ifndef CAGRA_DATASET_MMAP_MATRIX_H_
#define CAGRA_DATASET_MMAP_MATRIX_H_

#include <cstddef>
#include <cstdint>

#include "util/status.h"

namespace cagra {

/// Read-only memory mapping of a whole file. The mapping is advised
/// MADV_RANDOM on open: out-of-core search touches rows in candidate
/// order, so the kernel's sequential readahead would only evict the
/// pages that matter. All offsets are 64-bit end to end — the mapped
/// regime is exactly the one where files outgrow `long`.
///
/// Open maps a descriptor the caller already holds (and still owns), so
/// the mapping is of the very file the caller opened, whatever its path
/// names by then. Open failures (not a regular file, empty file, mmap
/// refusal) surface as a clean kIoError; no partial state escapes. The
/// handle is move-only — it owns the mapping — and unmaps on
/// destruction; the mapping keeps the file alive after its descriptor
/// is closed.
class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile();
  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  [[nodiscard]] static Result<MmapFile> Open(int fd);

  bool empty() const { return addr_ == nullptr; }
  const unsigned char* data() const {
    return static_cast<const unsigned char*>(addr_);
  }
  uint64_t size() const { return size_; }

  /// Hints the kernel to start reading the byte range [offset,
  /// offset + length) into the page cache (MADV_WILLNEED). The range is
  /// clamped to the mapping and page-aligned internally; a no-op on
  /// platforms without madvise. Advisory only — never fails.
  void WillNeed(uint64_t offset, uint64_t length) const;

 private:
  void* addr_ = nullptr;
  uint64_t size_ = 0;
};

/// Row-major fp32 matrix view over a byte range of a mapped file: the
/// out-of-core storage tier. The graph and compressed (PQ) copies stay
/// RAM-resident; only the full-precision rows live here, touched by the
/// top-r rerank and fp32 traversal. Rows need only float alignment, so
/// the view can start at any 4-byte-aligned offset (the index header is
/// 40 bytes) without per-row copies.
class MmapMatrix {
 public:
  MmapMatrix() = default;

  /// Maps the file open on `fd` and validates — with overflow-checked
  /// 64-bit arithmetic — that rows x dim floats starting at
  /// `byte_offset` fit inside it. A truncated or torn file fails here
  /// with kIoError, before any row is ever dereferenced.
  [[nodiscard]] static Result<MmapMatrix> Open(int fd, size_t rows,
                                               size_t dim,
                                               uint64_t byte_offset);

  size_t rows() const { return rows_; }
  size_t dim() const { return dim_; }
  bool empty() const { return rows_ == 0; }

  const float* Row(size_t i) const { return data_ + i * dim_; }
  const float* data() const { return data_; }
  size_t RowBytes() const { return dim_ * sizeof(float); }

  /// Lookahead prefetch for a rerank candidate list: sorts the ids,
  /// coalesces their pages into runs, and issues one MADV_WILLNEED per
  /// run so the kernel reads ahead while earlier candidates are being
  /// rescored. Ids >= rows() (the kInvalidEntry padding) are skipped.
  /// Purely advisory; safe from concurrent threads.
  void PrefetchRows(const uint32_t* ids, size_t n) const;

 private:
  MmapFile file_;
  const float* data_ = nullptr;
  size_t rows_ = 0;
  size_t dim_ = 0;
  uint64_t byte_offset_ = 0;
};

}  // namespace cagra

#endif  // CAGRA_DATASET_MMAP_MATRIX_H_
