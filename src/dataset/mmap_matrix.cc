#include "dataset/mmap_matrix.h"

#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "util/fault_injection.h"

namespace cagra {

namespace {

uint64_t PageSize() {
  static const uint64_t page = []() {
    const long p = ::sysconf(_SC_PAGESIZE);
    return p > 0 ? static_cast<uint64_t>(p) : 4096ull;
  }();
  return page;
}

}  // namespace

MmapFile::~MmapFile() {
  if (addr_ != nullptr) ::munmap(addr_, static_cast<size_t>(size_));
}

MmapFile::MmapFile(MmapFile&& other) noexcept
    : addr_(other.addr_), size_(other.size_) {
  other.addr_ = nullptr;
  other.size_ = 0;
}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    if (addr_ != nullptr) ::munmap(addr_, static_cast<size_t>(size_));
    addr_ = other.addr_;
    size_ = other.size_;
    other.addr_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

Result<MmapFile> MmapFile::Open(int fd) {
  // The mmap-path sibling of the stdio readers' "io_read" fault point:
  // the robustness suite injects here to prove a failed map surfaces as
  // a clean Status on every out-of-core entry point.
  CAGRA_RETURN_IF_ERROR(CAGRA_FAULT_STATUS("io_mmap"));
  struct stat st;
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    return Status::IoError("not a mappable regular file");
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size == 0) return Status::IoError("cannot map an empty file");
  void* addr =
      ::mmap(nullptr, static_cast<size_t>(size), PROT_READ, MAP_SHARED, fd, 0);
  if (addr == MAP_FAILED) return Status::IoError("mmap failed");
  // Row fetches land wherever the candidate list points; sequential
  // readahead would fault in pages the search never reads.
  (void)::madvise(addr, static_cast<size_t>(size), MADV_RANDOM);
  MmapFile f;
  f.addr_ = addr;
  f.size_ = size;
  return f;
}

void MmapFile::WillNeed(uint64_t offset, uint64_t length) const {
  if (addr_ == nullptr || length == 0 || offset >= size_) return;
  length = std::min(length, size_ - offset);
  const uint64_t page = PageSize();
  const uint64_t begin = (offset / page) * page;
  const uint64_t end = offset + length;
  (void)::madvise(static_cast<char*>(addr_) + begin,
                  static_cast<size_t>(end - begin), MADV_WILLNEED);
}

Result<MmapMatrix> MmapMatrix::Open(int fd, size_t rows, size_t dim,
                                    uint64_t byte_offset) {
  if (rows == 0 || dim == 0) {
    return Status::InvalidArgument("cannot map an empty matrix");
  }
  if (byte_offset % alignof(float) != 0) {
    return Status::InvalidArgument("matrix offset must be float-aligned");
  }
  CAGRA_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(fd));
  // rows * dim * 4 + byte_offset <= file size, checked in division form
  // so no adversarial shape can overflow the comparison.
  if (byte_offset >= file.size()) {
    return Status::IoError("matrix offset past end of file (truncated?)");
  }
  const uint64_t payload_elems = (file.size() - byte_offset) / sizeof(float);
  if (static_cast<uint64_t>(dim) > payload_elems / rows) {
    return Status::IoError(
        "matrix shape inconsistent with file size (truncated?)");
  }
  MmapMatrix m;
  m.data_ = reinterpret_cast<const float*>(file.data() + byte_offset);
  m.file_ = std::move(file);
  m.rows_ = rows;
  m.dim_ = dim;
  m.byte_offset_ = byte_offset;
  return m;
}

void MmapMatrix::PrefetchRows(const uint32_t* ids, size_t n) const {
  if (data_ == nullptr || n == 0) return;
  std::vector<uint32_t> sorted;
  sorted.reserve(n);
  for (size_t i = 0; i < n; i++) {
    if (ids[i] < rows_) sorted.push_back(ids[i]);
  }
  if (sorted.empty()) return;
  std::sort(sorted.begin(), sorted.end());
  const uint64_t page = PageSize();
  const uint64_t row_bytes = RowBytes();
  // Walk the sorted rows, growing the current page run while each row
  // starts within (or adjacent to) it; flush one WillNeed per run.
  uint64_t run_begin = 0, run_end = 0;  // page-aligned byte range
  for (const uint32_t id : sorted) {
    const uint64_t first = byte_offset_ + id * row_bytes;
    const uint64_t begin = (first / page) * page;
    const uint64_t end = ((first + row_bytes + page - 1) / page) * page;
    if (run_end == 0) {
      run_begin = begin;
      run_end = end;
    } else if (begin <= run_end) {
      run_end = std::max(run_end, end);
    } else {
      file_.WillNeed(run_begin, run_end - run_begin);
      run_begin = begin;
      run_end = end;
    }
  }
  if (run_end != 0) file_.WillNeed(run_begin, run_end - run_begin);
}

}  // namespace cagra
