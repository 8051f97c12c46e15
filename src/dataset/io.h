#ifndef CAGRA_DATASET_IO_H_
#define CAGRA_DATASET_IO_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dataset/matrix.h"
#include "util/status.h"

namespace cagra {

/// Owning stdio stream: closes on destruction. The close cannot report
/// an error, so writers flush (and check) before they return Ok().
struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Readers/writers for the TEXMEX vector formats used by the paper's
/// datasets (http://corpus-texmex.irisa.fr/): each row is a little-endian
/// int32 dimension followed by `dim` elements. `.fvecs` holds float32,
/// `.ivecs` int32 (ground-truth ids), `.bvecs` uint8.
///
/// These let users drop in the real SIFT/GIST/DEEP files; the benches fall
/// back to synthetic profiles when no files are present.
[[nodiscard]] Result<Matrix<float>> ReadFvecs(const std::string& path,
                                size_t max_rows = 0);
[[nodiscard]] Status WriteFvecs(const std::string& path, const Matrix<float>& m);

[[nodiscard]] Result<Matrix<uint32_t>> ReadIvecs(const std::string& path,
                                   size_t max_rows = 0);
[[nodiscard]] Status WriteIvecs(const std::string& path, const Matrix<uint32_t>& m);

/// Reads `.bvecs` (uint8 rows) widened to float.
[[nodiscard]] Result<Matrix<float>> ReadBvecsAsFloat(const std::string& path,
                                       size_t max_rows = 0);

/// 64-bit byte size of an open stdio stream, via fstat on its
/// descriptor: no seeking (so the stream position is untouched) and no
/// `long` anywhere, so files past 2 GiB report correctly even on LLP64
/// platforms where std::ftell tops out. Returns false — "size
/// unavailable" — for non-regular files (pipes, FIFOs, sockets), whose
/// st_size is meaningless; callers fall back to per-read validation.
[[nodiscard]] bool FileByteSize(std::FILE* f, uint64_t* size);

}  // namespace cagra

#endif  // CAGRA_DATASET_IO_H_
