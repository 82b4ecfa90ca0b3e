// The checksummed on-disk posting format of the spill layer.
//
// A spill file holds one partition's (signature, set id) postings, in
// the order the streaming writer produced them (set order). The format
// is failure-first, following the hardened reader discipline of
// data/serialization.cc: an 8-byte header (magic "SSPL" + version),
// then length-prefixed blocks
//
//   [u32 count][u64 checksum][count x (u64 signature, u32 set id)]
//
// with every count validated against the bytes actually remaining
// before any allocation, and every block checksum re-derived on read —
// a truncated, torn, or bit-flipped file surfaces as a structured
// kIOError, never as garbage postings. All integers are little-endian
// via explicit byte packing, so the files are portable scratch (not
// that they ever outlive the join: core/spill deletes them via
// util::ScopedTempDir on every exit path).
//
// Every Open/Write/Read consults the fault::ConsumeIo seam first, so
// tests script short writes, ENOSPC, and corrupt reads at runtime
// (core/execution_guard.h FaultPlan) without touching the filesystem
// semantics below.

#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/types.h"
#include "util/status.h"

namespace ssjoin::spill {

/// Bytes of one serialized posting record (u64 + u32, packed).
inline constexpr size_t kRecordBytes = 12;
/// Maximum postings per block — bounds both the writer's buffering and
/// the reader's per-block allocation.
inline constexpr size_t kBlockPostings = 4096;
/// Serialized header: "SSPL" + u32 version.
inline constexpr size_t kHeaderBytes = 8;
inline constexpr uint32_t kSpillFormatVersion = 1;

/// \brief Buffered, checksummed writer for one spill partition file.
///
/// Append() buffers postings and flushes full blocks; Finish() flushes
/// the tail block and closes. Every I/O result is checked: a short
/// write, ENOSPC, or flush failure returns kIOError with the path and
/// byte counts, and the file is left for the owning ScopedTempDir to
/// delete. Move-only.
class SpillFileWriter {
 public:
  SpillFileWriter() = default;
  ~SpillFileWriter();

  SpillFileWriter(SpillFileWriter&& other) noexcept;
  SpillFileWriter& operator=(SpillFileWriter&& other) noexcept;
  SpillFileWriter(const SpillFileWriter&) = delete;
  SpillFileWriter& operator=(const SpillFileWriter&) = delete;

  /// Creates/truncates `path` and writes the header.
  Status Open(const std::string& path);

  /// Buffers one posting; flushes a block when kBlockPostings are
  /// pending. Only a flush performs I/O, so most calls are a push_back.
  Status Append(Signature signature, SetId id);

  /// Flushes the partial tail block and closes the file. Idempotent;
  /// required before the file is read back.
  Status Finish();

  /// Bytes durably handed to the OS so far (header + flushed blocks).
  uint64_t bytes_written() const { return bytes_written_; }
  const std::string& path() const { return path_; }

 private:
  Status FlushBlock();

  std::FILE* file_ = nullptr;
  std::string path_;
  std::vector<Posting> pending_;
  uint64_t bytes_written_ = 0;
};

/// \brief Validating reader for one spill partition file.
class SpillFileReader {
 public:
  /// Reads every posting of `path`, validating the header, each block's
  /// length prefix against the bytes remaining, and each block's
  /// checksum. On success adds the file size to *bytes_read (may be
  /// null) and returns the postings in written order.
  static Result<std::vector<Posting>> ReadAll(const std::string& path,
                                              uint64_t* bytes_read);
};

/// The block checksum: a HashCombine fold over the records, seeded so an
/// all-zero block does not checksum to its seed.
uint64_t BlockChecksum(const Posting* postings, size_t count);

}  // namespace ssjoin::spill
