#include "core/spill/spill_file.h"

#include <cstdio>
#include <cstring>
#include <sstream>

#include "core/execution_guard.h"
#include "util/hashing.h"

namespace ssjoin::spill {
namespace {

constexpr char kMagic[4] = {'S', 'S', 'P', 'L'};
constexpr uint64_t kChecksumSeed = 0x5353504cu;  // "SSPL"
constexpr size_t kBlockHeaderBytes = 4 + 8;      // u32 count + u64 checksum

void PutU32(uint32_t v, unsigned char* out) {
  out[0] = static_cast<unsigned char>(v);
  out[1] = static_cast<unsigned char>(v >> 8);
  out[2] = static_cast<unsigned char>(v >> 16);
  out[3] = static_cast<unsigned char>(v >> 24);
}

void PutU64(uint64_t v, unsigned char* out) {
  PutU32(static_cast<uint32_t>(v), out);
  PutU32(static_cast<uint32_t>(v >> 32), out + 4);
}

uint32_t GetU32(const unsigned char* in) {
  return static_cast<uint32_t>(in[0]) | (static_cast<uint32_t>(in[1]) << 8) |
         (static_cast<uint32_t>(in[2]) << 16) |
         (static_cast<uint32_t>(in[3]) << 24);
}

uint64_t GetU64(const unsigned char* in) {
  return static_cast<uint64_t>(GetU32(in)) |
         (static_cast<uint64_t>(GetU32(in + 4)) << 32);
}

Status CorruptError(const std::string& path, const char* what) {
  std::ostringstream os;
  os << "corrupt spill file " << path << ": " << what;
  return Status::IOError(os.str());
}

// The single fwrite funnel: consults the fault seam, then requires the
// full byte count. An injected short write really writes half the
// payload first, so recovery tests exercise a genuinely torn file.
Status CheckedWrite(std::FILE* file, const std::string& path,
                    const unsigned char* data, size_t size,
                    uint64_t* bytes_written) {
#ifdef SSJOIN_FAULT_INJECT
  if (auto injected = fault::ConsumeIo(fault::IoOp::kWrite)) {
    if (*injected == fault::IoFault::kEnospc) {
      std::ostringstream os;
      os << "write " << path << ": No space left on device (injected)";
      return Status::IOError(os.str());
    }
    if (*injected == fault::IoFault::kShortWrite) {
      size_t half = size / 2;
      size_t wrote = std::fwrite(data, 1, half, file);
      *bytes_written += wrote;
      std::ostringstream os;
      os << "short write to " << path << ": wrote " << wrote << " of " << size
         << " bytes (injected)";
      return Status::IOError(os.str());
    }
  }
#endif
  size_t wrote = std::fwrite(data, 1, size, file);
  *bytes_written += wrote;
  if (wrote != size) {
    std::ostringstream os;
    os << "short write to " << path << ": wrote " << wrote << " of " << size
       << " bytes";
    return Status::IOError(os.str());
  }
  return Status::OK();
}

}  // namespace

uint64_t BlockChecksum(const Posting* postings, size_t count) {
  uint64_t h = kChecksumSeed;
  for (size_t i = 0; i < count; ++i) {
    h = HashCombine(h, postings[i].first);
    h = HashCombine(h, static_cast<uint64_t>(postings[i].second));
  }
  return h;
}

SpillFileWriter::~SpillFileWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);  // ssjoin-lint: allow(no-unchecked-io)
    file_ = nullptr;
  }
}

SpillFileWriter::SpillFileWriter(SpillFileWriter&& other) noexcept
    : file_(other.file_),
      path_(std::move(other.path_)),
      pending_(std::move(other.pending_)),
      bytes_written_(other.bytes_written_) {
  other.file_ = nullptr;
  other.bytes_written_ = 0;
}

SpillFileWriter& SpillFileWriter::operator=(SpillFileWriter&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) {
      std::fclose(file_);  // ssjoin-lint: allow(no-unchecked-io)
    }
    file_ = other.file_;
    path_ = std::move(other.path_);
    pending_ = std::move(other.pending_);
    bytes_written_ = other.bytes_written_;
    other.file_ = nullptr;
    other.bytes_written_ = 0;
  }
  return *this;
}

Status SpillFileWriter::Open(const std::string& path) {
#ifdef SSJOIN_FAULT_INJECT
  if (auto injected = fault::ConsumeIo(fault::IoOp::kOpen)) {
    if (*injected == fault::IoFault::kFailOpen) {
      std::ostringstream os;
      os << "open " << path << " for writing failed (injected)";
      return Status::IOError(os.str());
    }
  }
#endif
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    std::ostringstream os;
    os << "cannot open " << path << " for writing";
    return Status::IOError(os.str());
  }
  path_ = path;
  pending_.reserve(kBlockPostings);
  unsigned char header[kHeaderBytes];
  std::memcpy(header, kMagic, sizeof(kMagic));
  PutU32(kSpillFormatVersion, header + 4);
  return CheckedWrite(file_, path_, header, sizeof(header), &bytes_written_);
}

Status SpillFileWriter::Append(Signature signature, SetId id) {
  pending_.emplace_back(signature, id);
  if (pending_.size() >= kBlockPostings) {
    return FlushBlock();
  }
  return Status::OK();
}

Status SpillFileWriter::FlushBlock() {
  if (pending_.empty()) return Status::OK();
  const size_t count = pending_.size();
  std::vector<unsigned char> block(kBlockHeaderBytes + count * kRecordBytes);
  PutU32(static_cast<uint32_t>(count), block.data());
  PutU64(BlockChecksum(pending_.data(), count), block.data() + 4);
  unsigned char* out = block.data() + kBlockHeaderBytes;
  for (const auto& [sig, id] : pending_) {
    PutU64(sig, out);
    PutU32(id, out + 8);
    out += kRecordBytes;
  }
  pending_.clear();
  return CheckedWrite(file_, path_, block.data(), block.size(),
                      &bytes_written_);
}

Status SpillFileWriter::Finish() {
  if (file_ == nullptr) return Status::OK();
  SSJOIN_RETURN_NOT_OK(FlushBlock());
  int flush_rc = std::fflush(file_);
  int close_rc = std::fclose(file_);
  file_ = nullptr;
  if (flush_rc != 0 || close_rc != 0) {
    std::ostringstream os;
    os << "flush/close " << path_ << " failed";
    return Status::IOError(os.str());
  }
  return Status::OK();
}

Result<std::vector<Posting>> SpillFileReader::ReadAll(
    const std::string& path, uint64_t* bytes_read) {
#ifdef SSJOIN_FAULT_INJECT
  if (auto injected = fault::ConsumeIo(fault::IoOp::kOpen)) {
    if (*injected == fault::IoFault::kFailOpen) {
      std::ostringstream os;
      os << "open " << path << " for reading failed (injected)";
      return Status::IOError(os.str());
    }
  }
#endif
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    std::ostringstream os;
    os << "cannot open " << path << " for reading";
    return Status::IOError(os.str());
  }
  // Single-exit via `fail` so the handle is closed on every path.
  Status status = Status::OK();
  std::vector<Posting> postings;
  uint64_t file_bytes = 0;
  bool size_known = false;
  if (std::fseek(file, 0, SEEK_END) == 0) {
    long end = std::ftell(file);
    if (end >= 0 && std::fseek(file, 0, SEEK_SET) == 0) {
      file_bytes = static_cast<uint64_t>(end);
      size_known = true;
    }
  }
  if (!size_known) {
    status = CorruptError(path, "cannot determine file size");
  }
  if (status.ok() && file_bytes < kHeaderBytes) {
    status = CorruptError(path, "truncated header");
  }
  unsigned char header[kHeaderBytes];
  if (status.ok()) {
    if (std::fread(header, 1, sizeof(header), file) != sizeof(header)) {
      status = CorruptError(path, "truncated header");
    } else if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
      status = CorruptError(path, "bad magic");
    } else if (GetU32(header + 4) != kSpillFormatVersion) {
      status = CorruptError(path, "unsupported version");
    }
  }
  uint64_t remaining = status.ok() ? file_bytes - kHeaderBytes : 0;
  std::vector<unsigned char> block;
  while (status.ok() && remaining > 0) {
    if (remaining < kBlockHeaderBytes) {
      status = CorruptError(path, "truncated block header");
      break;
    }
    unsigned char block_header[kBlockHeaderBytes];
    if (std::fread(block_header, 1, sizeof(block_header), file) !=
        sizeof(block_header)) {
      status = CorruptError(path, "truncated block header");
      break;
    }
    remaining -= kBlockHeaderBytes;
    const uint32_t count = GetU32(block_header);
    const uint64_t expected_checksum = GetU64(block_header + 4);
    // Validate the length prefix against the bytes actually left before
    // allocating anything: a corrupt count never drives an allocation.
    if (count == 0 || count > kBlockPostings ||
        remaining < static_cast<uint64_t>(count) * kRecordBytes) {
      status = CorruptError(path, "invalid block length");
      break;
    }
    const size_t block_bytes = static_cast<size_t>(count) * kRecordBytes;
    block.resize(block_bytes);
    if (std::fread(block.data(), 1, block_bytes, file) != block_bytes) {
      status = CorruptError(path, "truncated block payload");
      break;
    }
    remaining -= block_bytes;
#ifdef SSJOIN_FAULT_INJECT
    if (auto injected = fault::ConsumeIo(fault::IoOp::kRead)) {
      if (*injected == fault::IoFault::kCorruptRead) {
        block[block_bytes / 2] ^= 0x40;  // one flipped bit, mid-payload
      }
    }
#endif
    const size_t base = postings.size();
    postings.resize(base + count);
    const unsigned char* in = block.data();
    for (uint32_t i = 0; i < count; ++i) {
      postings[base + i] = {GetU64(in), GetU32(in + 8)};
      in += kRecordBytes;
    }
    if (BlockChecksum(postings.data() + base, count) != expected_checksum) {
      status = CorruptError(path, "block checksum mismatch");
      break;
    }
  }
  std::fclose(file);  // ssjoin-lint: allow(no-unchecked-io)
  if (!status.ok()) return status;
  if (bytes_read != nullptr) *bytes_read += file_bytes;
  return postings;
}

}  // namespace ssjoin::spill
