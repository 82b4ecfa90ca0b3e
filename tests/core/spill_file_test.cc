// Spill-file format coverage (ctest label `spill`; DESIGN.md Section
// 12): roundtrips across block boundaries, and the failure-first reader
// contract — truncation, bad magic, bad version, torn blocks, and
// bit-flips must every one surface as a structured kIOError, never as
// garbage postings or an oversized allocation.

#include "core/spill/spill_file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "util/temp_dir.h"

namespace ssjoin::spill {
namespace {

class SpillFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<util::ScopedTempDir> dir = util::ScopedTempDir::Create();
    ASSERT_TRUE(dir.ok()) << dir.status().ToString();
    dir_ = std::move(dir.value());
  }

  std::string Path(const char* name) { return dir_.FilePath(name); }

  static std::vector<Posting> MakePostings(size_t n) {
    std::vector<Posting> postings;
    postings.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      postings.emplace_back(Signature{0x9e3779b97f4a7c15ull * (i + 1)},
                            static_cast<SetId>(i));
    }
    return postings;
  }

  // Writes `postings` to `path` through the production writer.
  static uint64_t Write(const std::string& path,
                        const std::vector<Posting>& postings) {
    SpillFileWriter writer;
    EXPECT_TRUE(writer.Open(path).ok());
    for (const Posting& p : postings) {
      EXPECT_TRUE(writer.Append(p.first, p.second).ok());
    }
    EXPECT_TRUE(writer.Finish().ok());
    return writer.bytes_written();
  }

  static std::string ReadBytes(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::string bytes;
    char buf[4096];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.append(buf, n);
    }
    EXPECT_EQ(std::fclose(f), 0);
    return bytes;
  }

  static void WriteBytes(const std::string& path, const std::string& bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    ASSERT_EQ(std::fclose(f), 0);
  }

  util::ScopedTempDir dir_;
};

TEST_F(SpillFileTest, EmptyFileRoundtrips) {
  std::string path = Path("empty.spill");
  uint64_t written = Write(path, {});
  EXPECT_EQ(written, kHeaderBytes);
  uint64_t read = 0;
  Result<std::vector<Posting>> got =
      SpillFileReader::ReadAll(path, &read);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got.value().empty());
  EXPECT_EQ(read, kHeaderBytes);
}

TEST_F(SpillFileTest, RoundtripsAcrossBlockBoundaries) {
  // One posting, exactly one block, one-past-a-block, and several
  // blocks: the boundary cases of the tail-block flush.
  for (size_t n : {size_t{1}, kBlockPostings, kBlockPostings + 1,
                   3 * kBlockPostings + 17}) {
    // Built with += rather than operator+: GCC 12's -Wrestrict falsely
    // fires on the string operator+ chains under -O2 (PR 105329).
    std::string name = "n";
    name += std::to_string(n);
    name += ".spill";
    std::string path = Path(name.c_str());
    std::vector<Posting> postings = MakePostings(n);
    uint64_t written = Write(path, postings);
    uint64_t read = 0;
    Result<std::vector<Posting>> got =
        SpillFileReader::ReadAll(path, &read);
    ASSERT_TRUE(got.ok()) << "n=" << n << ": " << got.status().ToString();
    EXPECT_EQ(got.value(), postings) << "n=" << n;
    EXPECT_EQ(read, written) << "n=" << n;
    EXPECT_GE(written, kHeaderBytes + n * kRecordBytes) << "n=" << n;
  }
}

TEST_F(SpillFileTest, BadMagicIsRejected) {
  std::string path = Path("magic.spill");
  Write(path, MakePostings(3));
  std::string bytes = ReadBytes(path);
  bytes[0] = 'X';
  WriteBytes(path, bytes);
  Result<std::vector<Posting>> got =
      SpillFileReader::ReadAll(path, nullptr);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
}

TEST_F(SpillFileTest, WrongVersionIsRejected) {
  std::string path = Path("version.spill");
  Write(path, MakePostings(3));
  std::string bytes = ReadBytes(path);
  bytes[4] = static_cast<char>(kSpillFormatVersion + 1);
  WriteBytes(path, bytes);
  Result<std::vector<Posting>> got =
      SpillFileReader::ReadAll(path, nullptr);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
}

TEST_F(SpillFileTest, TruncationAnywhereIsRejected) {
  std::string path = Path("trunc.spill");
  Write(path, MakePostings(kBlockPostings + 5));
  std::string bytes = ReadBytes(path);
  // Chop the file at a spread of points: inside the header, inside a
  // block header, mid-record, and one byte short of complete.
  for (size_t cut : {size_t{3}, kHeaderBytes + 2, kHeaderBytes + 12 + 5,
                     bytes.size() - 1}) {
    WriteBytes(path, bytes.substr(0, cut));
    Result<std::vector<Posting>> got =
        SpillFileReader::ReadAll(path, nullptr);
    ASSERT_FALSE(got.ok()) << "cut=" << cut;
    EXPECT_EQ(got.status().code(), StatusCode::kIOError) << "cut=" << cut;
  }
}

TEST_F(SpillFileTest, OversizedBlockCountIsRejectedBeforeAllocation) {
  std::string path = Path("hugecount.spill");
  Write(path, MakePostings(4));
  std::string bytes = ReadBytes(path);
  // Forge the first block's count to UINT32_MAX: the reader must reject
  // the length prefix against the bytes remaining, not allocate 48 GiB.
  for (size_t i = 0; i < 4; ++i) bytes[kHeaderBytes + i] = '\xff';
  WriteBytes(path, bytes);
  Result<std::vector<Posting>> got =
      SpillFileReader::ReadAll(path, nullptr);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
}

TEST_F(SpillFileTest, BitFlipInPayloadFailsChecksum) {
  std::string path = Path("flip.spill");
  Write(path, MakePostings(64));
  std::string bytes = ReadBytes(path);
  bytes[bytes.size() / 2] ^= 0x10;
  WriteBytes(path, bytes);
  Result<std::vector<Posting>> got =
      SpillFileReader::ReadAll(path, nullptr);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
  EXPECT_NE(got.status().message().find("checksum"), std::string::npos)
      << got.status().ToString();
}

TEST_F(SpillFileTest, ChecksumDependsOnOrderAndCount) {
  std::vector<Posting> a = MakePostings(8);
  std::vector<Posting> b = a;
  std::swap(b[0], b[1]);
  EXPECT_NE(BlockChecksum(a.data(), a.size()),
            BlockChecksum(b.data(), b.size()));
  EXPECT_NE(BlockChecksum(a.data(), a.size()),
            BlockChecksum(a.data(), a.size() - 1));
  // The seed keeps the empty/zero block away from a trivial value.
  Posting zero{0, 0};
  EXPECT_NE(BlockChecksum(&zero, 1), 0u);
}

TEST_F(SpillFileTest, FinishIsIdempotent) {
  SpillFileWriter writer;
  ASSERT_TRUE(writer.Open(Path("idem.spill")).ok());
  ASSERT_TRUE(writer.Append(1, 2).ok());
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_TRUE(writer.Finish().ok());
  uint64_t after = writer.bytes_written();
  EXPECT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.bytes_written(), after);
}

TEST_F(SpillFileTest, MissingFileIsAnError) {
  Result<std::vector<Posting>> got =
      SpillFileReader::ReadAll(Path("does-not-exist.spill"), nullptr);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace ssjoin::spill
