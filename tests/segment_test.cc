// The mmap-native segment format: round-trip bit-identity of the serving
// columns, query parity between a mapped view and the heap FlatDil it was
// written from (unranked + ranked, every shard count), and strict
// corruption handling (every injected fault yields a descriptive Status
// naming path, offset and section — never a crash).

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/flat_dil.h"
#include "core/query_processor.h"
#include "core/ranked_query_processor.h"
#include "core/xonto_dil.h"
#include "gtest/gtest.h"
#include "storage/coding.h"
#include "storage/segment_file.h"
#include "storage/segment_writer.h"

namespace xontorank {
namespace {

// A randomized Dewey-sorted index, same shape as flat_dil_test's.
XOntoDil RandomDil(Rng& rng, size_t num_keywords, size_t max_postings) {
  XOntoDil dil;
  for (size_t w = 0; w < num_keywords; ++w) {
    std::vector<DilPosting> postings;
    std::set<std::vector<uint32_t>> used;
    size_t n = 1 + rng.NextBelow(max_postings);
    for (size_t i = 0; i < n; ++i) {
      std::vector<uint32_t> comps{static_cast<uint32_t>(rng.NextBelow(24))};
      size_t depth = rng.NextBelow(5);
      for (size_t d = 0; d < depth; ++d) {
        comps.push_back(static_cast<uint32_t>(rng.NextBelow(4)));
      }
      if (!used.insert(comps).second) continue;
      postings.push_back(
          {DeweyId(std::move(comps)), 0.05 + 0.95 * rng.NextDouble()});
    }
    dil.Put("kw" + std::to_string(w), std::move(postings));
  }
  return dil;
}

std::string TempPath(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("xontorank_segment_test_" + std::to_string(::getpid()) + "_" +
           tag + ".xoseg"))
      .string();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

template <typename T>
void PatchAt(std::string* data, size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), data->size());
  std::memcpy(data->data() + offset, &value, sizeof(T));
}

template <typename T>
T LoadAt(const std::string& data, size_t offset) {
  T value;
  std::memcpy(&value, data.data() + offset, sizeof(T));
  return value;
}

// After tampering with the header or section table, the metadata CRC in
// the footer must be made consistent again so validation reaches the
// tampered field instead of stopping at the CRC gate.
void RepatchMetaCrc(std::string* data) {
  uint32_t crc = Crc32(std::string_view(data->data(), kSegmentTableEnd));
  std::memcpy(data->data() + data->size() - kSegmentFooterBytes, &crc,
              sizeof(crc));
}

// Re-signs one section's table CRC after tampering with its payload, so
// validation reaches the semantic checks behind the integrity gate.
void RepatchSectionCrc(std::string* data, size_t section_index) {
  size_t entry = kSegmentHeaderBytes + section_index * kSegmentTableEntryBytes;
  uint64_t offset, bytes;
  std::memcpy(&offset, data->data() + entry, sizeof(offset));
  std::memcpy(&bytes, data->data() + entry + 8, sizeof(bytes));
  uint32_t crc = Crc32(std::string_view(data->data() + offset, bytes));
  std::memcpy(data->data() + entry + 16, &crc, sizeof(crc));
}

template <typename T>
void ExpectSpanEq(std::span<const T> a, std::span<const T> b,
                  const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0)
        << what;
  }
}

// ---- Round trip: the mapped view serves the exact written columns ----

TEST(SegmentRoundTrip, SectionsBitIdentical) {
  Rng rng(7);
  FlatDil flat = RandomDil(rng, 12, 300).Freeze();
  std::string path = TempPath("roundtrip");
  ASSERT_TRUE(SaveSegment(flat, path).ok());

  auto segment = SegmentFile::Open(path);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  EXPECT_EQ((*segment)->header().keyword_count, flat.keyword_count());
  EXPECT_EQ((*segment)->header().total_postings, flat.total_postings());
  EXPECT_EQ((*segment)->header().block_count, flat.TotalBlocks());

  FlatDil view = (*segment)->MakeView();
  EXPECT_TRUE(view.is_mapped_view());
  EXPECT_FALSE(flat.is_mapped_view());
  const FlatDil::Sections& a = flat.sections();
  const FlatDil::Sections& b = view.sections();
  EXPECT_EQ(a.keyword_arena, b.keyword_arena);
  ExpectSpanEq(a.keyword_offsets, b.keyword_offsets, "keyword_offsets");
  ExpectSpanEq(a.list_begin, b.list_begin, "list_begin");
  ExpectSpanEq(a.scores, b.scores, "scores");
  ExpectSpanEq(a.shared, b.shared, "shared");
  ExpectSpanEq(a.suffix_offsets, b.suffix_offsets, "suffix_offsets");
  ExpectSpanEq(a.dewey_arena, b.dewey_arena, "dewey_arena");
  ExpectSpanEq(a.skip_first_doc, b.skip_first_doc, "skip_first_doc");
  ExpectSpanEq(a.skip_begin, b.skip_begin, "skip_begin");

  // Thawing every list through the mapped view reproduces the postings.
  for (uint32_t list = 0; list < flat.keyword_count(); ++list) {
    EXPECT_EQ(view.KeywordAt(list), flat.KeywordAt(list));
    std::vector<DilPosting> expected = flat.ThawPostings(list);
    std::vector<DilPosting> mapped = view.ThawPostings(list);
    ASSERT_EQ(expected.size(), mapped.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].dewey, mapped[i].dewey);
      EXPECT_EQ(expected[i].score, mapped[i].score);
    }
  }
  std::filesystem::remove(path);
}

TEST(SegmentRoundTrip, EncodeIsDeterministicAndSavedVerbatim) {
  Rng rng(41);
  FlatDil flat = RandomDil(rng, 5, 100).Freeze();
  std::string encoded = EncodeSegment(flat);
  EXPECT_EQ(encoded, EncodeSegment(flat));
  std::string path = TempPath("verbatim");
  ASSERT_TRUE(SaveSegment(flat, path).ok());
  EXPECT_EQ(ReadAll(path), encoded);
  std::filesystem::remove(path);
}

TEST(SegmentRoundTrip, EmptyIndex) {
  FlatDil flat = XOntoDil().Freeze();
  std::string path = TempPath("empty");
  ASSERT_TRUE(SaveSegment(flat, path).ok());
  auto segment = SegmentFile::Open(path);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  FlatDil view = (*segment)->MakeView();
  EXPECT_EQ(view.keyword_count(), 0u);
  EXPECT_EQ(view.total_postings(), 0u);
  EXPECT_EQ(view.FindList("anything"), FlatDil::kNoList);
  std::filesystem::remove(path);
}

TEST(SegmentRoundTrip, OpenMissingFileIsIoError) {
  auto segment = SegmentFile::Open("/nonexistent/path/seg-0.xoseg");
  ASSERT_FALSE(segment.ok());
  EXPECT_EQ(segment.status().code(), StatusCode::kIoError);
}

TEST(SegmentRoundTrip, SaveToUnwritablePathIsIoError) {
  EXPECT_EQ(SaveSegment(XOntoDil().Freeze(), "/nonexistent/dir/seg-0.xoseg")
                .code(),
            StatusCode::kIoError);
}

TEST(SegmentRoundTrip, MovedViewStaysBoundToMapping) {
  Rng rng(1009);
  FlatDil flat = RandomDil(rng, 4, 50).Freeze();
  std::string path = TempPath("move");
  ASSERT_TRUE(SaveSegment(flat, path).ok());
  auto segment = SegmentFile::Open(path);
  ASSERT_TRUE(segment.ok());
  FlatDil view = (*segment)->MakeView();
  FlatDil moved = std::move(view);  // move must keep aliasing the mapping
  EXPECT_TRUE(moved.is_mapped_view());
  EXPECT_EQ(moved.keyword_count(), flat.keyword_count());
  for (uint32_t list = 0; list < flat.keyword_count(); ++list) {
    EXPECT_EQ(moved.KeywordAt(list), flat.KeywordAt(list));
  }
  std::filesystem::remove(path);
}

// ---- Query parity: mapped view vs the heap FlatDil, bit for bit ----

class SegmentParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SegmentParityTest, MappedExecuteMatchesDecodedBitForBit) {
  Rng rng(GetParam());
  ThreadPool pool(4);
  std::string path = TempPath("parity" + std::to_string(GetParam()));
  for (int trial = 0; trial < 6; ++trial) {
    XOntoDil dil = RandomDil(rng, 1 + rng.NextBelow(3), 60);
    // The segment is written FROM the heap columns, so both sides of the
    // comparison carry identical doubles.
    FlatDil heap = dil.Freeze();
    ASSERT_TRUE(SaveSegment(heap, path).ok());
    auto segment = SegmentFile::Open(path);
    ASSERT_TRUE(segment.ok()) << segment.status().ToString();
    FlatDil view = (*segment)->MakeView();
    ASSERT_TRUE(view.is_mapped_view());

    ScoreOptions score;
    score.decay = 0.25 + 0.5 * rng.NextDouble();
    QueryProcessor processor(score);
    std::vector<DilListRef> heap_refs, mapped_refs;
    for (const auto& [keyword, entry] : dil.entries()) {
      (void)entry;
      uint32_t list = heap.FindList(keyword);
      ASSERT_NE(list, FlatDil::kNoList);
      ASSERT_EQ(view.FindList(keyword), list);
      heap_refs.push_back(DilListRef::OverFlat(heap, list));
      mapped_refs.push_back(DilListRef::OverFlat(view, list));
    }

    size_t top_k = rng.NextBelow(2) == 0 ? 0 : 1 + rng.NextBelow(10);
    auto expected = processor.ExecuteSegments({heap_refs}, top_k, 1, &pool);
    for (size_t num_shards : {1u, 2u, 4u, 8u}) {
      auto mapped =
          processor.ExecuteSegments({mapped_refs}, top_k, num_shards, &pool);
      ASSERT_EQ(expected.size(), mapped.size())
          << "shards=" << num_shards << " trial=" << trial;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].element, mapped[i].element)
            << "shards=" << num_shards << " trial=" << trial << " i=" << i;
        // Exact double equality: the mapped columns are byte-identical to
        // the heap ones, so the merge performs the same floating-point
        // operations in the same order.
        EXPECT_EQ(expected[i].score, mapped[i].score)
            << "shards=" << num_shards << " trial=" << trial << " i=" << i;
        EXPECT_EQ(expected[i].keyword_scores, mapped[i].keyword_scores)
            << "shards=" << num_shards << " trial=" << trial << " i=" << i;
      }
    }

    RankedQueryProcessor ranked((ScoreOptions()));
    for (size_t k : {size_t{1}, size_t{3}, size_t{10}}) {
      auto expected_ranked = ranked.Execute(heap_refs, k);
      auto mapped_ranked = ranked.Execute(mapped_refs, k);
      ASSERT_EQ(expected_ranked.size(), mapped_ranked.size())
          << "trial " << trial << " k " << k;
      for (size_t i = 0; i < expected_ranked.size(); ++i) {
        EXPECT_EQ(expected_ranked[i].element, mapped_ranked[i].element)
            << "trial " << trial << " k " << k << " i " << i;
        EXPECT_EQ(expected_ranked[i].score, mapped_ranked[i].score)
            << "trial " << trial << " k " << k << " i " << i;
      }
    }
  }
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentParityTest,
                         ::testing::Values(7, 41, 1009, 65537));

// ---- Corruption injection: descriptive Status, never a crash ----

class SegmentCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    Rng rng(65537);
    FlatDil flat = RandomDil(rng, 8, 200).Freeze();
    ASSERT_TRUE(SaveSegment(flat, path_).ok());
    pristine_ = ReadAll(path_);
    ASSERT_GE(pristine_.size(), kSegmentMinBytes);

    auto segment = SegmentFile::Open(path_);
    ASSERT_TRUE(segment.ok()) << segment.status().ToString();
    for (const SegmentFile::SectionInfo& info : (*segment)->sections()) {
      sections_.push_back(info);
    }
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }

  /// Writes `data` over the segment and asserts Open fails with a
  /// Corruption error whose message carries the path and every needle.
  void ExpectCorrupt(const std::string& data,
                     const std::vector<std::string>& needles) {
    WriteAll(path_, data);
    auto segment = SegmentFile::Open(path_);
    ASSERT_FALSE(segment.ok());
    EXPECT_EQ(segment.status().code(), StatusCode::kCorruption);
    const std::string& msg = segment.status().message();
    EXPECT_NE(msg.find(path_), std::string::npos) << msg;
    EXPECT_NE(msg.find("offset"), std::string::npos) << msg;
    for (const std::string& needle : needles) {
      EXPECT_NE(msg.find(needle), std::string::npos)
          << "missing \"" << needle << "\" in: " << msg;
    }
  }

  std::string path_;
  std::string pristine_;
  std::vector<SegmentFile::SectionInfo> sections_;
};

TEST_F(SegmentCorruptionTest, TruncatedFile) {
  ExpectCorrupt(pristine_.substr(0, pristine_.size() - 100),
                {"truncated segment", "header declares", "(offset 8)"});
}

TEST_F(SegmentCorruptionTest, TooSmallForAnySegment) {
  ExpectCorrupt(pristine_.substr(0, 10), {"segment too small", "(offset 0)"});
}

TEST_F(SegmentCorruptionTest, BadMagic) {
  std::string data = pristine_;
  data[0] ^= 0x40;
  ExpectCorrupt(data, {"bad segment magic", "(offset 0)"});
}

TEST_F(SegmentCorruptionTest, FutureVersion) {
  std::string data = pristine_;
  PatchAt<uint32_t>(&data, 4, 99);
  RepatchMetaCrc(&data);
  ExpectCorrupt(data, {"unsupported segment version 99", "(offset 4)"});
}

TEST_F(SegmentCorruptionTest, BadFooterMagic) {
  std::string data = pristine_;
  data.back() ^= 0x01;
  ExpectCorrupt(data, {"bad segment footer magic"});
}

TEST_F(SegmentCorruptionTest, TamperedHeaderFailsMetadataCrc) {
  std::string data = pristine_;
  data[44] ^= 0x01;  // flags field, no CRC repatch
  ExpectCorrupt(data, {"metadata CRC mismatch"});
}

TEST_F(SegmentCorruptionTest, FlippedByteInEverySection) {
  for (const SegmentFile::SectionInfo& info : sections_) {
    if (info.bytes == 0) continue;
    std::string data = pristine_;
    data[info.offset + info.bytes / 2] ^= 0x20;
    // The per-section CRC pass names the section it caught.
    ExpectCorrupt(data, {std::string("section ") + info.name, "CRC mismatch",
                         "(offset " + std::to_string(info.offset) + ")"});
  }
}

TEST_F(SegmentCorruptionTest, MisalignedSectionLength) {
  // Shrink the scores section by half an element: 4 is not a multiple of
  // the 8-byte element size, and validation must say so by name.
  std::string data = pristine_;
  size_t entry = kSegmentHeaderBytes + 3 * kSegmentTableEntryBytes;
  uint64_t bytes = LoadAt<uint64_t>(data, entry + 8);
  ASSERT_GE(bytes, 8u);
  PatchAt<uint64_t>(&data, entry + 8, bytes - 4);
  RepatchMetaCrc(&data);
  ExpectCorrupt(data, {"section scores", "misaligned length",
                       "not a multiple of element size 8"});
}

TEST_F(SegmentCorruptionTest, MisalignedSectionOffset) {
  std::string data = pristine_;
  size_t entry = kSegmentHeaderBytes + 3 * kSegmentTableEntryBytes;
  uint64_t offset = LoadAt<uint64_t>(data, entry);
  PatchAt<uint64_t>(&data, entry, offset + 4);
  RepatchMetaCrc(&data);
  ExpectCorrupt(data, {"section scores", "misaligned section offset"});
}

TEST_F(SegmentCorruptionTest, OverlappingSections) {
  // Point the scores section back at list_begin's offset: still aligned,
  // but it now overlaps the previous section.
  std::string data = pristine_;
  size_t entry = kSegmentHeaderBytes + 3 * kSegmentTableEntryBytes;
  uint64_t list_begin_offset =
      LoadAt<uint64_t>(data, kSegmentHeaderBytes + 2 * kSegmentTableEntryBytes);
  PatchAt<uint64_t>(&data, entry, list_begin_offset);
  RepatchMetaCrc(&data);
  ExpectCorrupt(data, {"section scores", "out of bounds or overlapping"});
}

TEST_F(SegmentCorruptionTest, HeaderCountContradictsSections) {
  std::string data = pristine_;
  uint64_t keywords = LoadAt<uint64_t>(data, 16);
  PatchAt<uint64_t>(&data, 16, keywords + 1);
  RepatchMetaCrc(&data);
  ExpectCorrupt(data, {"section keyword_offsets", "header expects"});
}

TEST_F(SegmentCorruptionTest, ImplausibleHeaderCounts) {
  std::string data = pristine_;
  PatchAt<uint64_t>(&data, 24, UINT64_MAX / 2);  // total_postings
  RepatchMetaCrc(&data);
  ExpectCorrupt(data, {"implausible header counts", "(offset 16)"});
}

TEST_F(SegmentCorruptionTest, ExplicitDeclaredSizeCapRejectsAtOpen) {
  // The O(1) pre-map cap: a file larger than the caller's
  // max_declared_size is refused before any mapping or validation work.
  SegmentFile::Options options;
  options.max_declared_size = kSegmentMinBytes;
  auto segment = SegmentFile::Open(path_, options);
  ASSERT_FALSE(segment.ok());
  EXPECT_EQ(segment.status().code(), StatusCode::kCorruption);
  EXPECT_NE(segment.status().message().find("max_declared_size"),
            std::string::npos)
      << segment.status().message();

  // A cap at (or above) the actual size admits the file unchanged.
  options.max_declared_size = pristine_.size();
  EXPECT_TRUE(SegmentFile::Open(path_, options).ok());
}

TEST_F(SegmentCorruptionTest, DeclaredSizeBombOverDefaultCap) {
  // header.file_bytes claiming terabytes must die at the declared-size
  // cap (default: max(16 MiB, 8x the on-disk size)), not at the
  // equality check whose message would leak no cap semantics.
  std::string data = pristine_;
  PatchAt<uint64_t>(&data, 8, uint64_t{1} << 42);
  RepatchMetaCrc(&data);
  ExpectCorrupt(data, {"declared-size cap", "(offset 8)"});
}

TEST_F(SegmentCorruptionTest, HeaderCountsBeyondWhatFileBytesCanCarry) {
  // keyword_count passes the UINT32_MAX ceiling but no 10M keywords fit
  // in a few-hundred-KB file; the plausibility cap must say so before
  // any section pointer is fixed.
  std::string data = pristine_;
  PatchAt<uint64_t>(&data, 16, 10'000'000);
  RepatchMetaCrc(&data);
  ExpectCorrupt(data, {"header counts exceed", "(offset 16)"});
}

TEST_F(SegmentCorruptionTest, BlockCountMismatchCaughtWithoutChecksums) {
  // Stealing a block from list 0 (still a monotonic skip_begin column)
  // breaks the blocks == ceil(postings/128) identity the cursor seek
  // math relies on; the always-on structural pass must reject it even
  // with the CRC tier off.
  std::string data = pristine_;
  ASSERT_STREQ(sections_[8].name, "skip_begin");
  uint32_t second = LoadAt<uint32_t>(data, sections_[8].offset + 4);
  ASSERT_GE(second, 1u);
  PatchAt<uint32_t>(&data, sections_[8].offset + 4, second - 1);
  WriteAll(path_, data);
  SegmentFile::Options options;
  options.verify_checksums = false;
  auto segment = SegmentFile::Open(path_, options);
  ASSERT_FALSE(segment.ok());
  const std::string& msg = segment.status().message();
  EXPECT_NE(msg.find("section skip_begin"), std::string::npos) << msg;
  EXPECT_NE(msg.find("carves"), std::string::npos) << msg;
}

TEST_F(SegmentCorruptionTest, RestartWithSharedPrefixCaughtWithoutChecksums) {
  // A restart posting declaring a shared prefix would make the cursor
  // copy components from a predecessor that was never decoded.
  std::string data = pristine_;
  ASSERT_STREQ(sections_[4].name, "shared");
  PatchAt<uint16_t>(&data, sections_[4].offset, 1);
  WriteAll(path_, data);
  SegmentFile::Options options;
  options.verify_checksums = false;
  auto segment = SegmentFile::Open(path_, options);
  ASSERT_FALSE(segment.ok());
  const std::string& msg = segment.status().message();
  EXPECT_NE(msg.find("section shared"), std::string::npos) << msg;
  EXPECT_NE(msg.find("nonzero shared prefix"), std::string::npos) << msg;
}

TEST_F(SegmentCorruptionTest, EmptyDeweyPostingCaughtWithoutChecksums) {
  // depth == 0 would make DilCursor::doc() read buf_[0] of an empty
  // buffer; shrinking posting 0's suffix to nothing must be rejected.
  std::string data = pristine_;
  ASSERT_STREQ(sections_[5].name, "suffix_offsets");
  uint32_t first = LoadAt<uint32_t>(data, sections_[5].offset);
  PatchAt<uint32_t>(&data, sections_[5].offset + 4, first);
  WriteAll(path_, data);
  SegmentFile::Options options;
  options.verify_checksums = false;
  auto segment = SegmentFile::Open(path_, options);
  ASSERT_FALSE(segment.ok());
  const std::string& msg = segment.status().message();
  EXPECT_NE(msg.find("section suffix_offsets"), std::string::npos) << msg;
  EXPECT_NE(msg.find("empty Dewey id"), std::string::npos) << msg;
}

TEST_F(SegmentCorruptionTest, UnsortedKeywordsCaughtByChecksumTier) {
  // Swap "kw0"/"kw1" in the arena and re-sign the section + metadata
  // CRCs: integrity now passes, so only the dictionary-order check
  // stands between a forged file and a meaningless FindList binary
  // search.
  std::string data = pristine_;
  ASSERT_STREQ(sections_[0].name, "keyword_arena");
  size_t arena = sections_[0].offset;
  ASSERT_EQ(data[arena + 2], '0');
  ASSERT_EQ(data[arena + 5], '1');
  data[arena + 2] = '1';
  data[arena + 5] = '0';
  RepatchSectionCrc(&data, 0);
  RepatchMetaCrc(&data);
  ExpectCorrupt(data, {"section keyword_arena", "out of sorted order"});
}

TEST_F(SegmentCorruptionTest, SkipFirstDocMismatchCaughtByChecksumTier) {
  // The skip table's first_doc must agree with the restart posting it
  // points at, or block seeks land on the wrong document.
  std::string data = pristine_;
  ASSERT_STREQ(sections_[7].name, "skip_first_doc");
  uint32_t first = LoadAt<uint32_t>(data, sections_[7].offset);
  PatchAt<uint32_t>(&data, sections_[7].offset, first + 1);
  RepatchSectionCrc(&data, 7);
  RepatchMetaCrc(&data);
  ExpectCorrupt(data, {"section skip_first_doc", "claims first doc"});
}

TEST_F(SegmentCorruptionTest, BrokenOffsetColumnCaughtWithoutChecksums) {
  // A non-zero first keyword offset would let a crafted file steer arena
  // reads; the monotonicity check must catch it even when the per-section
  // CRC pass is skipped.
  std::string data = pristine_;
  const SegmentFile::SectionInfo& info = sections_[1];  // keyword_offsets
  ASSERT_STREQ(info.name, "keyword_offsets");
  PatchAt<uint32_t>(&data, info.offset, 1);
  WriteAll(path_, data);
  SegmentFile::Options options;
  options.verify_checksums = false;
  auto segment = SegmentFile::Open(path_, options);
  ASSERT_FALSE(segment.ok());
  const std::string& msg = segment.status().message();
  EXPECT_NE(msg.find("section keyword_offsets"), std::string::npos) << msg;
  EXPECT_NE(msg.find("first entry 1, expected 0"), std::string::npos) << msg;
}

TEST_F(SegmentCorruptionTest, PristineFileStillOpensAfterSuite) {
  WriteAll(path_, pristine_);
  SegmentFile::Options options;
  options.prefetch = true;  // exercise the WILLNEED path too
  options.advice = SegmentFile::Options::Advice::kSequential;
  auto segment = SegmentFile::Open(path_, options);
  EXPECT_TRUE(segment.ok()) << segment.status().ToString();
}

}  // namespace
}  // namespace xontorank
