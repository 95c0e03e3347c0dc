// Harness: the mmap-native segment surface. Each input is written to a
// scratch file and opened with verify_checksums on and off; a file that
// validates must then survive a full serving walk — every keyword, every
// cursor position, seeks, posting ranges, doc-id collection and
// block-max bounds — without a sanitizer finding. With checksums off the
// walk asserts only memory safety (a forged-but-structurally-valid file
// may be doc-unsorted); with them on the dictionary roundtrip is also
// checked, since validation then guarantees sorted unique keywords.
//
// The structure-aware mutator below is what makes this surface fuzzable
// at all: random byte noise dies at the metadata CRC, so it edits
// sections/table/counts and re-fixes the checksums.

#include <cstdio>
#include <random>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/check.h"
#include "core/flat_dil.h"
#include "fuzz_target.h"
#include "fuzz_util.h"
#include "storage/segment_file.h"

namespace {

constexpr size_t kMaxInput = size_t{4} << 20;

const std::string& ScratchPath() {
  static const std::string* path = [] {
    const char* tmpdir = ::getenv("TMPDIR");
    std::string dir = tmpdir != nullptr ? tmpdir : "/tmp";
    return new std::string(dir + "/xo_fuzz_segment_" +
                           std::to_string(::getpid()) +
                           ".xoseg");  // xo-lint: allow(new-delete)
  }();
  return *path;
}

bool WriteScratch(const uint8_t* data, size_t size) {
  std::FILE* f = std::fopen(ScratchPath().c_str(), "wb");
  if (f == nullptr) return false;
  size_t written = size == 0 ? 0 : std::fwrite(data, 1, size, f);
  std::fclose(f);
  return written == size;
}

void WalkView(const xontorank::FlatDil& dil, bool verified) {
  for (uint32_t l = 0; l < dil.keyword_count(); ++l) {
    std::string_view keyword = dil.KeywordAt(l);
    if (verified) XO_CHECK_EQ(dil.FindList(keyword), l);

    size_t seen = 0;
    uint32_t first_doc = 0;
    uint32_t last_doc = 0;
    xontorank::DilCursor cursor = dil.OpenCursor(l);
    while (!cursor.AtEnd()) {
      xontorank::DeweyRef id = cursor.dewey();
      XO_CHECK(id.size() >= 1);
      XO_CHECK_EQ(cursor.doc(), id[0]);
      (void)cursor.score();
      if (seen == 0) first_doc = cursor.doc();
      last_doc = cursor.doc();
      ++seen;
      cursor.Next();
    }
    XO_CHECK_EQ(seen, dil.ListSize(l));
    if (seen == 0) continue;

    // Seek probes: before, inside and past the list's doc span. Hostile
    // files may be doc-unsorted, so only termination and memory safety
    // are asserted.
    for (uint32_t target : {uint32_t{0}, first_doc, last_doc,
                            last_doc == UINT32_MAX ? UINT32_MAX
                                                   : last_doc + 1}) {
      xontorank::DilCursor seek = dil.OpenCursor(l);
      seek.SeekDoc(target);
      if (!seek.AtEnd()) {
        (void)seek.dewey();
        (void)seek.BlockUpperBound(seek.doc());
      }
    }

    xontorank::DocRange range{first_doc, last_doc + 1};
    auto [lo, hi] = dil.PostingRange(l, range);
    XO_CHECK(lo <= hi);
    xontorank::DilCursor ranged = dil.OpenCursor(l, range);
    while (!ranged.AtEnd()) ranged.Next();

    std::vector<uint32_t> docs;
    dil.CollectDocIds(l, &docs);
    XO_CHECK_EQ(docs.size(), seen);
  }
  XO_CHECK(dil.TotalBlocks() == dil.sections().skip_first_doc.size());
}

}  // namespace

extern "C" size_t LLVMFuzzerCustomMutator(uint8_t* data, size_t size,
                                          size_t max_size,
                                          unsigned int seed) {
  std::mt19937 rng(seed);
  return xontorank::fuzz::MutateSegmentBytes(data, size, max_size, rng);
}

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > kMaxInput) return 0;
  if (!WriteScratch(data, size)) return 0;
  for (bool verify : {true, false}) {
    xontorank::SegmentFile::Options options;
    options.verify_checksums = verify;
    options.advice = verify ? xontorank::SegmentFile::Options::Advice::kRandom
                            : xontorank::SegmentFile::Options::Advice::kNormal;
    auto segment = xontorank::SegmentFile::Open(ScratchPath(), options);
    if (!segment.ok()) {
      XO_CHECK(!segment.status().message().empty());
      continue;
    }
    xontorank::FlatDil view = (*segment)->MakeView();
    WalkView(view, verify);
  }
  return 0;
}
