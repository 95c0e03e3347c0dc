// Mmap-native segment open:
//   1. warm open — SegmentFile::Open with and without the section CRC
//      pass over a page-cache-hot file. The no-verify open does
//      O(metadata) work, independent of the posting count.
//   2. cold open + first query — the file's pages are evicted with
//      posix_fadvise(DONTNEED) first, so the numbers include the real
//      page-fault cost of each open mode's first top-10 conjunction.
//   3. RSS breakdown — /proc/self/smaps_rollup deltas showing where each
//      representation's bytes live: a heap FlatDil is anonymous memory,
//      the mapped segment is file-backed page cache.
//
// `--smoke` runs a small corpus through the bit-identity gate (mapped view
// vs the heap columns it was written from, at 1/2/4/8 shards) plus a
// flipped-byte corruption probe, no timing; CI runs it as a ctest target.
// Results are recorded in EXPERIMENTS.md ("Mmap-native segment").

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/flat_dil.h"
#include "core/query_processor.h"
#include "core/xonto_dil.h"
#include "storage/segment_file.h"
#include "storage/segment_writer.h"

using namespace xontorank;

namespace {

// Same CDA-shaped synthetic corpus as bench_flat_dil: keyword w appears in
// documents divisible by its stride, several postings per document sharing
// a deep prefix.
XOntoDil BuildSyntheticDil(size_t num_keywords, size_t docs,
                           size_t postings_per_doc, uint64_t seed) {
  static constexpr uint32_t kStrides[] = {2, 3, 5, 7, 11};
  Rng rng(seed);
  XOntoDil dil;
  for (size_t w = 0; w < num_keywords; ++w) {
    uint32_t stride = kStrides[w % (sizeof(kStrides) / sizeof(kStrides[0]))];
    std::vector<DilPosting> postings;
    postings.reserve(docs / stride * postings_per_doc);
    for (uint32_t d = 0; d < docs; d += stride) {
      for (uint32_t i = 0; i < postings_per_doc; ++i) {
        std::vector<uint32_t> comps{d, 0, i / 16, (i / 4) % 4, i % 4,
                                    static_cast<uint32_t>(rng.NextBelow(4))};
        postings.push_back(
            {DeweyId(std::move(comps)), 0.05 + 0.95 * rng.NextDouble()});
      }
    }
    dil.Put("kw" + std::to_string(w), std::move(postings));
  }
  return dil;
}

std::vector<DilListRef> Refs(const FlatDil& flat) {
  std::vector<DilListRef> refs;
  for (uint32_t list = 0; list < flat.keyword_count(); ++list) {
    refs.push_back(DilListRef::OverFlat(flat, list));
  }
  return refs;
}

std::vector<QueryResult> TopTen(const FlatDil& flat) {
  QueryProcessor processor((ScoreOptions()));
  auto refs = Refs(flat);
  std::vector<DilCursor> cursors;
  cursors.reserve(refs.size());
  for (const DilListRef& ref : refs) cursors.push_back(ref.OpenCursor());
  return processor.Execute(std::move(cursors), /*top_k=*/10);
}

bool ResultsIdentical(const std::vector<QueryResult>& a,
                      const std::vector<QueryResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].element == b[i].element) || a[i].score != b[i].score ||
        a[i].keyword_scores != b[i].keyword_scores) {
      return false;
    }
  }
  return true;
}

/// Evicts the file's pages from the page cache so the next open faults
/// them back in from disk — the "cold" in the cold-open numbers.
void DropFromPageCache(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);  // nothing dirty can pin the pages
  (void)::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
}

/// Bit-identity gate between the mapped view and the heap columns it was
/// written from; exits the process on any mismatch.
void RunGates(const FlatDil& heap, const std::string& segment_path) {
  auto segment = SegmentFile::Open(segment_path);
  if (!segment.ok()) {
    std::fprintf(stderr, "GATE FAILURE: open: %s\n",
                 segment.status().ToString().c_str());
    std::exit(1);
  }
  FlatDil view = (*segment)->MakeView();
  QueryProcessor processor((ScoreOptions()));
  ThreadPool pool(4);
  auto heap_refs = Refs(heap);
  auto mapped_refs = Refs(view);
  for (size_t top_k : {size_t{0}, size_t{10}}) {
    auto expected = processor.ExecuteSegments({heap_refs}, top_k, 1, &pool);
    for (size_t shards : {1u, 2u, 4u, 8u}) {
      auto mapped =
          processor.ExecuteSegments({mapped_refs}, top_k, shards, &pool);
      if (!ResultsIdentical(expected, mapped)) {
        std::fprintf(stderr,
                     "GATE FAILURE: mapped view != heap columns "
                     "(top_k=%zu shards=%zu)\n",
                     top_k, shards);
        std::exit(1);
      }
    }
  }

  // A flipped payload byte must come back as a descriptive error.
  std::string bytes;
  {
    std::ifstream in(segment_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  std::string corrupt_path = segment_path + ".corrupt";
  bytes[bytes.size() / 2] ^= 0x20;
  {
    std::ofstream out(corrupt_path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto corrupt = SegmentFile::Open(corrupt_path);
  std::remove(corrupt_path.c_str());
  if (corrupt.ok() ||
      corrupt.status().message().find("CRC mismatch") == std::string::npos) {
    std::fprintf(stderr, "GATE FAILURE: corruption not detected\n");
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  const size_t keywords = 4;
  const size_t docs = smoke ? 600 : 60000;
  const size_t per_doc = 16;
  const int reps = smoke ? 1 : 5;

  XOntoDil dil = BuildSyntheticDil(keywords, docs, per_doc, /*seed=*/29);
  const size_t postings = dil.TotalPostings();

  std::string stem = (std::filesystem::temp_directory_path() /
                      ("bench_segment_load_" + std::to_string(::getpid())))
                         .string();
  std::string segment_path = stem + ".xoseg";
  FlatDil heap = dil.Freeze();
  if (!SaveSegment(heap, segment_path).ok()) {
    std::fprintf(stderr, "segment write failed\n");
    return 1;
  }

  RunGates(heap, segment_path);
  if (smoke) {
    std::printf("bench_segment_load --smoke: mapped-vs-heap parity and "
                "corruption gates passed (%zu postings)\n",
                postings);
    std::remove(segment_path.c_str());
    return 0;
  }

  uintmax_t segment_bytes = std::filesystem::file_size(segment_path);
  std::printf("MMAP SEGMENT OPEN — %zu keywords, %zu postings; "
              "segment %.1f MB\n\n",
              keywords, postings, segment_bytes / 1048576.0);

  // --- 1. warm open (page cache hot) -----------------------------------
  Timer timer;
  for (int r = 0; r < reps; ++r) {
    auto segment = SegmentFile::Open(segment_path);
    if (!segment.ok()) return 1;
  }
  double open_verify_ms = timer.ElapsedMillis() / reps;

  SegmentFile::Options no_verify;
  no_verify.verify_checksums = false;
  timer.Reset();
  for (int r = 0; r < reps; ++r) {
    auto segment = SegmentFile::Open(segment_path, no_verify);
    if (!segment.ok()) return 1;
  }
  double open_ms = timer.ElapsedMillis() / reps;

  std::printf("%-38s %10s\n", "warm open (avg of 5)", "time");
  bench::PrintRule(60);
  std::printf("%-38s %8.2f ms\n", "SegmentFile::Open (CRC verify)",
              open_verify_ms);
  std::printf("%-38s %8.3f ms\n", "SegmentFile::Open (no verify)", open_ms);
  std::printf("\n");

  // --- 2. cold open + first query --------------------------------------
  auto heap_results = TopTen(heap);

  DropFromPageCache(segment_path);
  timer.Reset();
  auto cold_segment = SegmentFile::Open(segment_path);
  if (!cold_segment.ok()) return 1;
  FlatDil cold_view = (*cold_segment)->MakeView();
  auto cold_mapped_results = TopTen(cold_view);
  double cold_open_ms = timer.ElapsedMillis();

  DropFromPageCache(segment_path);
  timer.Reset();
  auto cold_lazy = SegmentFile::Open(segment_path, no_verify);
  if (!cold_lazy.ok()) return 1;
  FlatDil lazy_view = (*cold_lazy)->MakeView();
  auto cold_lazy_results = TopTen(lazy_view);
  double cold_lazy_ms = timer.ElapsedMillis();

  if (!ResultsIdentical(heap_results, cold_mapped_results) ||
      !ResultsIdentical(heap_results, cold_lazy_results)) {
    std::fprintf(stderr, "GATE FAILURE: cold results diverge\n");
    return 1;
  }

  std::printf("%-38s %10s\n", "cold open + first top-10 query", "time");
  bench::PrintRule(60);
  std::printf("%-38s %8.2f ms\n", "Open (CRC verify) + query", cold_open_ms);
  std::printf("%-38s %8.2f ms\n", "Open (no verify) + query, lazy faults",
              cold_lazy_ms);
  std::printf("\n");

  // --- 3. where the bytes live -----------------------------------------
  {
    bench::RssBreakdown before = bench::CurrentRssBreakdown();
    FlatDil heap_copy = dil.Freeze();
    bench::RssBreakdown with_heap = bench::CurrentRssBreakdown();
    auto segment = SegmentFile::Open(segment_path);  // CRC pass touches all
    if (!segment.ok()) return 1;
    FlatDil view = (*segment)->MakeView();
    (void)TopTen(view);
    bench::RssBreakdown with_map = bench::CurrentRssBreakdown();

    std::printf("%-38s %10s %12s\n", "RSS growth (smaps_rollup)", "anon",
                "file-backed");
    bench::PrintRule(60);
    std::printf("%-38s %7zu KB %9zu KB\n", "after heap Freeze",
                (with_heap.anonymous_bytes - before.anonymous_bytes) / 1024,
                (with_heap.file_backed_bytes - before.file_backed_bytes) /
                    1024);
    std::printf("%-38s %7zu KB %9zu KB\n", "after mapped open + full touch",
                (with_map.anonymous_bytes - with_heap.anonymous_bytes) / 1024,
                (with_map.file_backed_bytes - with_heap.file_backed_bytes) /
                    1024);
    std::printf("\n");
  }

  std::remove(segment_path.c_str());
  std::printf("Results bit-identical between the heap columns and the "
              "mapped segment on cold and warm paths.\n");
  return 0;
}
