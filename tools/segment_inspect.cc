// segment_inspect: dump a segment file's header, section table and CRC
// state — or a whole LSM engine directory's manifest — for debugging and
// forensics.
//
//   segment_inspect <file.xoseg> [--no-verify]
//   segment_inspect <engine-dir> [--no-verify]
//
// File mode prints the parsed header, one row per section (offset,
// length, element count, stored CRC) and per-list summary stats.
// Directory mode decodes the MANIFEST (the engine directory's one
// commit record, DESIGN.md §15) and prints the generation, the saved
// options, the ontology and document counts, and one row per live
// segment (id, doc range, file, bytes, keywords, postings), then runs a
// verify pass over every listed segment: full CRC validation through
// SegmentFile::Open and a posting walk checking that each document id
// lies inside the segment's manifest-declared range. With --no-verify
// the section CRC pass and the posting walk are skipped (metadata CRCs
// are always checked), which is the fast way to look at a large engine.
// Exit status: 0 for a valid file/directory, 1 for unreadable/corrupt
// (the validation error is printed verbatim — the same Status a serving
// load would report).
//
// Everything goes through SegmentFile's public API: this tool has no mmap
// calls of its own (xo_lint's raw-mmap rule keeps it that way).

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/simd_kernels.h"
#include "storage/manifest.h"
#include "storage/segment_file.h"

using namespace xontorank;

namespace {

/// VocabularyMode names, by MANIFEST code.
constexpr const char* kVocabularyNames[] = {"corpus", "corpus+ontology",
                                            "none"};

/// The shortest decimal that reads back as `value` exactly.
std::string Exact(double value) {
  char buffer[32];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, end);
}

/// Directory mode: manifest dump + per-segment verify. Returns the exit
/// status.
int InspectEngineDir(const std::string& dir, bool verify) {
  auto manifest = LoadManifest(dir + "/MANIFEST");
  if (!manifest.ok()) {
    std::fprintf(stderr, "%s\n", manifest.status().ToString().c_str());
    return 1;
  }
  const IndexBuildOptions& o = manifest->options;
  const uint32_t documents =
      manifest->segments.empty() ? 0 : manifest->segments.back().end_doc;
  std::printf("%s: engine dir, generation %" PRIu64 ", %zu segment(s), "
              "%u ontology file(s), %u document(s)%s\n",
              dir.c_str(), manifest->generation, manifest->segments.size(),
              manifest->ontology_count, documents,
              verify ? "" : " (section CRCs / doc ranges not checked)");
  std::printf("  options: strategy %s, vocabulary %s, decay %s, "
              "threshold %s, omega %s, max_concepts_per_keyword %zu,\n"
              "           bm25 k1 %s b %s, use_elem_rank %d, "
              "elem_rank_blend %s, compaction_fanin %zu, auto_compact %d\n",
              std::string(StrategyName(o.strategy)).c_str(),
              kVocabularyNames[static_cast<int>(o.vocabulary_mode)],
              Exact(o.score.decay).c_str(), Exact(o.score.threshold).c_str(),
              Exact(o.score.ontology_weight).c_str(),
              o.score.max_concepts_per_keyword, Exact(o.score.bm25.k1).c_str(),
              Exact(o.score.bm25.b).c_str(), o.use_elem_rank ? 1 : 0,
              Exact(o.elem_rank_blend).c_str(), o.lsm.compaction_fanin,
              o.lsm.auto_compact ? 1 : 0);
  std::printf("\n  %10s %10s %10s %-24s %12s %10s %12s\n", "id", "first_doc",
              "end_doc", "file", "bytes", "keywords", "postings");
  bool ok = true;
  for (const ManifestSegment& entry : manifest->segments) {
    std::string name = SegmentFileName(entry.id);
    SegmentFile::Options options;
    options.advice = SegmentFile::Options::Advice::kSequential;
    options.verify_checksums = verify;
    auto segment = SegmentFile::Open(dir + "/" + name, options);
    if (!segment.ok()) {
      std::printf("  %10" PRIu64 " %10u %10u %-24s  INVALID: %s\n", entry.id,
                  entry.first_doc, entry.end_doc, name.c_str(),
                  segment.status().ToString().c_str());
      ok = false;
      continue;
    }
    const SegmentFile& seg = **segment;
    std::printf("  %10" PRIu64 " %10u %10u %-24s %12zu %10" PRIu64
                " %12" PRIu64 "\n",
                entry.id, entry.first_doc, entry.end_doc, name.c_str(),
                seg.file_bytes(), seg.header().keyword_count,
                seg.header().total_postings);
    if (!verify) continue;
    // Doc-range pass: every posting's document id must lie inside the
    // manifest-declared [first_doc, end_doc) — a CRC-clean segment listed
    // with the wrong range would serve results under the wrong global doc
    // ids, so the tiling claim is checked against the bytes.
    FlatDil view = seg.MakeView();
    for (uint32_t l = 0; l < view.keyword_count() && ok; ++l) {
      for (DilCursor cursor = view.OpenCursor(l); !cursor.AtEnd();
           cursor.Next()) {
        if (cursor.doc() < entry.first_doc || cursor.doc() >= entry.end_doc) {
          std::printf("       ^ INVALID: posting doc %u outside manifest "
                      "range [%u, %u)\n",
                      cursor.doc(), entry.first_doc, entry.end_doc);
          ok = false;
          break;
        }
      }
    }
  }
  std::printf("\n  verify: %s\n", !verify   ? "skipped (--no-verify)"
                                  : ok      ? "all segments OK"
                                            : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  bool verify = true;
  std::string path;
  for (const std::string& arg : args) {
    if (arg == "--no-verify") {
      verify = false;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr,
                   "usage: segment_inspect <file.xoseg | engine-dir> "
                   "[--no-verify]\n");
      return 1;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: segment_inspect <file.xoseg | engine-dir> "
                 "[--no-verify]\n");
    return 1;
  }

  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    return InspectEngineDir(path, verify);
  }

  SegmentFile::Options options;
  options.advice = SegmentFile::Options::Advice::kSequential;
  options.verify_checksums = verify;
  auto segment = SegmentFile::Open(path, options);
  if (!segment.ok()) {
    std::fprintf(stderr, "%s\n", segment.status().ToString().c_str());
    return 1;
  }
  const SegmentFile& seg = **segment;
  const SegmentFile::Header& h = seg.header();

  std::printf("%s: %zu bytes, segment v%u%s\n", seg.path().c_str(),
              seg.file_bytes(), h.version,
              verify ? " (all CRCs verified)" : " (section CRCs not checked)");
  std::printf("  keywords %" PRIu64 "  postings %" PRIu64 "  blocks %" PRIu64
              "  flags 0x%08x\n",
              h.keyword_count, h.total_postings, h.block_count, h.flags);

  std::printf("\n  %-16s %10s %12s %12s %10s\n", "section", "offset", "bytes",
              "elements", "crc32");
  size_t payload = 0;
  for (const SegmentFile::SectionInfo& info : seg.sections()) {
    std::printf("  %-16s %10" PRIu64 " %12" PRIu64 " %12" PRIu64 " 0x%08x\n",
                info.name, info.offset, info.bytes, info.elements, info.crc32);
    payload += info.bytes;
  }
  std::printf("  payload %zu bytes, %zu bytes alignment padding + metadata\n",
              payload, seg.file_bytes() - payload);

  // Per-list shape summary through the served view — exercises the same
  // pointer-fixup path queries use.
  FlatDil view = seg.MakeView();
  size_t max_list = 0, singleton_lists = 0;
  for (uint32_t l = 0; l < view.keyword_count(); ++l) {
    size_t n = view.ListSize(l);
    if (n > max_list) max_list = n;
    if (n == 1) ++singleton_lists;
  }
  if (view.total_postings() > 0) {
    std::printf("\n  lists: %zu singleton, longest %zu postings, "
                "%.1f avg, %.2f bytes/posting\n",
                singleton_lists, max_list,
                static_cast<double>(view.total_postings()) /
                    static_cast<double>(view.keyword_count()),
                static_cast<double>(seg.file_bytes()) /
                    static_cast<double>(view.total_postings()));
  }

  // Block-max column: the per-block score upper bounds that drive top-k
  // pruning.
  std::span<const float> block_max = view.sections().block_max;
  if (block_max.empty()) {
    std::printf("\n  block-max: 0 blocks (empty segment)\n");
  } else {
    float hi = MaxFloat(block_max.data(), block_max.size());
    float lo = block_max[0];
    double sum = 0.0;
    for (float v : block_max) {
      if (v < lo) lo = v;
      sum += v;
    }
    std::printf("\n  block-max: %zu blocks, score bounds min %.4f / avg %.4f "
                "/ max %.4f\n",
                block_max.size(), lo,
                sum / static_cast<double>(block_max.size()), hi);
  }
  return 0;
}
