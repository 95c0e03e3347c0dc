// Seed-corpus generator for the fuzz/ harnesses (see fuzz/README.md).
//
//   make_fuzz_corpus OUTDIR            write valid-ish seed inputs
//   make_fuzz_corpus OUTDIR --hostile  write known-trigger regression inputs
//
// Creates OUTDIR/<surface>/ for each harness surface (xml_parse,
// segment_open, query, dewey, manifest). Seeds are well-formed
// instances of each wire format produced by the repo's own encoders, so
// mutation starts from deep inside the accept-states of every parser.
// The hostile set reproduces the classes of bug the hardening work
// fixed — depth bombs, count bombs, inflated headers — crafted with the
// same encoders plus targeted patching, and is committed under
// fuzz/corpus/regression/ where ctest replays it forever.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "cda/cda_document.h"
#include "cda/cda_generator.h"
#include "common/random.h"
#include "core/flat_dil.h"
#include "core/xonto_dil.h"
#include "onto/snomed_fragment.h"
#include "storage/coding.h"
#include "storage/manifest.h"
#include "storage/segment_format.h"
#include "storage/segment_writer.h"
#include "xml/xml_writer.h"

namespace xontorank {
namespace {

namespace fs = std::filesystem;

void WriteFile(const fs::path& dir, const std::string& name,
               std::string_view bytes) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Same shape as the segment/flat-dil tests' randomized index.
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

std::string NestedXml(size_t depth) {
  std::string xml;
  for (size_t i = 0; i < depth; ++i) xml += "<a>";
  xml += "x";
  for (size_t i = 0; i < depth; ++i) xml += "</a>";
  return xml;
}

/// Query-harness input: five option bytes (top_k, strategy, parallelism,
/// cache, pruning) followed by the query text.
std::string QuerySeed(std::string_view text) {
  std::string bytes = {'\x05', '\x00', '\x01', '\x01', '\x01'};
  bytes += text;
  return bytes;
}

/// Dewey-harness input: two ids, each a count byte then 4-byte components.
std::string DeweySeed(const std::vector<uint32_t>& a,
                      const std::vector<uint32_t>& b) {
  std::string bytes;
  for (const std::vector<uint32_t>* id : {&a, &b}) {
    bytes.push_back(static_cast<char>(id->size()));
    for (uint32_t c : *id) {
      for (int shift = 24; shift >= 0; shift -= 8) {
        bytes.push_back(static_cast<char>((c >> shift) & 0xff));
      }
    }
  }
  return bytes;
}

/// Re-signs a patched segment image: metadata CRC (stored at size-8,
/// covering header + section table) so tampered headers reach Validate's
/// semantic checks rather than dying at the integrity gate.
void ResignSegment(std::string* bytes) {
  if (bytes->size() < kSegmentMinBytes) return;
  uint32_t version = 0;
  std::memcpy(&version, bytes->data() + 4, sizeof(version));
  size_t table_end = SegmentTableEndFor(version);
  if (table_end > bytes->size()) return;
  uint32_t crc = Crc32(std::string_view(bytes->data(), table_end));
  std::memcpy(bytes->data() + bytes->size() - 8, &crc, sizeof(crc));
}

/// Re-signs a patched manifest image (trailing CRC over everything
/// before it) so tampered counts/fields reach DecodeManifest's semantic
/// validation rather than dying at the integrity gate.
std::string ResignManifest(std::string bytes) {
  if (bytes.size() >= 8) {
    uint32_t crc = Crc32(std::string_view(bytes.data(), bytes.size() - 4));
    std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
  }
  return bytes;
}

void WriteSeeds(const fs::path& out) {
  // xml_parse: real CDA shapes plus small syntax variants.
  Ontology snomed = BuildSnomedCardiologyFragment();
  CdaGeneratorOptions cda_options;
  cda_options.num_documents = 1;
  cda_options.mean_encounters = 2;
  CdaGenerator generator(snomed, cda_options);
  WriteFile(out / "xml_parse", "cda_generated.xml",
            WriteXml(CdaToXml(generator.GenerateDocument(0), 0)));
  WriteFile(out / "xml_parse", "small.xml",
            "<ClinicalDocument><section><title>Problems</title>"
            "<entry><Observation><value code=\"233604007\""
            " codeSystem=\"2.16.840.1.113883.6.96\""
            " displayName=\"Pneumonia\"/></Observation></entry>"
            "</section></ClinicalDocument>");
  WriteFile(out / "xml_parse", "prolog_comment.xml",
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>"
            "<!-- note --><doc a=\"&lt;1&gt;\"><![CDATA[raw < text]]></doc>");
  WriteFile(out / "xml_parse", "nested_32.xml", NestedXml(32));

  // segment_open: both segment versions, plus a multi-block index so the
  // skip table and block-max sections are non-trivial.
  Rng rng(42);
  FlatDil small = RandomDil(rng, 6, 40).Freeze();
  FlatDil blocky = RandomDil(rng, 8, 400).Freeze();
  WriteFile(out / "segment_open", "small_v1.xoseg", EncodeSegment(small, 1));
  WriteFile(out / "segment_open", "small_v2.xoseg", EncodeSegment(small, 2));
  WriteFile(out / "segment_open", "blocky_v2.xoseg", EncodeSegment(blocky, 2));

  // query: option header + text in the harness's input layout.
  WriteFile(out / "query", "asthma.txt", QuerySeed("asthma bronchus"));
  WriteFile(out / "query", "drug.txt", QuerySeed("theophylline pulse 96"));
  WriteFile(out / "query", "empty.txt", QuerySeed(""));
  WriteFile(out / "query", "punct.txt",
            QuerySeed("\"asthma\"  ,;  BRONCHUS-attack"));

  // dewey: pairs covering equal, ancestor, sibling and cross-document.
  WriteFile(out / "dewey", "equal.bin", DeweySeed({1, 0, 2}, {1, 0, 2}));
  WriteFile(out / "dewey", "ancestor.bin", DeweySeed({1, 0}, {1, 0, 2, 4}));
  WriteFile(out / "dewey", "sibling.bin", DeweySeed({1, 0, 1}, {1, 0, 2}));
  WriteFile(out / "dewey", "cross_doc.bin", DeweySeed({1, 3}, {2, 3}));
  WriteFile(out / "dewey", "empty.bin", DeweySeed({}, {7}));

  // manifest: valid LSM segment manifests of increasing shape — empty
  // engine, single sealed segment, a post-compaction tiering (merged
  // segments leave id gaps), and high-word generation/id values.
  WriteFile(out / "manifest", "empty.xomf", EncodeManifest({1, {}}));
  WriteFile(out / "manifest", "single.xomf",
            EncodeManifest({1, {{0, 0, 8}}}));
  WriteFile(out / "manifest", "tiered.xomf",
            EncodeManifest(
                {7, {{5, 0, 16}, {3, 16, 20}, {4, 20, 21}, {6, 21, 24}}}));
  WriteFile(out / "manifest", "hiword.xomf",
            EncodeManifest({uint64_t{1} << 40,
                            {{uint64_t{1} << 36, 0, 3}, {2, 3, 5}}}));
}

void WriteHostile(const fs::path& out) {
  // xml_parse: the unbounded-recursion trigger — nesting far past any
  // sane document; the parser must refuse at max_depth, not blow the
  // stack.
  WriteFile(out / "xml_parse", "depth_bomb.xml", NestedXml(4096));
  WriteFile(out / "xml_parse", "unclosed_depth.xml",
            std::string(2048, '<') + "a>");

  // segment_open: a real segment with forged header fields, re-signed so
  // the metadata CRC passes and Validate's plausibility caps are what
  // stands between the header and a multi-terabyte reserve.
  Rng rng(43);
  std::string segment = EncodeSegment(RandomDil(rng, 6, 40).Freeze(), 2);

  std::string declared_bomb = segment;
  uint64_t huge_bytes = uint64_t{1} << 42;
  std::memcpy(declared_bomb.data() + 8, &huge_bytes, sizeof(huge_bytes));
  ResignSegment(&declared_bomb);
  WriteFile(out / "segment_open", "declared_size_bomb.xoseg", declared_bomb);

  std::string count_bomb = segment;
  uint64_t huge_count = uint64_t{1} << 40;
  std::memcpy(count_bomb.data() + 16, &huge_count, sizeof(huge_count));  // keywords
  std::memcpy(count_bomb.data() + 24, &huge_count, sizeof(huge_count));  // postings
  ResignSegment(&count_bomb);
  WriteFile(out / "segment_open", "header_count_bomb.xoseg", count_bomb);

  std::string truncated = segment.substr(0, kSegmentMinBytes + 7);
  WriteFile(out / "segment_open", "truncated.xoseg", truncated);

  // query: extreme option bytes with degenerate text.
  WriteFile(out / "query", "all_options.txt",
            std::string("\xff\xff\xff\xff\xff", 5) +
                std::string(512, ' '));

  // dewey: counts larger than the remaining bytes (components read as 0).
  WriteFile(out / "dewey", "overlong_count.bin", std::string("\xff\x01", 2));

  // manifest: the commit-point file of an LSM engine dir. Truncation
  // (the crash-mid-write shape), CRC-valid-but-hostile segment lists
  // (stale generation 0, tiling gap, duplicate id, empty range — all
  // pass the integrity gate, all must die in semantic validation), and a
  // re-signed count bomb attacking the size arithmetic.
  std::string good = EncodeManifest({3, {{0, 0, 4}, {1, 4, 8}}});
  WriteFile(out / "manifest", "truncated.xomf",
            good.substr(0, good.size() - 9));
  WriteFile(out / "manifest", "gen_zero.xomf",
            EncodeManifest({0, {{0, 0, 4}}}));
  WriteFile(out / "manifest", "tiling_gap.xomf",
            EncodeManifest({2, {{0, 0, 4}, {1, 5, 8}}}));
  WriteFile(out / "manifest", "dup_id.xomf",
            EncodeManifest({2, {{7, 0, 4}, {7, 4, 8}}}));
  WriteFile(out / "manifest", "empty_range.xomf",
            EncodeManifest({2, {{0, 0, 4}, {1, 4, 4}}}));
  std::string manifest_bomb = good;
  uint32_t huge32 = uint32_t{1} << 28;
  std::memcpy(manifest_bomb.data() + 16, &huge32, sizeof(huge32));  // count
  WriteFile(out / "manifest", "count_bomb.xomf",
            ResignManifest(std::move(manifest_bomb)));
}

}  // namespace
}  // namespace xontorank

int main(int argc, char** argv) {
  std::string out;
  bool hostile = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--hostile") {
      hostile = true;
    } else if (out.empty()) {
      out = std::move(arg);
    } else {
      std::fprintf(stderr, "usage: %s OUTDIR [--hostile]\n", argv[0]);
      return 2;
    }
  }
  if (out.empty()) {
    std::fprintf(stderr, "usage: %s OUTDIR [--hostile]\n", argv[0]);
    return 2;
  }
  if (hostile) {
    xontorank::WriteHostile(out);
  } else {
    xontorank::WriteSeeds(out);
  }
  std::printf("make_fuzz_corpus: wrote %s inputs under %s\n",
              hostile ? "hostile" : "seed", out.c_str());
  return 0;
}
