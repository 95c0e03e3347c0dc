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
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "cda/cda_document.h"
#include "cda/cda_generator.h"
#include "common/random.h"
#include "core/flat_dil.h"
#include "onto/snomed_fragment.h"
#include "storage/coding.h"
#include "storage/manifest.h"
#include "storage/segment_format.h"
#include "storage/segment_writer.h"
#include "tests/reference_eval.h"
#include "xml/xml_writer.h"

namespace xontorank {
namespace {

using reference::FreezeLists;
using reference::Lists;
using reference::Posting;

namespace fs = std::filesystem;

void WriteFile(const fs::path& dir, const std::string& name,
               std::string_view bytes) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Same shape as the segment/flat-dil tests' randomized index.
Lists RandomDil(Rng& rng, size_t num_keywords, size_t max_postings) {
  Lists dil;
  for (size_t w = 0; w < num_keywords; ++w) {
    std::vector<Posting> postings;
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
    dil["kw" + std::to_string(w)] = std::move(postings);
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

/// Query-harness input: four option bytes (top_k, parallelism, cache,
/// pruning) followed by the query text.
std::string QuerySeed(std::string_view text) {
  std::string bytes = {'\x05', '\x01', '\x01', '\x01'};
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
  uint32_t crc = Crc32(std::string_view(bytes->data(), kSegmentTableEnd));
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

/// A manifest of `generation` over `segments` with default options.
std::string Manifest(uint64_t generation,
                     std::vector<ManifestSegment> segments) {
  EngineManifest manifest;
  manifest.generation = generation;
  manifest.segments = std::move(segments);
  return EncodeManifest(manifest);
}

/// Overwrites the fixed32 at `offset` of a manifest image and re-signs it.
std::string PatchManifest(std::string bytes, size_t offset, uint32_t value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
  return ResignManifest(std::move(bytes));
}

/// Version-2 MANIFEST field offsets (storage/manifest.h).
constexpr size_t kOntologyCountOffset = 16;
constexpr size_t kStrategyOffset = 20;
constexpr size_t kVocabularyOffset = 24;
constexpr size_t kElemRankFlagOffset = 28;
constexpr size_t kSegmentCountOffset = 100;

void WriteSeeds(const fs::path& out) {
  // xml_parse: real CDA shapes plus small syntax variants.
  Ontology snomed = BuildSnomedCardiologyFragment();
  CdaGeneratorOptions cda_options;
  cda_options.num_documents = 1;
  cda_options.mean_encounters = 2;
  CdaGenerator generator(snomed, cda_options);
  WriteFile(out / "xml_parse", "cda_generated.xml",
            WriteXml(CdaToXml(generator.GenerateDocument(0), 0)));
  // A few full-size generated documents, so a campaign starts from the
  // documents the engine actually ingests.
  CdaGeneratorOptions full_options;
  full_options.seed = 2009;
  CdaGenerator full_generator(snomed, full_options);
  for (uint32_t i = 1; i <= 3; ++i) {
    WriteFile(out / "xml_parse", "cda_full_" + std::to_string(i) + ".xml",
              WriteXml(CdaToXml(full_generator.GenerateDocument(i), i)));
  }
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

  // segment_open: a small index, plus a multi-block one so the skip table
  // and block-max sections are non-trivial.
  Rng rng(42);
  FlatDil small = FreezeLists(RandomDil(rng, 6, 40));
  FlatDil blocky = FreezeLists(RandomDil(rng, 8, 400));
  WriteFile(out / "segment_open", "small_v2.xoseg", EncodeSegment(small));
  WriteFile(out / "segment_open", "blocky_v2.xoseg", EncodeSegment(blocky));

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

  // manifest: valid engine manifests of increasing shape — empty engine,
  // single sealed segment, a post-compaction tiering (merged segments
  // leave id gaps), high-word generation/id values, and every persisted
  // option away from its default.
  WriteFile(out / "manifest", "empty.xomf", Manifest(1, {}));
  WriteFile(out / "manifest", "single.xomf", Manifest(1, {{0, 0, 8}}));
  WriteFile(out / "manifest", "tiered.xomf",
            Manifest(7, {{5, 0, 16}, {3, 16, 20}, {4, 20, 21}, {6, 21, 24}}));
  WriteFile(out / "manifest", "hiword.xomf",
            Manifest(uint64_t{1} << 40,
                     {{uint64_t{1} << 36, 0, 3}, {2, 3, 5}}));
  EngineManifest options;
  options.generation = 3;
  options.segments = {{0, 0, 6}, {1, 6, 7}};
  options.ontology_count = 2;
  IndexBuildOptions& o = options.options;
  o.strategy = Strategy::kGraph;
  o.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
  o.use_elem_rank = true;
  o.lsm.auto_compact = false;
  o.score.max_concepts_per_keyword = 3;
  o.lsm.compaction_fanin = 6;
  o.score.decay = 0.4;
  o.score.threshold = 0.05;
  o.score.ontology_weight = 0.7;
  o.score.bm25.k1 = 1.6;
  o.score.bm25.b = 0.6;
  o.elem_rank_blend = 0.3;
  WriteFile(out / "manifest", "options.xomf", EncodeManifest(options));
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
  std::string segment = EncodeSegment(FreezeLists(RandomDil(rng, 6, 40)));

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

  // The retired version 1, re-signed: Open must reject it by its version.
  std::string v1_layout = segment;
  uint32_t retired_version = 1;
  std::memcpy(v1_layout.data() + 4, &retired_version,
              sizeof(retired_version));
  ResignSegment(&v1_layout);
  WriteFile(out / "segment_open", "v1_layout.xoseg", v1_layout);

  // query: extreme option bytes with degenerate text.
  WriteFile(out / "query", "all_options.txt",
            std::string("\xff\xff\xff\xff", 4) +
                std::string(512, ' '));

  // dewey: counts larger than the remaining bytes (components read as 0).
  WriteFile(out / "dewey", "overlong_count.bin", std::string("\xff\x01", 2));

  // manifest: the commit record of an engine dir. Truncation (the
  // crash-mid-write shape), CRC-valid-but-hostile records (stale
  // generation 0, tiling gap, duplicate id, empty range, zero ontologies,
  // out-of-range enum codes, a flag of 2, a non-finite double — all pass
  // the integrity gate, all must die in semantic validation), a re-signed
  // count bomb attacking the size arithmetic, and a version-1 image of
  // the retired layout that must be rejected by its version.
  std::string good = Manifest(3, {{0, 0, 4}, {1, 4, 8}});
  WriteFile(out / "manifest", "truncated.xomf",
            good.substr(0, good.size() - 9));
  WriteFile(out / "manifest", "gen_zero.xomf", Manifest(0, {{0, 0, 4}}));
  WriteFile(out / "manifest", "tiling_gap.xomf",
            Manifest(2, {{0, 0, 4}, {1, 5, 8}}));
  WriteFile(out / "manifest", "dup_id.xomf",
            Manifest(2, {{7, 0, 4}, {7, 4, 8}}));
  WriteFile(out / "manifest", "empty_range.xomf",
            Manifest(2, {{0, 0, 4}, {1, 4, 4}}));
  WriteFile(out / "manifest", "zero_ontologies.xomf",
            PatchManifest(good, kOntologyCountOffset, 0));
  WriteFile(out / "manifest", "bad_strategy.xomf",
            PatchManifest(good, kStrategyOffset, 4));
  WriteFile(out / "manifest", "bad_vocabulary.xomf",
            PatchManifest(good, kVocabularyOffset, 3));
  WriteFile(out / "manifest", "bad_flag.xomf",
            PatchManifest(good, kElemRankFlagOffset, 2));
  EngineManifest nan_decay;
  nan_decay.generation = 2;
  nan_decay.options.score.decay = std::numeric_limits<double>::quiet_NaN();
  WriteFile(out / "manifest", "nan_decay.xomf", EncodeManifest(nan_decay));
  WriteFile(out / "manifest", "count_bomb.xomf",
            PatchManifest(good, kSegmentCountOffset, uint32_t{1} << 28));
  // The retired version-1 layout: generation, count, one 16-byte entry.
  std::string v1("XOMF", 4);
  for (uint32_t word : {1u, 1u, 0u, 1u, 0u, 0u, 0u, 4u}) {
    PutFixed32(&v1, word);
  }
  PutFixed32(&v1, 0);
  WriteFile(out / "manifest", "v1_layout.xomf", ResignManifest(std::move(v1)));
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
