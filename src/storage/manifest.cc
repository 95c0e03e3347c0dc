#include "storage/manifest.h"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <unordered_set>

#include "common/file_io.h"
#include "storage/coding.h"

namespace xontorank {

namespace {

constexpr char kMagic[4] = {'X', 'O', 'M', 'F'};
constexpr uint32_t kVersion = 2;
constexpr uint32_t kRetiredVersion = 1;

/// Bytes before the entries: magic + version + generation + ontology
/// count + options (four codes/flags, two 64-bit counts, six doubles) +
/// segment count. Every record is fixed-width, so the full file size is
/// exact arithmetic in the entry count.
constexpr size_t kOptionsBytes = 4 * 4 + 2 * 8 + 6 * 8;
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 4 + kOptionsBytes + 4;
constexpr size_t kEntryBytes = 8 + 4 + 4;
constexpr size_t kCrcBytes = 4;

// Enum codes are the enumerators' declaration order; reordering them is a
// format change.
constexpr uint32_t kStrategyCount = std::size(kAllStrategies);
constexpr uint32_t kVocabularyModeCount =
    static_cast<uint32_t>(IndexBuildOptions::VocabularyMode::kNone) + 1;

void PutFixed64(std::string* out, uint64_t value) {
  PutFixed32(out, static_cast<uint32_t>(value));
  PutFixed32(out, static_cast<uint32_t>(value >> 32));
}

bool GetFixed64(Decoder* decoder, uint64_t* value) {
  uint32_t lo = 0;
  uint32_t hi = 0;
  if (!decoder->GetFixed32(&lo) || !decoder->GetFixed32(&hi)) return false;
  *value = (static_cast<uint64_t>(hi) << 32) | lo;
  return true;
}

/// The options' doubles, in wire order.
template <typename Options>
auto WireDoubles(Options& o) {
  return std::array{&o.score.decay,   &o.score.threshold,
                    &o.score.ontology_weight,
                    &o.score.bm25.k1, &o.score.bm25.b,
                    &o.elem_rank_blend};
}

}  // namespace

std::string SegmentFileName(uint64_t id) {
  return "seg-" + std::to_string(id) + ".xoseg";
}

bool IsSegmentFileName(std::string_view name) {
  return name.size() > 10 && name.starts_with("seg-") &&
         name.ends_with(".xoseg");
}

Status RetiredLayoutError(const std::string& where) {
  return Status::Corruption(
      where + " is in the retired manifest.tsv layout; rebuild the "
              "directory with save-engine");
}

std::string EncodeManifest(const EngineManifest& manifest) {
  const IndexBuildOptions& o = manifest.options;
  std::string out;
  out.reserve(kHeaderBytes + manifest.segments.size() * kEntryBytes +
              kCrcBytes);
  out.append(kMagic, sizeof(kMagic));
  PutFixed32(&out, kVersion);
  PutFixed64(&out, manifest.generation);
  PutFixed32(&out, manifest.ontology_count);
  PutFixed32(&out, static_cast<uint32_t>(o.strategy));
  PutFixed32(&out, static_cast<uint32_t>(o.vocabulary_mode));
  PutFixed32(&out, o.use_elem_rank ? 1 : 0);
  PutFixed32(&out, o.lsm.auto_compact ? 1 : 0);
  PutFixed64(&out, o.score.max_concepts_per_keyword);
  PutFixed64(&out, o.lsm.compaction_fanin);
  for (const double* value : WireDoubles(o)) {
    PutFixed64(&out, std::bit_cast<uint64_t>(*value));
  }
  PutFixed32(&out, static_cast<uint32_t>(manifest.segments.size()));
  for (const ManifestSegment& segment : manifest.segments) {
    PutFixed64(&out, segment.id);
    PutFixed32(&out, segment.first_doc);
    PutFixed32(&out, segment.end_doc);
  }
  PutFixed32(&out, Crc32(out));
  return out;
}

Result<EngineManifest> DecodeManifest(std::string_view data) {
  if (data.size() < 4 + 4 + kCrcBytes) {
    return Status::Corruption("manifest truncated");
  }
  if (std::string_view(data.data(), 4) != std::string_view(kMagic, 4)) {
    return Status::Corruption("bad manifest magic");
  }
  // CRC first: every later check may then trust the bytes to be the ones
  // some writer produced (hostile-but-CRC-valid input still hits the
  // semantic checks below).
  uint32_t stored_crc = 0;
  Decoder crc_decoder(data.substr(data.size() - kCrcBytes));
  if (!crc_decoder.GetFixed32(&stored_crc) ||
      Crc32(data.substr(0, data.size() - kCrcBytes)) != stored_crc) {
    return Status::Corruption("manifest checksum mismatch");
  }

  Decoder decoder(data.substr(4, data.size() - 4 - kCrcBytes));
  uint32_t version = 0;
  if (!decoder.GetFixed32(&version)) {
    return Status::Corruption("manifest truncated");
  }
  if (version == kRetiredVersion) {
    return RetiredLayoutError("MANIFEST version 1");
  }
  if (version != kVersion) {
    return Status::Corruption("unsupported manifest version " +
                              std::to_string(version));
  }

  EngineManifest manifest;
  IndexBuildOptions& o = manifest.options;
  uint32_t strategy = 0;
  uint32_t vocabulary = 0;
  uint32_t use_elem_rank = 0;
  uint32_t auto_compact = 0;
  uint64_t max_concepts = 0;
  uint64_t fanin = 0;
  uint32_t count = 0;
  bool read = GetFixed64(&decoder, &manifest.generation) &&
              decoder.GetFixed32(&manifest.ontology_count) &&
              decoder.GetFixed32(&strategy) &&
              decoder.GetFixed32(&vocabulary) &&
              decoder.GetFixed32(&use_elem_rank) &&
              decoder.GetFixed32(&auto_compact) &&
              GetFixed64(&decoder, &max_concepts) &&
              GetFixed64(&decoder, &fanin);
  bool finite = true;
  for (double* value : WireDoubles(o)) {
    uint64_t bits = 0;
    read = read && GetFixed64(&decoder, &bits);
    *value = std::bit_cast<double>(bits);
    finite = finite && std::isfinite(*value);
  }
  if (!read || !decoder.GetFixed32(&count)) {
    return Status::Corruption("manifest truncated");
  }

  if (manifest.generation == 0) {
    return Status::Corruption("manifest generation must be >= 1");
  }
  if (manifest.ontology_count == 0) {
    return Status::Corruption("manifest lists no ontologies");
  }
  if (strategy >= kStrategyCount) {
    return Status::Corruption("unknown strategy code in manifest");
  }
  if (vocabulary >= kVocabularyModeCount) {
    return Status::Corruption("unknown vocabulary mode code in manifest");
  }
  if (use_elem_rank > 1 || auto_compact > 1) {
    return Status::Corruption("manifest flag is neither 0 nor 1");
  }
  if (!finite) {
    return Status::Corruption("manifest option is not a finite number");
  }
  o.strategy = static_cast<Strategy>(strategy);
  o.vocabulary_mode =
      static_cast<IndexBuildOptions::VocabularyMode>(vocabulary);
  o.use_elem_rank = use_elem_rank == 1;
  o.lsm.auto_compact = auto_compact == 1;
  o.score.max_concepts_per_keyword = max_concepts;
  o.lsm.compaction_fanin = fanin;

  // Exact-size check before touching entries: fixed-width records make the
  // expected size pure arithmetic, and a count that does not match the
  // byte count is rejected without any count-sized allocation.
  if (decoder.remaining() != static_cast<size_t>(count) * kEntryBytes) {
    return Status::Corruption("manifest entry count does not match size");
  }
  manifest.segments.reserve(count);
  std::unordered_set<uint64_t> seen_ids;
  uint32_t expect_doc = 0;
  for (uint32_t i = 0; i < count; ++i) {
    ManifestSegment segment;
    if (!GetFixed64(&decoder, &segment.id) ||
        !decoder.GetFixed32(&segment.first_doc) ||
        !decoder.GetFixed32(&segment.end_doc)) {
      return Status::Corruption("manifest truncated");
    }
    if (!seen_ids.insert(segment.id).second) {
      return Status::Corruption("manifest lists a segment id twice");
    }
    // The tiling invariant the snapshot requires: contiguous, non-empty,
    // ascending document ranges starting at 0.
    if (segment.first_doc != expect_doc || segment.end_doc <= expect_doc) {
      return Status::Corruption("manifest segments do not tile the corpus");
    }
    expect_doc = segment.end_doc;
    manifest.segments.push_back(segment);
  }
  return manifest;
}

Status SaveManifest(const EngineManifest& manifest, const std::string& path) {
  return WriteFileDurable(path, EncodeManifest(manifest));
}

Result<EngineManifest> LoadManifest(const std::string& path) {
  XONTO_ASSIGN_OR_RETURN(std::string data, ReadFile(path));
  Result<EngineManifest> decoded = DecodeManifest(data);
  if (!decoded.ok()) {
    return Status::Corruption(path + ": " + decoded.status().message());
  }
  return decoded;
}

}  // namespace xontorank
