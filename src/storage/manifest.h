#ifndef XONTORANK_STORAGE_MANIFEST_H_
#define XONTORANK_STORAGE_MANIFEST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/options.h"

namespace xontorank {

/// The commit record of an engine directory (DESIGN.md §15): everything a
/// load needs besides the files it names — the options the lists were
/// built with, the ontology count and the live segments — plus a
/// monotonically increasing generation. It is replaced atomically and a
/// directory is valid iff its MANIFEST is; segment files not listed there
/// are garbage from an interrupted save/compaction, ignored on load and
/// collected by the next save.
///
/// Wire format, version 2 (fixed-width little-endian, CRC-terminated;
/// 64-bit values are lo/hi fixed32 pairs, doubles their raw IEEE bits):
///
/// | field              | encoding  | meaning                              |
/// |--------------------|-----------|--------------------------------------|
/// | magic              | "XOMF"    | file type tag                        |
/// | version            | fixed32   | 2; 1 is the retired text layout      |
/// | generation         | fixed64   | commit generation, >= 1, increasing  |
/// | ontology count     | fixed32   | ontology_<i>.tsv for i < count, >= 1 |
/// | strategy           | fixed32   | Strategy code (declaration order)    |
/// | vocabulary mode    | fixed32   | VocabularyMode code                  |
/// | use_elem_rank      | fixed32   | 0 or 1                               |
/// | auto_compact       | fixed32   | 0 or 1                               |
/// | max concepts       | fixed64   | max_concepts_per_keyword (0 = none)  |
/// | compaction fanin   | fixed64   | LsmOptions::compaction_fanin         |
/// | decay, threshold,  | 6×fixed64 | finite doubles: ScoreOptions decay,  |
/// | ω, k1, b, blend    |           | threshold, ω, BM25 k1 and b, then    |
/// |                    |           | elem_rank_blend                      |
/// | segment count      | fixed32   | number of entries that follow        |
/// | per entry:         |           |                                      |
/// |   id               | fixed64   | segment id -> SegmentFileName(id)    |
/// |   first_doc        | fixed32   | first global doc id of the segment   |
/// |   end_doc          | fixed32   | one past the last doc id             |
/// | crc32              | fixed32   | CRC of all preceding bytes           |
///
/// Every field is fixed-width so the exact file size is arithmetic in the
/// count — the decoder rejects any size mismatch before touching entries,
/// and never allocates proportionally to attacker-controlled lengths. The
/// corpus holds the last entry's end_doc documents, corpus/doc_<d>.xml.
struct ManifestSegment {
  uint64_t id = 0;
  uint32_t first_doc = 0;
  uint32_t end_doc = 0;
};

struct EngineManifest {
  uint64_t generation = 0;
  std::vector<ManifestSegment> segments;
  uint32_t ontology_count = 1;
  /// The fields listed above round-trip; the rest keep their defaults.
  IndexBuildOptions options;
};

/// The file of segment `id` inside an engine directory ("seg-<id>.xoseg"),
/// and whether `name` is such a file.
std::string SegmentFileName(uint64_t id);
bool IsSegmentFileName(std::string_view name);

/// Serializes `manifest` into the wire format above (CRC included).
std::string EncodeManifest(const EngineManifest& manifest);

/// Decodes and validates a manifest image. Hostile input is the design
/// point (the fuzz_manifest surface): beyond magic/version/CRC/size checks
/// it enforces the invariants load depends on — enum codes and flags in
/// range, doubles finite, at least one ontology, generation >= 1, entries
/// tile [0, N) in order (first entry starts at 0, each entry's end is the
/// next one's start, every range non-empty) and segment ids unique — so a
/// CRC-valid but inconsistent record cannot reach the engine. A version-1
/// image yields Corruption naming the retired layout.
[[nodiscard]] Result<EngineManifest> DecodeManifest(std::string_view data);

/// Writes `manifest` to `path` with WriteFileDurable. The rename IS the
/// commit point of a save: a crash before it leaves the previous manifest
/// (and thus the previous generation's engine state) intact and loadable.
[[nodiscard]] Status SaveManifest(const EngineManifest& manifest,
                                  const std::string& path);

/// Reads and decodes the manifest at `path`.
[[nodiscard]] Result<EngineManifest> LoadManifest(const std::string& path);

/// The Corruption status for a directory in the retired layout, whose
/// options lived in a text file beside a version-1 MANIFEST (or none).
Status RetiredLayoutError(const std::string& where);

}  // namespace xontorank

#endif  // XONTORANK_STORAGE_MANIFEST_H_
