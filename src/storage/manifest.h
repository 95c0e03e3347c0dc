#ifndef XONTORANK_STORAGE_MANIFEST_H_
#define XONTORANK_STORAGE_MANIFEST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace xontorank {

/// The binary segment manifest of an engine directory (DESIGN.md §15):
/// the authoritative, atomically-replaced list of live segments plus a
/// monotonically increasing generation. A directory is valid iff its
/// MANIFEST is — segment files not listed there are garbage from an
/// interrupted save/compaction and are ignored (then collected) on load.
///
/// Wire format (fixed-width little-endian, CRC-terminated):
///
/// | field            | encoding  | meaning                               |
/// |------------------|-----------|---------------------------------------|
/// | magic            | "XOMF"    | file type tag                         |
/// | version          | fixed32   | format version, currently 1           |
/// | generation lo/hi | 2×fixed32 | commit generation, >= 1, increasing   |
/// | segment count    | fixed32   | number of entries that follow         |
/// | per entry:       |           |                                       |
/// |   id lo/hi       | 2×fixed32 | segment id -> seg-<id>.xoseg          |
/// |   first_doc      | fixed32   | first global doc id of the segment    |
/// |   end_doc        | fixed32   | one past the last doc id              |
/// | crc32            | fixed32   | CRC of all preceding bytes            |
///
/// Every field is fixed-width so the exact file size is arithmetic in the
/// count — the decoder rejects any size mismatch before touching entries,
/// and never allocates proportionally to attacker-controlled lengths.
struct ManifestSegment {
  uint64_t id = 0;
  uint32_t first_doc = 0;
  uint32_t end_doc = 0;
};

struct EngineManifest {
  uint64_t generation = 0;
  std::vector<ManifestSegment> segments;
};

/// Serializes `manifest` into the wire format above (CRC included).
std::string EncodeManifest(const EngineManifest& manifest);

/// Decodes and validates a manifest image. Hostile input is the design
/// point (the fuzz_manifest surface): beyond magic/version/CRC/size checks
/// it enforces the semantic invariants load depends on — generation >= 1,
/// entries tile [0, N) in order (first entry starts at 0, each entry's
/// end is the next one's start, every range non-empty) and segment ids are
/// unique — so a CRC-valid but inconsistent segment list cannot reach the
/// engine.
[[nodiscard]] Result<EngineManifest> DecodeManifest(std::string_view data);

/// Writes `manifest` to `path` atomically (temp file + rename), serialized
/// process-wide on ManifestFileMutex. The rename IS the commit point of a
/// save: a crash before it leaves the previous manifest (and thus the
/// previous generation's engine state) intact and loadable.
[[nodiscard]] Status SaveManifest(const EngineManifest& manifest,
                                  const std::string& path);

/// Reads and decodes the manifest at `path`.
[[nodiscard]] Result<EngineManifest> LoadManifest(const std::string& path);

}  // namespace xontorank

#endif  // XONTORANK_STORAGE_MANIFEST_H_
