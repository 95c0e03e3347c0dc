#include "storage/manifest.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "common/sync.h"
#include "storage/coding.h"

namespace xontorank {

namespace {

constexpr char kMagic[4] = {'X', 'O', 'M', 'F'};
constexpr uint32_t kVersion = 1;

/// Bytes before the entries: magic + version + generation (2 words) +
/// count. Every record is fixed-width, so the full file size is exact
/// arithmetic in the entry count.
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 4;
constexpr size_t kEntryBytes = 8 + 4 + 4;
constexpr size_t kCrcBytes = 4;

/// Serializes SaveManifest's temp-file + rename sequence, same reasoning
/// as SegmentFileMutex: concurrent saves to one path share the
/// "<path>.tmp" name. Acquired AFTER the engine-store save lock when
/// reached through SaveSnapshot — see the lock-order table in
/// common/sync.h and DESIGN.md §9.
Mutex& ManifestFileMutex() {
  // xo-lint: allow(new-delete) — leaked singleton, see above.
  static Mutex* mutex = new Mutex();
  return *mutex;
}

}  // namespace

std::string EncodeManifest(const EngineManifest& manifest) {
  std::string out;
  out.reserve(kHeaderBytes + manifest.segments.size() * kEntryBytes +
              kCrcBytes);
  out.append(kMagic, sizeof(kMagic));
  PutFixed32(&out, kVersion);
  PutFixed32(&out, static_cast<uint32_t>(manifest.generation));
  PutFixed32(&out, static_cast<uint32_t>(manifest.generation >> 32));
  PutFixed32(&out, static_cast<uint32_t>(manifest.segments.size()));
  for (const ManifestSegment& segment : manifest.segments) {
    PutFixed32(&out, static_cast<uint32_t>(segment.id));
    PutFixed32(&out, static_cast<uint32_t>(segment.id >> 32));
    PutFixed32(&out, segment.first_doc);
    PutFixed32(&out, segment.end_doc);
  }
  PutFixed32(&out, Crc32(out));
  return out;
}

Result<EngineManifest> DecodeManifest(std::string_view data) {
  if (data.size() < kHeaderBytes + kCrcBytes) {
    return Status::Corruption("manifest truncated");
  }
  if (std::string_view(data.data(), 4) != std::string_view(kMagic, 4)) {
    return Status::Corruption("bad manifest magic");
  }
  // CRC first: every later check may then trust the bytes to be the ones
  // some writer produced (hostile-but-CRC-valid input still hits the
  // semantic checks below).
  uint32_t stored_crc = 0;
  {
    Decoder crc_decoder(data.substr(data.size() - kCrcBytes));
    if (!crc_decoder.GetFixed32(&stored_crc)) {
      return Status::Corruption("manifest truncated");
    }
  }
  if (Crc32(data.substr(0, data.size() - kCrcBytes)) != stored_crc) {
    return Status::Corruption("manifest checksum mismatch");
  }

  Decoder decoder(data.substr(4, data.size() - 4 - kCrcBytes));
  uint32_t version = 0;
  uint32_t gen_lo = 0;
  uint32_t gen_hi = 0;
  uint32_t count = 0;
  if (!decoder.GetFixed32(&version) || !decoder.GetFixed32(&gen_lo) ||
      !decoder.GetFixed32(&gen_hi) || !decoder.GetFixed32(&count)) {
    return Status::Corruption("manifest truncated");
  }
  if (version != kVersion) {
    return Status::Corruption("unsupported manifest version");
  }
  // Exact-size check before touching entries: fixed-width records make the
  // expected size pure arithmetic, and a count that does not match the
  // byte count is rejected without any count-sized allocation.
  if (decoder.remaining() != static_cast<size_t>(count) * kEntryBytes) {
    return Status::Corruption("manifest entry count does not match size");
  }

  EngineManifest manifest;
  manifest.generation = (static_cast<uint64_t>(gen_hi) << 32) | gen_lo;
  if (manifest.generation == 0) {
    return Status::Corruption("manifest generation must be >= 1");
  }
  manifest.segments.reserve(count);
  std::unordered_set<uint64_t> seen_ids;
  uint32_t expect_doc = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t id_lo = 0;
    uint32_t id_hi = 0;
    ManifestSegment segment;
    if (!decoder.GetFixed32(&id_lo) || !decoder.GetFixed32(&id_hi) ||
        !decoder.GetFixed32(&segment.first_doc) ||
        !decoder.GetFixed32(&segment.end_doc)) {
      return Status::Corruption("manifest truncated");
    }
    segment.id = (static_cast<uint64_t>(id_hi) << 32) | id_lo;
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
  if (!decoder.AtEnd()) {
    return Status::Corruption("trailing bytes in manifest");
  }
  return manifest;
}

Status SaveManifest(const EngineManifest& manifest, const std::string& path) {
  std::string encoded = EncodeManifest(manifest);
  MutexLock lock(ManifestFileMutex());
  std::string tmp_path = path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open " + tmp_path + " for writing");
  }
  size_t written = std::fwrite(encoded.data(), 1, encoded.size(), f);
  bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != encoded.size() || !flushed) {
    std::remove(tmp_path.c_str());
    return Status::IoError("short write to " + tmp_path);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IoError("cannot rename " + tmp_path + " to " + path);
  }
  return Status::OK();
}

Result<EngineManifest> LoadManifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path + " for reading");
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string data = buffer.str();
  Result<EngineManifest> decoded = DecodeManifest(data);
  if (!decoded.ok()) {
    return Status::Corruption(path + ": " + decoded.status().message());
  }
  return decoded;
}

}  // namespace xontorank
