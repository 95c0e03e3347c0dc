#include "storage/segment_writer.h"

#include <bit>
#include <cstring>

#include "common/check.h"
#include "common/file_io.h"
#include "storage/coding.h"
#include "storage/segment_format.h"

namespace xontorank {

namespace {

// The format is little-endian (segment_format.h). The writer copies the
// serving columns byte for byte and appends metadata in native order, so
// it emits that byte order only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the .xoseg writer copies native-order columns");

// Native-order (little-endian, see above) fixed-width appends/patches.
// The casts here run in the encode direction — serializing trusted
// in-memory values, not interpreting untrusted bytes — hence the
// untrusted-decode suppressions.
void AppendU32(std::string* out, uint32_t value) {
  out->append(reinterpret_cast<const char*>(&value),  // xo-lint: allow(untrusted-decode)
              sizeof(value));
}

void AppendU64(std::string* out, uint64_t value) {
  out->append(reinterpret_cast<const char*>(&value),  // xo-lint: allow(untrusted-decode)
              sizeof(value));
}

void PatchU32(std::string* out, size_t offset, uint32_t value) {
  std::memcpy(out->data() + offset, &value, sizeof(value));
}

void PatchU64(std::string* out, size_t offset, uint64_t value) {
  std::memcpy(out->data() + offset, &value, sizeof(value));
}

/// Pads with zero bytes to the next section boundary.
void PadToAlignment(std::string* out) {
  out->resize(SegmentAlignUp(out->size()), '\0');
}

}  // namespace

std::string EncodeSegment(const FlatDil& dil) {
  const FlatDil::Sections& v = dil.sections();

  // The section payloads, in kSegmentSections order: raw bytes of the
  // serving columns (little-endian, exactly as FlatDil reads them).
  struct Payload {
    const void* data;
    size_t bytes;
  };
  const Payload payloads[kSegmentSectionCount] = {
      {v.keyword_arena.data(), v.keyword_arena.size()},
      {v.keyword_offsets.data(), v.keyword_offsets.size_bytes()},
      {v.list_begin.data(), v.list_begin.size_bytes()},
      {v.scores.data(), v.scores.size_bytes()},
      {v.shared.data(), v.shared.size_bytes()},
      {v.suffix_offsets.data(), v.suffix_offsets.size_bytes()},
      {v.dewey_arena.data(), v.dewey_arena.size_bytes()},
      {v.skip_first_doc.data(), v.skip_first_doc.size_bytes()},
      {v.skip_begin.data(), v.skip_begin.size_bytes()},
      {v.block_max.data(), v.block_max.size_bytes()},
  };
  // Never write a block_max column that does not cover every block:
  // cursors read it without asking.
  XO_CHECK_EQ(v.block_max.size(), v.skip_first_doc.size());

  // The file's exact size, so the image is written into one allocation
  // (doubling growth would hold up to twice the segment at the end).
  size_t file_bytes = kSegmentTableEnd;
  for (size_t s = 0; s < kSegmentSectionCount; ++s) {
    file_bytes = SegmentAlignUp(file_bytes) + payloads[s].bytes;
  }
  file_bytes += kSegmentFooterBytes;

  std::string out;
  out.reserve(file_bytes);
  // Header (file_bytes is patched once the total is known).
  out.append(kSegmentMagic, sizeof(kSegmentMagic));
  AppendU32(&out, kSegmentVersion);
  constexpr size_t kFileBytesOffset = 8;
  AppendU64(&out, 0);  // file_bytes placeholder
  AppendU64(&out, dil.keyword_count());
  AppendU64(&out, dil.total_postings());
  AppendU64(&out, dil.TotalBlocks());
  AppendU32(&out, static_cast<uint32_t>(kSegmentSectionCount));
  AppendU32(&out, 0);  // flags, reserved
  out.resize(kSegmentHeaderBytes, '\0');

  // Section table placeholder, patched per section below.
  out.resize(kSegmentTableEnd, '\0');

  for (size_t s = 0; s < kSegmentSectionCount; ++s) {
    PadToAlignment(&out);
    size_t offset = out.size();
    out.append(static_cast<const char*>(payloads[s].data),
               payloads[s].bytes);
    size_t entry = kSegmentHeaderBytes + s * kSegmentTableEntryBytes;
    PatchU64(&out, entry, offset);
    PatchU64(&out, entry + 8, payloads[s].bytes);
    PatchU32(&out, entry + 16,
             Crc32(std::string_view(out).substr(offset, payloads[s].bytes)));
  }

  PatchU64(&out, kFileBytesOffset, out.size() + kSegmentFooterBytes);
  // Footer: CRC over the (now final) header + section table, then magic.
  AppendU32(&out, Crc32(std::string_view(out).substr(0, kSegmentTableEnd)));
  AppendU32(&out, kSegmentFooterMagic);
  XO_CHECK_EQ(out.size() % 4, 0u);
  XO_CHECK_EQ(out.size(), file_bytes);
  return out;
}

Status SaveSegment(const FlatDil& dil, const std::string& path) {
  return WriteFileDurable(path, EncodeSegment(dil));
}

}  // namespace xontorank
