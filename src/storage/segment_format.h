#ifndef XONTORANK_STORAGE_SEGMENT_FORMAT_H_
#define XONTORANK_STORAGE_SEGMENT_FORMAT_H_

#include <cstddef>
#include <cstdint>

namespace xontorank {

/// Byte-level constants of the mmap-native segment format, shared by
/// SegmentWriter (encode) and SegmentFile (open/validate). It is the
/// engine's only persisted index format. Its contract is that the section
/// payloads are byte-for-byte the FlatDil serving columns
/// (FlatDil::Sections, in declaration order), so opening a segment is mmap
/// + pointer fixup, never a decode. See DESIGN.md §11 for the full layout
/// table and rationale.
///
/// ```
///   offset 0    header, 64 bytes:
///                 magic "XOSG" · version u32 · file_bytes u64 ·
///                 keyword_count u64 · total_postings u64 ·
///                 block_count u64 · section_count u32 · flags u32 ·
///                 reserved[16]
///   offset 64   section table, section_count × 24 bytes:
///                 {offset u64, bytes u64, crc32 u32, reserved u32}
///   offset 320  sections, each 64-byte aligned, zero-padded between
///   EOF-8       footer: crc32 u32 over the header + table · magic "gsox"
/// ```
///
/// Version 2 is the only one a reader accepts. Version 1, which predates
/// the per-block `block_max` column, is retired: every segment written
/// since the `MANIFEST` v2 commit record carries it, and no older engine
/// directory loads.
///
/// Every integer and double is little-endian, in the header, the table and
/// the section payloads alike. The reader maps the columns in place, so
/// both sides static_assert a little-endian host; a big-endian port would
/// have to byte-swap on encode and decode every column on open.
inline constexpr char kSegmentMagic[4] = {'X', 'O', 'S', 'G'};
inline constexpr uint32_t kSegmentVersion = 2;
inline constexpr uint32_t kSegmentFooterMagic = 0x786f7367u;  // "gsox"

/// Every section starts on a 64-byte boundary: cache-line aligned, which
/// also over-satisfies the strictest element alignment (double, 8).
inline constexpr size_t kSegmentAlign = 64;

inline constexpr size_t kSegmentHeaderBytes = 64;
inline constexpr size_t kSegmentSectionCount = 10;
inline constexpr size_t kSegmentTableEntryBytes = 24;

/// End of the metadata the footer CRC covers (header + section table).
inline constexpr size_t kSegmentTableEnd =
    kSegmentHeaderBytes + kSegmentSectionCount * kSegmentTableEntryBytes;
inline constexpr size_t kSegmentFooterBytes = 8;
/// First section offset: the table end rounded up to the alignment.
inline constexpr size_t kSegmentSectionStart =
    (kSegmentTableEnd + kSegmentAlign - 1) / kSegmentAlign * kSegmentAlign;
/// No well-formed segment is smaller than metadata + footer.
inline constexpr size_t kSegmentMinBytes =
    kSegmentSectionStart + kSegmentFooterBytes;

/// One section's identity: its name (used verbatim in corruption error
/// messages and the inspector) and element size (its byte length must be a
/// multiple). Order matches FlatDil::Sections member order exactly.
struct SegmentSectionSpec {
  const char* name;
  size_t elem_size;
};

inline constexpr SegmentSectionSpec kSegmentSections[kSegmentSectionCount] = {
    {"keyword_arena", 1},    // char
    {"keyword_offsets", 4},  // uint32_t, keyword_count + 1
    {"list_begin", 4},       // uint32_t, keyword_count + 1
    {"scores", 8},           // double, total_postings
    {"shared", 2},           // uint16_t, total_postings
    {"suffix_offsets", 4},   // uint32_t, total_postings + 1
    {"dewey_arena", 4},      // uint32_t
    {"skip_first_doc", 4},   // uint32_t, block_count
    {"skip_begin", 4},       // uint32_t, keyword_count + 1
    {"block_max", 4},        // float, block_count
};

inline constexpr size_t SegmentAlignUp(size_t n) {
  return (n + kSegmentAlign - 1) / kSegmentAlign * kSegmentAlign;
}

}  // namespace xontorank

#endif  // XONTORANK_STORAGE_SEGMENT_FORMAT_H_
