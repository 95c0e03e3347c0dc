#ifndef XONTORANK_STORAGE_SEGMENT_WRITER_H_
#define XONTORANK_STORAGE_SEGMENT_WRITER_H_

#include <string>

#include "common/status.h"
#include "core/flat_dil.h"

namespace xontorank {

/// Serializes `dil`'s serving columns into the mmap-native segment format
/// (segment_format.h): the returned bytes are exactly what SegmentFile
/// maps and serves, with no decode step between disk and query. Raw
/// columns compress nothing; the trade is O(1) open time and
/// page-cache-backed serving memory.
///
/// `version` selects the format revision to emit — the current one by
/// default; kSegmentVersionV1 writes a v1 segment without the block_max
/// column (compatibility tests, downgrade escapes). Any other value is a
/// programming error (XO_CHECK).
std::string EncodeSegment(const FlatDil& dil);
std::string EncodeSegment(const FlatDil& dil, uint32_t version);

/// Writes the encoded segment to `path` (atomically: temp file + rename). Works for owning and mapped-view dils alike — writing
/// a mapped view back out is a byte-identical copy of its sections.
[[nodiscard]] Status SaveSegment(const FlatDil& dil, const std::string& path);

}  // namespace xontorank

#endif  // XONTORANK_STORAGE_SEGMENT_WRITER_H_
