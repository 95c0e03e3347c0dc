#ifndef XONTORANK_STORAGE_SEGMENT_FILE_H_
#define XONTORANK_STORAGE_SEGMENT_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/status.h"
#include "core/flat_dil.h"
#include "storage/segment_format.h"

namespace xontorank {

/// A memory-mapped, validated segment file: the RAII owner of the mapping
/// (mmap on Open, munmap on destruction) and the only module allowed to
/// touch the raw mmap/madvise syscalls (enforced by xo_lint's raw-mmap
/// rule). Opening performs no decode — the file's section bytes *are* the
/// FlatDil serving columns — so open cost is O(validation), not O(corpus),
/// and the served pages stay file-backed: the kernel drops them under
/// memory pressure and re-faults them from disk instead of swapping heap.
///
/// Open validates strictly before any column is served: magic, version,
/// declared-vs-actual size, footer + metadata CRC, per-section alignment /
/// bounds / element-size / count invariants against the header, and
/// monotonicity of the offset columns (so a hostile file cannot steer a
/// cursor out of the mapping). Every failure is a descriptive
/// Status::Corruption naming the path, byte offset, and section — never an
/// abort: a corrupt file on disk must not take the serving process down.
///
/// The mithril engine this design borrows from warns that mapping a large
/// dictionary cold "can take a good minute" when touched eagerly; the
/// Options knobs make that trade explicit instead of implicit — advise for
/// the expected access pattern, opt into prefetch, or skip checksums when
/// the file was verified out of band (checksum verification is the only
/// part of Open that faults in the whole file).
// xo-analyze: allow(backing-before-view) SegmentFile IS the backing: it
// owns the mapping its view aliases and unmaps it in the destructor.
class SegmentFile {
 public:
  struct Options {
    /// Access-pattern hint forwarded to madvise once validation is done.
    /// Query serving does skip-table jumps → kRandom by default; a
    /// sequential consumer (inspector, re-encoder) wants kSequential.
    enum class Advice { kNormal, kRandom, kSequential };
    Advice advice = Advice::kRandom;

    /// When true, asks the kernel to read the whole segment ahead
    /// (MADV_WILLNEED) so first queries don't fault one page at a time.
    bool prefetch = false;

    /// When false, skips the per-section CRC pass (metadata CRCs are
    /// always checked — they are 280 bytes, not the corpus). Cold opens
    /// become O(1) at the cost of deferring data-corruption detection.
    bool verify_checksums = true;

    /// Upper bound on the size a segment may claim: both the on-disk
    /// file (checked against fstat before mmap) and the header-declared
    /// byte count (checked before any count-derived work). 0 picks the
    /// default for the declared size — max(16 MiB, 8x the on-disk file
    /// size) — and leaves the on-disk size uncapped. Set it explicitly
    /// to bound how much a hostile or runaway file can make Open map
    /// and validate. Checked in O(1); failures are Corruption.
    uint64_t max_declared_size = 0;
  };

  /// One parsed section-table entry plus its spec, for the inspector and
  /// for tests.
  struct SectionInfo {
    const char* name;    ///< from kSegmentSections
    uint64_t offset;     ///< absolute byte offset in the file
    uint64_t bytes;      ///< payload length
    uint32_t crc32;      ///< stored section checksum
    uint64_t elements;   ///< bytes / element size
  };

  /// Parsed header fields, exposed for the inspector.
  struct Header {
    uint32_t version;
    uint64_t file_bytes;
    uint64_t keyword_count;
    uint64_t total_postings;
    uint64_t block_count;
    uint32_t flags;
  };

  /// Maps and validates `path`. On success the returned object owns the
  /// mapping; on any validation failure the mapping is released and a
  /// descriptive error comes back (IoError for filesystem problems,
  /// Corruption for bad bytes).
  [[nodiscard]] static Result<std::unique_ptr<SegmentFile>> Open(
      const std::string& path, const Options& options);

  /// Open with default options. (An overload rather than a default
  /// argument: Options' member initializers are incomplete at this point
  /// in the enclosing class.)
  [[nodiscard]] static Result<std::unique_ptr<SegmentFile>> Open(
      const std::string& path) {
    return Open(path, Options());
  }

  ~SegmentFile();

  SegmentFile(const SegmentFile&) = delete;
  SegmentFile& operator=(const SegmentFile&) = delete;

  /// A FlatDil in mapped-view mode whose columns alias this mapping. The
  /// SegmentFile must outlive every view (IndexSnapshot keeps the backing
  /// alive for exactly this reason).
  FlatDil MakeView() const { return FlatDil::FromSections(view_); }

  /// Faults the whole segment in ahead of use (MADV_WILLNEED) — the
  /// Options::prefetch knob, callable later.
  void Prefetch() const;

  const std::string& path() const { return path_; }
  const Header& header() const { return header_; }
  size_t file_bytes() const { return size_; }

  /// The file's sections — kSegmentSectionCountV1 of them for a v1
  /// segment (no block_max), kSegmentSectionCount for v2.
  std::span<const SectionInfo> sections() const {
    return std::span<const SectionInfo>(infos_, section_count_);
  }

  /// True when the mapped view carries the block-max column (v2): its
  /// queries are eligible for top-k pruning. v1 segments still open and
  /// serve — on the exact merge path.
  bool has_block_max() const {
    return section_count_ == kSegmentSectionCount;
  }

 private:
  SegmentFile(std::string path, void* base, size_t size)
      : path_(std::move(path)), base_(base), size_(size) {}

  /// Parses + validates the mapping, fills header_/infos_/view_.
  Status Validate(const Options& options);

  std::string path_;
  void* base_ = nullptr;
  size_t size_ = 0;
  Header header_{};
  SectionInfo infos_[kSegmentSectionCount] = {};
  size_t section_count_ = 0;  ///< sections this file actually carries
  FlatDil::Sections view_{};
};

}  // namespace xontorank

#endif  // XONTORANK_STORAGE_SEGMENT_FILE_H_
