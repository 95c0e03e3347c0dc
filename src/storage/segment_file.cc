#include "storage/segment_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>

#include "storage/coding.h"

namespace xontorank {

namespace {

// The format is little-endian (segment_format.h), and the reader both
// fixes column pointers straight into the mapping and reads metadata with
// native-order memcpy: that is only correct on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the .xoseg reader maps little-endian columns in place");

/// Little-endian metadata reads out of the mapping. memcpy instead of a
/// reinterpret-cast load: header/table fields are not aligned to their
/// own width (the magic shifts everything by 4).
uint32_t LoadU32(const char* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t LoadU64(const char* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// "path: section <name>: <what> (offset N)" — every corruption error a
/// section can produce carries the file, the section, and where.
Status SectionError(const std::string& path, const char* name,
                    const std::string& what, uint64_t offset) {
  return Status::Corruption(path + ": section " + name + ": " + what +
                            " (offset " + std::to_string(offset) + ")");
}

/// The offset columns steer every arena access, so a mapped (untrusted)
/// file must prove they are monotone ramps with pinned endpoints before
/// any cursor runs over them; otherwise a crafted file could index
/// outside its own sections.
Status CheckOffsetColumn(const std::string& path, const char* name,
                         std::span<const uint32_t> column,
                         uint64_t expected_back, uint64_t table_offset) {
  if (column.front() != 0) {
    return SectionError(path, name,
                        "first entry " + std::to_string(column.front()) +
                            ", expected 0",
                        table_offset);
  }
  if (column.back() != expected_back) {
    return SectionError(path, name,
                        "last entry " + std::to_string(column.back()) +
                            ", expected " + std::to_string(expected_back),
                        table_offset);
  }
  for (size_t i = 1; i < column.size(); ++i) {
    if (column[i] < column[i - 1]) {
      return SectionError(path, name, "offsets decrease at entry " +
                                          std::to_string(i),
                          table_offset);
    }
  }
  return Status::OK();
}

int AdviceFlag(SegmentFile::Options::Advice advice) {
  switch (advice) {
    case SegmentFile::Options::Advice::kRandom:
      return MADV_RANDOM;
    case SegmentFile::Options::Advice::kSequential:
      return MADV_SEQUENTIAL;
    case SegmentFile::Options::Advice::kNormal:
      break;
  }
  return MADV_NORMAL;
}

}  // namespace

Result<std::shared_ptr<const SegmentFile>> SegmentFile::Open(
    const std::string& path, const Options& options) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open " + path +
                           " for reading: " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status status = Status::IoError("cannot stat " + path + ": " +
                                    std::strerror(errno));
    ::close(fd);
    return status;
  }
  size_t size = static_cast<size_t>(st.st_size);
  if (size < kSegmentMinBytes) {
    ::close(fd);
    return Status::Corruption(
        path + ": segment too small: " + std::to_string(size) +
        " bytes, minimum " + std::to_string(kSegmentMinBytes) +
        " (offset 0)");
  }
  if (options.max_declared_size != 0 && size > options.max_declared_size) {
    ::close(fd);
    return Status::Corruption(
        path + ": segment of " + std::to_string(size) +
        " bytes exceeds the configured max_declared_size of " +
        std::to_string(options.max_declared_size) + " (offset 0)");
  }
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference to the file
  if (base == MAP_FAILED) {
    return Status::IoError("cannot mmap " + path + ": " +
                           std::strerror(errno));
  }

  // The object owns the mapping from here on, so every validation exit
  // path (and the success path) releases or keeps it via RAII.
  std::shared_ptr<SegmentFile> segment(
      new SegmentFile(path, base, size));  // xo-lint: allow(new-delete)
  XONTO_RETURN_IF_ERROR(segment->Validate(options));
  return std::shared_ptr<const SegmentFile>(std::move(segment));
}

SegmentFile::~SegmentFile() {
  if (base_ != nullptr) ::munmap(base_, size_);
}

Status SegmentFile::Validate(const Options& options) {
  const char* bytes = static_cast<const char*>(base_);

  // Header.
  if (std::memcmp(bytes, kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    return Status::Corruption(path_ + ": bad segment magic (offset 0)");
  }
  header_.version = LoadU32(bytes + 4);
  if (header_.version != kSegmentVersion) {
    return Status::Corruption(
        path_ + ": unsupported segment version " +
        std::to_string(header_.version) + ", this build reads " +
        std::to_string(kSegmentVersion) + " (offset 4)");
  }
  header_.file_bytes = LoadU64(bytes + 8);
  header_.keyword_count = LoadU64(bytes + 16);
  header_.total_postings = LoadU64(bytes + 24);
  header_.block_count = LoadU64(bytes + 32);
  uint32_t section_count = LoadU32(bytes + 40);
  header_.flags = LoadU32(bytes + 44);
  // Resource cap on what the header may claim, before any count-derived
  // work: a hostile declared size is rejected here in O(1) rather than
  // shaping the validation passes below. 0 = the documented default of
  // max(16 MiB, 8x the on-disk size).
  uint64_t declared_cap = options.max_declared_size;
  if (declared_cap == 0) {
    constexpr uint64_t kDeclaredFloor = 16ull << 20;
    uint64_t scaled = static_cast<uint64_t>(size_) * 8;
    declared_cap = scaled > kDeclaredFloor ? scaled : kDeclaredFloor;
  }
  if (header_.file_bytes > declared_cap) {
    return Status::Corruption(
        path_ + ": header declares " + std::to_string(header_.file_bytes) +
        " bytes, over the declared-size cap of " +
        std::to_string(declared_cap) + " (offset 8)");
  }
  if (header_.file_bytes != size_) {
    return Status::Corruption(
        path_ + ": truncated segment: header declares " +
        std::to_string(header_.file_bytes) + " bytes, file has " +
        std::to_string(size_) + " (offset 8)");
  }
  if (section_count != kSegmentSectionCount) {
    return Status::Corruption(path_ + ": segment has " +
                              std::to_string(section_count) +
                              " sections, version " +
                              std::to_string(header_.version) + " expects " +
                              std::to_string(kSegmentSectionCount) +
                              " (offset 40)");
  }
  // The header counts size serving-side bookkeeping (FlatDil indexes with
  // uint32_t); reject values no writer can produce before deriving
  // expected section lengths from them.
  if (header_.keyword_count >= UINT32_MAX ||
      header_.total_postings >= UINT32_MAX ||
      header_.block_count >= UINT32_MAX) {
    return Status::Corruption(path_ +
                              ": implausible header counts (offset 16)");
  }
  // Tighter O(1) plausibility: every keyword needs at least one
  // keyword_offsets element (4 bytes), every posting a suffix_offsets
  // element (4) plus a shared element (2), every block a skip_first_doc
  // element (4) — counts a file of this size cannot physically carry are
  // corrupt regardless of what the section table claims.
  if (header_.keyword_count > header_.file_bytes / 4 ||
      header_.total_postings > header_.file_bytes / 6 ||
      header_.block_count > header_.file_bytes / 4) {
    return Status::Corruption(
        path_ + ": header counts exceed what " +
        std::to_string(header_.file_bytes) +
        " bytes can carry (offset 16)");
  }

  // Footer: magic, then the metadata CRC over header + section table —
  // checked before the table is trusted, so a torn metadata write cannot
  // steer the section walk below.
  if (LoadU32(bytes + size_ - 4) != kSegmentFooterMagic) {
    return Status::Corruption(path_ + ": bad segment footer magic (offset " +
                              std::to_string(size_ - 4) + ")");
  }
  uint32_t stored_meta_crc = LoadU32(bytes + size_ - 8);
  uint32_t actual_meta_crc = Crc32(std::string_view(bytes, kSegmentTableEnd));
  if (stored_meta_crc != actual_meta_crc) {
    return Status::Corruption(
        path_ + ": segment metadata CRC mismatch (offset " +
        std::to_string(size_ - 8) + ")");
  }

  // Section table: alignment, bounds, no overlap, whole elements, and the
  // element counts the header promises.
  const uint64_t expected_elements[kSegmentSectionCount] = {
      UINT64_MAX,                   // keyword_arena: cross-checked below
      header_.keyword_count + 1,    // keyword_offsets
      header_.keyword_count + 1,    // list_begin
      header_.total_postings,       // scores
      header_.total_postings,       // shared
      header_.total_postings + 1,   // suffix_offsets
      UINT64_MAX,                   // dewey_arena: cross-checked below
      header_.block_count,          // skip_first_doc
      header_.keyword_count + 1,    // skip_begin
      header_.block_count,          // block_max
  };
  uint64_t prev_end = kSegmentSectionStart;
  uint64_t data_end = size_ - kSegmentFooterBytes;
  for (size_t s = 0; s < kSegmentSectionCount; ++s) {
    const char* entry = bytes + kSegmentHeaderBytes +
                        s * kSegmentTableEntryBytes;
    const char* name = kSegmentSections[s].name;
    size_t elem_size = kSegmentSections[s].elem_size;
    SectionInfo& info = infos_[s];
    info.name = name;
    info.offset = LoadU64(entry);
    info.bytes = LoadU64(entry + 8);
    info.crc32 = LoadU32(entry + 16);
    if (info.offset % kSegmentAlign != 0) {
      return SectionError(path_, name, "misaligned section offset",
                          info.offset);
    }
    if (info.offset < prev_end || info.offset > data_end ||
        info.bytes > data_end - info.offset) {
      return SectionError(path_, name,
                          "section of " + std::to_string(info.bytes) +
                              " bytes out of bounds or overlapping",
                          info.offset);
    }
    if (info.bytes % elem_size != 0) {
      return SectionError(path_, name,
                          "misaligned length: " +
                              std::to_string(info.bytes) +
                              " bytes is not a multiple of element size " +
                              std::to_string(elem_size),
                          info.offset);
    }
    info.elements = info.bytes / elem_size;
    if (expected_elements[s] != UINT64_MAX &&
        info.elements != expected_elements[s]) {
      return SectionError(path_, name,
                          std::to_string(info.elements) +
                              " elements, header expects " +
                              std::to_string(expected_elements[s]),
                          info.offset);
    }
    prev_end = info.offset + info.bytes;
  }

  if (options.verify_checksums) {
    // The CRC pass touches every payload byte once, in file order — tell
    // the kernel so readahead works with us, then restore the serving
    // advice below.
    ::madvise(base_, size_, MADV_SEQUENTIAL);
    for (const SectionInfo& info : sections()) {
      uint32_t actual =
          Crc32(std::string_view(bytes + info.offset, info.bytes));
      if (actual != info.crc32) {
        return SectionError(path_, info.name,
                            "CRC mismatch over " +
                                std::to_string(info.bytes) + " bytes",
                            info.offset);
      }
    }
  }

  // Pointer fixup: the served columns alias the mapping from here on.
  view_.keyword_arena =
      std::string_view(bytes + infos_[0].offset, infos_[0].bytes);
  view_.keyword_offsets = std::span<const uint32_t>(
      reinterpret_cast<const uint32_t*>(bytes + infos_[1].offset),
      infos_[1].elements);
  view_.list_begin = std::span<const uint32_t>(
      reinterpret_cast<const uint32_t*>(bytes + infos_[2].offset),
      infos_[2].elements);
  view_.scores = std::span<const double>(
      reinterpret_cast<const double*>(bytes + infos_[3].offset),
      infos_[3].elements);
  view_.shared = std::span<const uint16_t>(
      reinterpret_cast<const uint16_t*>(bytes + infos_[4].offset),
      infos_[4].elements);
  view_.suffix_offsets = std::span<const uint32_t>(
      reinterpret_cast<const uint32_t*>(bytes + infos_[5].offset),
      infos_[5].elements);
  view_.dewey_arena = std::span<const uint32_t>(
      reinterpret_cast<const uint32_t*>(bytes + infos_[6].offset),
      infos_[6].elements);
  view_.skip_first_doc = std::span<const uint32_t>(
      reinterpret_cast<const uint32_t*>(bytes + infos_[7].offset),
      infos_[7].elements);
  view_.skip_begin = std::span<const uint32_t>(
      reinterpret_cast<const uint32_t*>(bytes + infos_[8].offset),
      infos_[8].elements);
  view_.block_max = std::span<const float>(
      reinterpret_cast<const float*>(bytes + infos_[9].offset),
      infos_[9].elements);

  // Cross-checks tying the offset columns to the arenas they index.
  XONTO_RETURN_IF_ERROR(CheckOffsetColumn(path_, "keyword_offsets",
                                          view_.keyword_offsets,
                                          view_.keyword_arena.size(),
                                          infos_[1].offset));
  XONTO_RETURN_IF_ERROR(CheckOffsetColumn(path_, "list_begin",
                                          view_.list_begin,
                                          header_.total_postings,
                                          infos_[2].offset));
  XONTO_RETURN_IF_ERROR(CheckOffsetColumn(path_, "suffix_offsets",
                                          view_.suffix_offsets,
                                          view_.dewey_arena.size(),
                                          infos_[5].offset));
  XONTO_RETURN_IF_ERROR(CheckOffsetColumn(path_, "skip_begin",
                                          view_.skip_begin,
                                          header_.block_count,
                                          infos_[8].offset));

  // Structural invariants the cursors rely on for memory safety. The
  // offset columns being monotone ramps is necessary but not sufficient:
  // block-indexed seeks also assume each list carves exactly
  // ceil(list_size / kBlockPostings) blocks, and the prefix-elided decode
  // assumes every posting reconstructs to at least one component with a
  // full restart id at each block boundary. A file violating any of these
  // could steer a cursor outside its list (or leave its reconstruction
  // buffer empty), so they are checked on every open — one linear pass
  // over columns the monotonicity checks above already touched.
  for (size_t l = 0; l + 1 < view_.list_begin.size(); ++l) {
    const uint32_t begin = view_.list_begin[l];
    const uint32_t end = view_.list_begin[l + 1];
    const uint64_t blocks = view_.skip_begin[l + 1] - view_.skip_begin[l];
    const uint64_t expected_blocks =
        (static_cast<uint64_t>(end - begin) + FlatDil::kBlockPostings - 1) /
        FlatDil::kBlockPostings;
    if (blocks != expected_blocks) {
      return SectionError(path_, "skip_begin",
                          "list " + std::to_string(l) + " carves " +
                              std::to_string(blocks) + " blocks for " +
                              std::to_string(end - begin) +
                              " postings, expected " +
                              std::to_string(expected_blocks),
                          infos_[8].offset);
    }
    uint32_t prev_depth = 0;
    for (uint32_t p = begin; p < end; ++p) {
      const uint32_t fresh =
          view_.suffix_offsets[p + 1] - view_.suffix_offsets[p];
      const uint32_t shared = view_.shared[p];
      if ((p - begin) % FlatDil::kBlockPostings == 0 && shared != 0) {
        return SectionError(path_, "shared",
                            "restart posting " + std::to_string(p) +
                                " has a nonzero shared prefix",
                            infos_[4].offset);
      }
      if (shared > prev_depth) {
        return SectionError(path_, "shared",
                            "posting " + std::to_string(p) +
                                " shares " + std::to_string(shared) +
                                " components but its predecessor has " +
                                std::to_string(prev_depth),
                            infos_[4].offset);
      }
      if (shared + fresh == 0) {
        return SectionError(path_, "suffix_offsets",
                            "posting " + std::to_string(p) +
                                " has an empty Dewey id",
                            infos_[5].offset);
      }
      prev_depth = shared + fresh;
    }
  }

  if (options.verify_checksums) {
    // Correctness-tier checks (CRCs only prove the file matches what its
    // writer put down, not that the writer was honest). The keyword
    // dictionary must be strictly sorted or FindList's binary search
    // silently misses lists.
    for (size_t l = 1; l + 1 < view_.keyword_offsets.size(); ++l) {
      std::string_view prev = view_.keyword_arena.substr(
          view_.keyword_offsets[l - 1],
          view_.keyword_offsets[l] - view_.keyword_offsets[l - 1]);
      std::string_view cur = view_.keyword_arena.substr(
          view_.keyword_offsets[l],
          view_.keyword_offsets[l + 1] - view_.keyword_offsets[l]);
      if (prev >= cur) {
        return SectionError(path_, "keyword_arena",
                            "keywords out of sorted order at entry " +
                                std::to_string(l),
                            infos_[0].offset);
      }
    }
    // With the data pages already faulted by the CRC pass, also pin the
    // skip index to the postings it summarizes: each block's first-doc
    // entry must equal the first component of its restart posting, or a
    // forged skip table would silently mis-steer seeks (a correctness,
    // not a safety, property — hence checksum-tier).
    for (size_t l = 0; l + 1 < view_.list_begin.size(); ++l) {
      for (uint32_t b = view_.skip_begin[l]; b < view_.skip_begin[l + 1];
           ++b) {
        const uint32_t p =
            view_.list_begin[l] +
            (b - view_.skip_begin[l]) * FlatDil::kBlockPostings;
        const uint32_t first_doc = view_.dewey_arena[view_.suffix_offsets[p]];
        if (view_.skip_first_doc[b] != first_doc) {
          return SectionError(path_, "skip_first_doc",
                              "block " + std::to_string(b) +
                                  " claims first doc " +
                                  std::to_string(view_.skip_first_doc[b]) +
                                  " but its restart posting has doc " +
                                  std::to_string(first_doc),
                              infos_[7].offset);
        }
      }
    }
  }

  ::madvise(base_, size_, AdviceFlag(options.advice));
  return Status::OK();
}

}  // namespace xontorank
