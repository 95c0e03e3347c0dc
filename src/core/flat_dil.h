#ifndef XONTORANK_CORE_FLAT_DIL_H_
#define XONTORANK_CORE_FLAT_DIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "xml/dewey_ref.h"

namespace xontorank {

class DilCursor;

/// A contiguous half-open document-id range [begin_doc, end_doc) — one
/// shard of a partitioned query execution.
struct DocRange {
  uint32_t begin_doc = 0;
  uint32_t end_doc = 0;

  bool empty() const { return begin_doc >= end_doc; }
  bool operator==(const DocRange& other) const {
    return begin_doc == other.begin_doc && end_doc == other.end_doc;
  }
};

/// The smallest float >= `score`. Block upper bounds are stored as floats
/// while the score column is double; rounding *up* keeps the bound
/// admissible — a bound that rounded below the true maximum would let the
/// pruned merge drop a genuine top-k result.
inline float ScoreUpperBoundFloat(double score) {
  float f = static_cast<float>(score);
  if (static_cast<double>(f) < score) {
    f = std::nextafterf(f, std::numeric_limits<float>::infinity());
  }
  return f;
}

/// The standard allocator, except that an element constructed without
/// arguments is default-initialized: resizing a column of scalars leaves
/// it unwritten instead of zeroing memory its builder overwrites anyway.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  using std::allocator<T>::allocator;

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    std::uninitialized_default_construct_n(p, 1);
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }
};

/// One owned FlatDil column.
template <typename T>
using FlatColumn = std::vector<T, DefaultInitAllocator<T>>;

/// The immutable, flat serving representation of an XOnto-DIL (the
/// perf-critical half of Table III / Fig. 11): every inverted list of every
/// keyword lives in a handful of contiguous columns instead of one
/// heap-owned DeweyId per posting.
///
/// Layout (see DESIGN.md "Posting storage layout"):
///   - keyword dictionary: one sorted string arena plus offsets; lookup is
///     a binary search over slices, no node-based map on the read path;
///   - postings, columnar and global (list `l` owns posting indices
///     `[list_begin[l], list_begin[l+1])`):
///       scores[p]          the posting's NS score (full double — freezing
///                          an in-memory index is lossless),
///       shared[p]          Dewey components shared with posting p-1,
///       dewey_arena[...]   the fresh suffix components, all postings
///                          back to back in one uint32_t arena,
///       suffix_offsets[p]  where posting p's suffix starts in the arena;
///   - blocks: every kBlockPostings-th posting of a list is a restart
///     (shared forced to 0, full id in the arena), and the per-block skip
///     table skip_first_doc records each block's first document id, so
///     document-range seeks land on a block in O(log blocks) and decode at
///     most one block instead of binary-searching fat posting structs.
///
/// The segment format (storage/segment_file.h) stores these columns
/// *themselves*, which is why a segment opens with mmap + pointer fixup
/// and no decode at all.
///
/// Ownership modes. A FlatDil normally owns its columns (Builder). In
/// **mapped-view mode** (FromSections, used by SegmentFile::MakeView) every
/// column aliases external memory — typically a memory-mapped segment
/// file — and the FlatDil pins that memory itself: it holds a shared
/// owner of the mapping for its whole life, so no holder has to. Either
/// way the object is immutable after construction and safe to share
/// across any number of reader threads.
class FlatDil {
 public:
  /// Postings per block; restarts and skip entries are per block. 128
  /// balances seek cost (a seek decodes at most 127 postings past the
  /// block start) against restart overhead (one un-elided id per block).
  static constexpr uint32_t kBlockPostings = 128;

  /// FindList's miss value.
  static constexpr uint32_t kNoList = UINT32_MAX;

  /// The column views, in segment-file section order. For an owning
  /// FlatDil these alias its own vectors; for a mapped view they alias the
  /// external (mmap'd) memory. SegmentWriter serializes exactly these.
  ///
  /// `block_max` holds one float per block, rounded up from the block's
  /// double scores so it never under-estimates them (pruning against it
  /// is admissible).
  struct Sections {
    std::string_view keyword_arena;             ///< concatenated keywords
    std::span<const uint32_t> keyword_offsets;  ///< K+1 arena offsets
    std::span<const uint32_t> list_begin;       ///< K+1 posting bounds
    std::span<const double> scores;             ///< P
    std::span<const uint16_t> shared;           ///< P (restarts store 0)
    std::span<const uint32_t> suffix_offsets;   ///< P+1 arena offsets
    std::span<const uint32_t> dewey_arena;      ///< concatenated suffixes
    std::span<const uint32_t> skip_first_doc;   ///< one per block
    std::span<const uint32_t> skip_begin;       ///< K+1 block bounds
    std::span<const float> block_max;           ///< one per block
  };

  FlatDil() { Rebind(); }

  FlatDil(FlatDil&& other) noexcept : FlatDil() { *this = std::move(other); }
  FlatDil& operator=(FlatDil&& other) noexcept;
  FlatDil(const FlatDil&) = delete;
  FlatDil& operator=(const FlatDil&) = delete;

  /// Assembles a FlatDil from lists measured up front (ListShape) and then
  /// written, possibly in parallel, into exactly sized columns. Shared by
  /// CorpusIndex and MergeSegments so there is exactly one construction
  /// path. Defined after the class (it holds a FlatDil).
  class Builder;

  /// A FlatDil whose columns alias `sections` (mapped-view mode) and
  /// which holds `pin`, the non-null owner of the memory they alias, until
  /// it is destroyed. The caller is responsible for the sections being
  /// mutually consistent — SegmentFile::Open validates exactly that
  /// before calling.
  static FlatDil FromSections(const Sections& sections,
                              std::shared_ptr<const void> pin);

  /// This dil's column views. Valid as long as the FlatDil stays alive.
  const Sections& sections() const { return v_; }

  /// True when the columns alias external memory (FromSections).
  bool is_mapped_view() const { return pin_ != nullptr; }

  // --- dictionary -------------------------------------------------------

  size_t keyword_count() const { return v_.list_begin.size() - 1; }
  size_t total_postings() const { return v_.scores.size(); }

  /// Binary search over the sorted keyword arena; kNoList if absent.
  uint32_t FindList(std::string_view keyword) const;

  std::string_view KeywordAt(uint32_t list) const {
    return v_.keyword_arena.substr(
        v_.keyword_offsets[list],
        v_.keyword_offsets[list + 1] - v_.keyword_offsets[list]);
  }

  size_t ListSize(uint32_t list) const {
    return v_.list_begin[list + 1] - v_.list_begin[list];
  }

  // --- cursors & seeks --------------------------------------------------

  /// A forward cursor over the whole list.
  DilCursor OpenCursor(uint32_t list) const;

  /// A cursor over the list's postings inside `range` (skip-table seek).
  DilCursor OpenCursor(uint32_t list, const DocRange& range) const;

  /// The half-open posting-index range of `list` whose documents fall in
  /// `range`: a binary search over the block skip table narrows the
  /// boundary to one block, which is then scanned without full decoding.
  std::pair<uint32_t, uint32_t> PostingRange(uint32_t list,
                                             const DocRange& range) const;

  /// Appends every posting's document id, in posting order (one cheap
  /// sequential scan: the doc id changes only at restart postings).
  void CollectDocIds(uint32_t list, std::vector<uint32_t>* out) const;

  // --- introspection ----------------------------------------------------

  /// Exact bytes of the flat columns: every column's size() * element size
  /// plus the keyword arena. In owning mode these are heap bytes (what
  /// bench_flat_dil reports as bytes/posting); in mapped-view mode they
  /// are file-backed mapped bytes and the heap holds essentially nothing.
  size_t MemoryBytes() const;

  /// Bytes of the Dewey component arena alone.
  size_t ArenaBytes() const {
    return v_.dewey_arena.size() * sizeof(uint32_t);
  }

  /// Skip-table blocks backing `list` (tests).
  size_t BlockCount(uint32_t list) const {
    return v_.skip_begin[list + 1] - v_.skip_begin[list];
  }

  /// Skip-table blocks across all lists (the segment header's block
  /// count).
  size_t TotalBlocks() const { return v_.skip_first_doc.size(); }

 private:
  friend class DilCursor;

  /// Points every view in v_ at the owned vectors (owning mode only).
  void Rebind();

  /// Restores the canonical empty owning state (moved-from objects).
  void Reset();

  /// First posting index of `list` with document id >= `doc`.
  uint32_t LowerBoundDoc(uint32_t list, uint32_t doc) const;

  /// A cursor positioned at global posting index `from`, bounded by `to`
  /// (seeks to the enclosing block restart and rolls forward).
  DilCursor CursorAt(uint32_t list, uint32_t from, uint32_t to) const;

  // Owned storage. Empty in mapped-view mode; in owning mode the views in
  // v_ alias these (every read goes through v_, never through these).
  std::string keyword_arena_;
  FlatColumn<uint32_t> keyword_offsets_ = {0};  ///< K+1
  FlatColumn<uint32_t> list_begin_ = {0};       ///< K+1 posting bounds
  FlatColumn<double> scores_;                   ///< P
  FlatColumn<uint16_t> shared_;                 ///< P (restarts store 0)
  FlatColumn<uint32_t> suffix_offsets_ = {0};   ///< P+1 arena offsets
  FlatColumn<uint32_t> arena_;                  ///< concatenated suffixes
  FlatColumn<uint32_t> skip_first_doc_;         ///< one per block
  FlatColumn<uint32_t> skip_begin_ = {0};       ///< K+1 block bounds
  FlatColumn<float> block_max_;                 ///< one per block

  /// The owner of the memory v_ aliases in mapped-view mode; null in
  /// owning mode. Declared before v_ so the views die first.
  std::shared_ptr<const void> pin_;
  /// The read views: every accessor and cursor reads through these. They
  /// alias the owned vectors above (owning mode) or the pinned memory
  /// (mapped-view mode).
  Sections v_;
};

class FlatDil::Builder {
 public:
  /// One list's exact extent in the columns, measured before the build:
  /// its keyword, its posting count and the Dewey arena words it takes.
  /// The skip-table blocks follow from the posting count.
  struct ListShape {
    std::string_view keyword;
    size_t postings = 0;
    size_t arena_words = 0;

    /// Counts one more posting, `id`; `prev` is the list's previous
    /// posting (unread for the first posting of a block). Block restarts
    /// store the whole id, every other posting the suffix it does not
    /// share with its predecessor.
    void Add(DeweyRef prev, DeweyRef id) {
      const size_t shared =
          postings % kBlockPostings == 0 ? 0 : CommonPrefixLength(prev, id);
      arena_words += id.size() - shared;
      ++postings;
    }

    size_t blocks() const {
      return (postings + kBlockPostings - 1) / kBlockPostings;
    }
  };

  /// Writes one list's postings, in order, into its slice of the presized
  /// columns. Writers of distinct lists touch disjoint column ranges, so
  /// they may run concurrently; one list has one writer.
  class ListWriter {
   public:
    /// Appends one posting. `components` must be non-empty and must not
    /// sort before the list's previous posting (equal is allowed), and the
    /// list must have room left in its shape; returns false (and ignores
    /// the call) otherwise.
    bool AddPosting(std::span<const uint32_t> components, double score);

   private:
    friend class Builder;
    ListWriter(FlatDil* dil, uint32_t list_begin, uint32_t list_end,
               uint32_t block, size_t arena, size_t arena_end)
        : dil_(dil),
          list_begin_(list_begin),
          pos_(list_begin),
          end_(list_end),
          block_(block),
          arena_(arena),
          arena_end_(arena_end) {
      prev_.reserve(kReservedDepth);
    }

    /// Components prev_ holds before it grows: more than CDA nesting
    /// needs, so a list's writer allocates once.
    static constexpr size_t kReservedDepth = 16;

    FlatDil* dil_;
    uint32_t list_begin_;
    uint32_t pos_;  ///< the next posting's global index
    uint32_t end_;
    uint32_t block_;  ///< the next block restart's global index
    size_t arena_;    ///< where the next suffix goes
    size_t arena_end_;
    /// The previous posting's full id, kept incrementally: cut to the
    /// prefix it shares with the next posting, then extended by the rest.
    std::vector<uint32_t> prev_;
  };

  /// Sizes every column exactly for `shapes` (keywords strictly ascending)
  /// and lays the lists out back to back in that order, so the columns are
  /// allocated once, left unwritten for the writers, and Finish copies
  /// nothing.
  explicit Builder(std::span<const ListShape> shapes);

  // Writers point into the builder's columns.
  Builder(const Builder&) = delete;
  Builder& operator=(const Builder&) = delete;

  /// The writer of list `list` (an index into the constructor's shapes).
  /// Reads only the layout, so writers may be taken from any thread.
  ListWriter List(size_t list);

  /// Requires every list to have been written in full, exactly as its
  /// shape said.
  FlatDil Finish() &&;

 private:
  FlatDil dil_;
  /// List l's arena words start at arena_begin_[l]; K+1 entries.
  std::vector<size_t> arena_begin_;
};

/// A cheap forward view over one list of a FlatDil that the merge loop
/// consumes without ever materializing a DeweyId: it incrementally
/// reconstructs the current id into a reused buffer, copying only the
/// prefix-elided fresh components per advance.
class DilCursor {
 public:
  /// An exhausted cursor.
  DilCursor() = default;

  bool AtEnd() const { return pos_ >= end_; }
  size_t remaining() const { return AtEnd() ? 0 : end_ - pos_; }

  /// The current posting's Dewey id. The ref is valid until Next().
  DeweyRef dewey() const { return DeweyRef(buf_.data(), depth_); }

  double score() const { return dil_->v_.scores[pos_]; }

  /// The current posting's document id (the first Dewey component).
  uint32_t doc() const { return buf_[0]; }

  void Next() {
    ++pos_;
    if (pos_ < end_) LoadCurrent();
  }

  /// Advances to the first posting whose document id is >= `doc` (never
  /// moves backwards; no-op when already there): jumps through the block
  /// skip table and decodes at most one block's worth of postings. This is
  /// what lets the conjunctive merge leapfrog over documents that cannot
  /// emit results.
  void SeekDoc(uint32_t doc) {
    if (AtEnd()) return;
    if (buf_[0] >= doc) return;
    // First block after the current one whose first document id is >= doc;
    // the target posting then lives in the block before it (or at its
    // start), so at most ~one block is decoded while rolling forward.
    uint32_t cur_block =
        skip_lo_ + (pos_ - list_start_) / FlatDil::kBlockPostings;
    std::span<const uint32_t> skip = dil_->v_.skip_first_doc;
    uint32_t next_block = static_cast<uint32_t>(
        std::lower_bound(skip.begin() + cur_block + 1,
                         skip.begin() + skip_hi_, doc) -
        skip.begin());
    if (next_block - 1 > cur_block) {
      pos_ = list_start_ +
             (next_block - 1 - skip_lo_) * FlatDil::kBlockPostings;
      if (pos_ >= end_) {
        pos_ = end_;
        return;
      }
      LoadCurrent();  // block restarts have shared == 0: buf_ is complete
    }
    while (buf_[0] < doc) {
      ++pos_;
      if (pos_ >= end_) return;
      LoadCurrent();
    }
  }

  /// Exhausts the cursor without decoding anything. Used by the pruned
  /// merge once the block bounds prove no remaining document can score.
  void SkipToEnd() { pos_ = end_; }

  /// The current posting's stored shared-prefix length: the components it
  /// shares with the list's previous posting, or 0 at a block restart (a
  /// lower bound there). Requires !AtEnd().
  uint32_t shared() const { return dil_->v_.shared[pos_]; }

  /// The current document's postings in this cursor's range: where they
  /// end and the best score among them.
  struct DocumentBound {
    double max_score;  ///< >= every score of the document's postings
    uint32_t end;      ///< global index of the first posting past them
  };

  /// Scans the current document's postings, reading only the scores and
  /// shared-prefix columns. A posting with shared > 0 continues the
  /// document; one with shared == 0 starts a new document unless it is a
  /// block restart of the same one, which its stored first component (the
  /// document id) tells apart. The scan stops early, as soon as
  /// `base + max_score > threshold` (the caller's running bound already
  /// loses), and then `end` is not the document's end. Requires !AtEnd().
  DocumentBound CurrentDocumentBound(double base, double threshold) const {
    const FlatDil::Sections& v = dil_->v_;
    const uint32_t doc = buf_[0];
    double max_score = v.scores[pos_];
    uint32_t p = pos_ + 1;
    for (; p < end_ && base + max_score <= threshold; ++p) {
      if (v.shared[p] == 0 && v.dewey_arena[v.suffix_offsets[p]] != doc) {
        break;
      }
      max_score = std::max(max_score, v.scores[p]);
    }
    return {max_score, p};
  }

  /// Moves past the current document to `bound.end`, as computed by a
  /// CurrentDocumentBound scan at this position that did not stop early.
  /// The next document's first posting stores its whole id (shared == 0),
  /// so this decodes one posting.
  void SkipDocument(const DocumentBound& bound) {
    pos_ = bound.end;
    if (pos_ < end_) LoadCurrent();
  }

  // --- block-max pruning ------------------------------------------------

  /// Global skip-table index of the current posting's block. Requires
  /// !AtEnd().
  uint32_t block() const {
    return skip_lo_ + (pos_ - list_start_) / FlatDil::kBlockPostings;
  }

  /// Last block this cursor's range [pos_, end_) can touch. Requires
  /// !AtEnd().
  uint32_t range_last_block() const {
    return skip_lo_ + (end_ - 1 - list_start_) / FlatDil::kBlockPostings;
  }

  /// The score upper bound this list contributes for documents in
  /// [pivot_doc, next_doc): the max block-max over the window of blocks
  /// that can hold postings of those documents.
  struct BlockBound {
    float max_score;    ///< >= every posting score in the window
    uint32_t next_doc;  ///< first doc past the window (UINT32_MAX: none)
  };

  /// Computes the window bound at the aligned document `pivot_doc` (which
  /// must be the current document). The window runs from the current block
  /// through the last block whose first document is <= pivot_doc: postings
  /// are document-sorted, so any posting of a document < next_doc lies
  /// inside it, and the returned max_score bounds them all. Blocks past
  /// the cursor's range end over-extend the bound harmlessly (bounds may
  /// only over-estimate). Requires !AtEnd().
  BlockBound BlockUpperBound(uint32_t pivot_doc) const {
    uint32_t lo = block();
    uint32_t last = range_last_block();
    std::span<const uint32_t> first = dil_->v_.skip_first_doc;
    // Last block in range whose first document id is <= pivot_doc.
    uint32_t hi = static_cast<uint32_t>(
        std::upper_bound(first.begin() + lo + 1, first.begin() + last + 1,
                         pivot_doc) -
        first.begin() - 1);
    BlockBound bound;
    bound.next_doc = hi < last ? first[hi + 1] : UINT32_MAX;
    bound.max_score = dil_->v_.block_max[lo];
    for (uint32_t b = lo + 1; b <= hi; ++b) {
      bound.max_score = std::max(bound.max_score, dil_->v_.block_max[b]);
    }
    return bound;
  }

 private:
  friend class FlatDil;

  /// Decodes posting pos_ into buf_: keeps the shared prefix (identical to
  /// the predecessor's by construction) and copies the fresh suffix.
  void LoadCurrent() {
    uint32_t off = dil_->v_.suffix_offsets[pos_];
    uint32_t fresh = dil_->v_.suffix_offsets[pos_ + 1] - off;
    uint32_t shared = dil_->v_.shared[pos_];
    depth_ = shared + fresh;
    if (buf_.size() < depth_) buf_.resize(depth_);
    for (uint32_t i = 0; i < fresh; ++i) {
      buf_[shared + i] = dil_->v_.dewey_arena[off + i];
    }
  }

  /// The cursor's dil; null only for the default (exhausted) cursor.
  const FlatDil* dil_ = nullptr;
  uint32_t depth_ = 0;
  std::vector<uint32_t> buf_;  ///< reconstructed components, reused
  uint32_t list_start_ = 0;    ///< the list's first posting index
  uint32_t skip_lo_ = 0;       ///< the list's block range in the skip table
  uint32_t skip_hi_ = 0;
  uint32_t pos_ = 0;  ///< global posting index of the current posting
  uint32_t end_ = 0;  ///< global posting index one past the range
};

/// One query keyword's inverted list for execution: one list of a FlatDil
/// (precomputed or demand-built — everything CorpusIndex serves).
struct DilListRef {
  const FlatDil* flat = nullptr;
  uint32_t list = 0;

  static DilListRef OverFlat(const FlatDil& dil, uint32_t list) {
    DilListRef ref;
    ref.flat = &dil;
    ref.list = list;
    return ref;
  }

  size_t size() const { return flat->ListSize(list); }
  bool empty() const { return size() == 0; }

  DilCursor OpenCursor() const { return flat->OpenCursor(list); }

  DilCursor OpenCursor(const DocRange& range) const {
    return flat->OpenCursor(list, range);
  }
};

/// Splits the documents covered by `lists` into at most `max_shards`
/// contiguous doc-id ranges of approximately equal total posting count
/// (the unit of merge work). Because postings are globally Dewey-ordered
/// and the first Dewey component is the document id, these ranges cut the
/// lists at exact document boundaries — the DIL merge stack never spans
/// two documents, so evaluating ranges independently is exact.
///
/// Ranges are returned in ascending doc order, are disjoint, jointly cover
/// every posting, and are all non-empty (fewer than `max_shards` ranges
/// come back when there is not enough work to split). Empty input or
/// `max_shards <= 1` yields a single covering range.
std::vector<DocRange> PartitionListsByDocument(
    const std::vector<DilListRef>& lists, size_t max_shards);

}  // namespace xontorank

#endif  // XONTORANK_CORE_FLAT_DIL_H_
