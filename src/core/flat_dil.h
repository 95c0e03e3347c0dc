#ifndef XONTORANK_CORE_FLAT_DIL_H_
#define XONTORANK_CORE_FLAT_DIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/xonto_dil.h"
#include "xml/dewey_ref.h"

namespace xontorank {

class DilCursor;

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

/// The immutable, flat serving representation of an XOnto-DIL (the
/// perf-critical half of Table III / Fig. 11): every inverted list of every
/// keyword lives in a handful of contiguous columns instead of a
/// `std::map<std::string, DilEntry>` of per-posting heap-owned DeweyIds.
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
/// Ownership modes. A FlatDil normally owns its columns (Builder /
/// Freeze). In **mapped-view mode** (FromSections, used by
/// SegmentFile::MakeView) it owns nothing: every column aliases external
/// memory — typically a memory-mapped segment file — and the caller must
/// keep that memory alive for the life of the FlatDil (IndexSegment holds
/// the backing mapping alongside the served FlatDil). Either way the
/// object is immutable after construction and safe to share across any
/// number of reader threads.
// xo-analyze: allow(backing-before-view) FlatDil is the view-capable root
// by design: owners pin the mapping (IndexSegment) or own the columns.
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
  /// `block_max` (one float per block, upper-rounded from the double
  /// scores) is the only optional column: segment v1 files predate it, so
  /// a v1 mapped view carries an empty span and top-k pruning falls back
  /// to the exact merge (has_block_max()).
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
    std::span<const float> block_max;           ///< one per block, or empty
  };

  FlatDil() { Rebind(); }

  FlatDil(FlatDil&& other) noexcept : FlatDil() { *this = std::move(other); }
  FlatDil& operator=(FlatDil&& other) noexcept;
  FlatDil(const FlatDil&) = delete;
  FlatDil& operator=(const FlatDil&) = delete;

  /// Assembles a FlatDil from lists arriving in sorted order. Shared by
  /// XOntoDil::Freeze, CorpusIndex and MergeSegments so there is exactly
  /// one construction path. Defined after the class (it holds a FlatDil).
  class Builder;

  /// A non-owning FlatDil whose columns alias `sections` (mapped-view
  /// mode). The caller is responsible for (a) the sections being mutually
  /// consistent — SegmentFile::Open validates exactly that before calling
  /// — and (b) the referenced memory outliving the returned object.
  static FlatDil FromSections(const Sections& sections);

  /// This dil's column views. Valid as long as the FlatDil (owning mode)
  /// or its external backing (mapped-view mode) stays alive.
  const Sections& sections() const { return v_; }

  /// True when the columns alias external memory (FromSections).
  bool is_mapped_view() const { return mapped_; }

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
  /// Exact equivalent of SliceDocRange on the legacy representation.
  std::pair<uint32_t, uint32_t> PostingRange(uint32_t list,
                                             const DocRange& range) const;

  /// Appends every posting's document id, in posting order (one cheap
  /// sequential scan: the doc id changes only at restart postings).
  void CollectDocIds(uint32_t list, std::vector<uint32_t>* out) const;

  /// Score of a posting by global posting index (columnar: O(1), used by
  /// the ranked processor's frontier).
  double ScoreAt(uint32_t posting) const { return v_.scores[posting]; }

  /// The list's score column, indexed by list-local posting position —
  /// random access for the ranked processor without touching Dewey data.
  std::span<const double> ListScores(uint32_t list) const {
    return v_.scores.subspan(v_.list_begin[list], ListSize(list));
  }

  // --- thaw (legacy interop) --------------------------------------------

  /// Rebuilds the list's legacy posting vector, bit-identical to what was
  /// frozen (scores are stored as full doubles).
  std::vector<DilPosting> ThawPostings(uint32_t list) const;

  /// Rebuilds the whole mutable index (persistence, tests).
  XOntoDil ThawAll() const;

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

  // --- block-max pruning ------------------------------------------------

  /// True when every block carries its score upper bound (always for
  /// built/decoded dils; false for mapped views of v1 segments, which
  /// predate the column). Top-k pruning requires this; without it the
  /// query path falls back to the exact merge.
  bool has_block_max() const {
    return v_.block_max.size() == v_.skip_first_doc.size();
  }

  /// Upper bound of any score in `block` (global skip-table index). The
  /// bound is a float rounded *up* from the block's double scores, so it
  /// never under-estimates (pruning against it is admissible).
  float BlockMaxAt(uint32_t block) const { return v_.block_max[block]; }

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
  std::vector<uint32_t> keyword_offsets_ = {0};  ///< K+1
  std::vector<uint32_t> list_begin_ = {0};       ///< K+1 posting bounds
  std::vector<double> scores_;                   ///< P
  std::vector<uint16_t> shared_;                 ///< P (restarts store 0)
  std::vector<uint32_t> suffix_offsets_ = {0};   ///< P+1 arena offsets
  std::vector<uint32_t> arena_;                  ///< concatenated suffixes
  std::vector<uint32_t> skip_first_doc_;         ///< one per block
  std::vector<uint32_t> skip_begin_ = {0};       ///< K+1 block bounds
  std::vector<float> block_max_;                 ///< one per block

  /// The read views: every accessor and cursor reads through these. They
  /// alias the owned vectors above (owning mode) or external memory
  /// (mapped-view mode).
  Sections v_;
  bool mapped_ = false;
};

// xo-analyze: allow(backing-before-view) the Builder's FlatDil is always
// in owning mode (mapped_ == false) until Freeze() hands it off.
class FlatDil::Builder {
 public:
  /// Size hints reserve the columns up front. The first two size the
  /// per-posting columns exactly; `expected_keyword_bytes` and
  /// `expected_blocks`, when nonzero, size the keyword arena and the
  /// skip table exactly too (Freeze computes all four from the source
  /// index's own counts). The Dewey arena stays heuristic unless
  /// `expected_arena_words` gives its exact size (see ArenaWords) —
  /// suffix lengths are data-dependent. Finish shrinks any slack, so
  /// exact hints are what spare it a copy of every column.
  Builder(size_t expected_keywords, size_t expected_postings,
          size_t expected_keyword_bytes = 0, size_t expected_blocks = 0,
          size_t expected_arena_words = 0);

  /// Arena words one list takes: `ids(i)` returns posting i's Dewey id
  /// (as a DeweyRef) for i < `postings`, in list order. Block restarts
  /// store the whole id; every other posting the suffix it does not share
  /// with its predecessor.
  template <typename IdAt>
  static size_t ArenaWords(size_t postings, const IdAt& ids) {
    size_t words = 0;
    for (size_t i = 0; i < postings; ++i) {
      DeweyRef id = ids(i);
      size_t shared =
          i % kBlockPostings == 0 ? 0 : CommonPrefixLength(ids(i - 1), id);
      words += id.size() - shared;
    }
    return words;
  }

  /// Opens the list for `keyword`, which must sort strictly after every
  /// previously begun keyword; returns false (and ignores the call)
  /// otherwise.
  bool BeginList(std::string_view keyword);

  /// Appends one posting to the current list. `components` must be
  /// non-empty and must not sort before the list's previous posting;
  /// returns false (and ignores the call) otherwise.
  bool AddPosting(std::span<const uint32_t> components, double score);

  FlatDil Finish() &&;

 private:
  FlatDil dil_;
  std::vector<uint32_t> prev_;  ///< previous posting's full components
  bool list_open_ = false;
  bool has_prev_ = false;  ///< a posting exists in the current list
};

/// A cheap forward view over one inverted list — flat (arena-backed) or
/// legacy (span of DilPosting) — that the merge loop consumes without ever
/// materializing a DeweyId. The flat side incrementally reconstructs the
/// current id into a reused buffer (copying only the prefix-elided fresh
/// components per advance); the span side just points at the posting.
class DilCursor {
 public:
  /// An exhausted cursor.
  DilCursor() = default;

  /// A cursor over a legacy Dewey-sorted posting range.
  static DilCursor OverSpan(std::span<const DilPosting> postings) {
    DilCursor c;
    c.span_ = postings;
    c.pos_ = 0;
    c.end_ = static_cast<uint32_t>(postings.size());
    return c;
  }

  bool AtEnd() const { return pos_ >= end_; }
  size_t remaining() const { return AtEnd() ? 0 : end_ - pos_; }

  /// The current posting's Dewey id. The ref is valid until Next().
  DeweyRef dewey() const {
    if (dil_ == nullptr) return DeweyRef(span_[pos_].dewey);
    return DeweyRef(buf_.data(), depth_);
  }

  double score() const {
    return dil_ == nullptr ? span_[pos_].score : dil_->v_.scores[pos_];
  }

  /// The current posting's document id (the first Dewey component).
  uint32_t doc() const {
    return dil_ == nullptr ? span_[pos_].dewey.doc_id() : buf_[0];
  }

  void Next() {
    ++pos_;
    if (dil_ != nullptr && pos_ < end_) LoadCurrent();
  }

  /// Advances to the first posting whose document id is >= `doc` (never
  /// moves backwards; no-op when already there). Flat cursors jump through
  /// the block skip table and decode at most one block's worth of postings;
  /// span cursors binary-search the remaining range. This is what lets the
  /// conjunctive merge leapfrog over documents that cannot emit results.
  void SeekDoc(uint32_t doc) {
    if (AtEnd()) return;
    if (dil_ == nullptr) {
      auto rest = span_.subspan(pos_, end_ - pos_);
      pos_ += static_cast<uint32_t>(
          std::partition_point(rest.begin(), rest.end(),
                               [doc](const DilPosting& p) {
                                 return p.dewey.doc_id() < doc;
                               }) -
          rest.begin());
      return;
    }
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

  // --- block-max pruning (flat cursors only) ----------------------------

  /// True when this cursor can participate in block-max pruning: flat mode
  /// over a dil carrying the block-max column. Span cursors (legacy
  /// DilEntry postings) and v1 mapped views answer false, which routes the
  /// whole query to the exact merge.
  bool has_block_max() const {
    return dil_ != nullptr && dil_->has_block_max();
  }

  /// Global skip-table index of the current posting's block. Requires
  /// !AtEnd() and flat mode.
  uint32_t block() const {
    return skip_lo_ + (pos_ - list_start_) / FlatDil::kBlockPostings;
  }

  /// Last block this cursor's range [pos_, end_) can touch. Requires
  /// !AtEnd() and flat mode.
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
  /// only over-estimate). Requires !AtEnd() and has_block_max().
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

  // Flat mode (dil_ != nullptr): pos_/end_ are global posting indices.
  const FlatDil* dil_ = nullptr;
  uint32_t depth_ = 0;
  std::vector<uint32_t> buf_;  ///< reconstructed components, reused
  uint32_t list_start_ = 0;    ///< the list's first posting index
  uint32_t skip_lo_ = 0;       ///< the list's block range in the skip table
  uint32_t skip_hi_ = 0;

  // Span mode: pos_/end_ index span_.
  std::span<const DilPosting> span_;

  uint32_t pos_ = 0;
  uint32_t end_ = 0;
};

/// One query keyword's inverted list for execution: either a list of a
/// FlatDil (precomputed or demand-built — everything CorpusIndex serves) or
/// a legacy posting span (the parity-reference paths and tests). Query
/// processors are written against this so the flat and legacy worlds share
/// one execution path.
struct DilListRef {
  const FlatDil* flat = nullptr;
  uint32_t list = 0;                     ///< valid when flat != nullptr
  std::span<const DilPosting> span{};    ///< used when flat == nullptr

  static DilListRef Over(std::span<const DilPosting> postings) {
    DilListRef ref;
    ref.span = postings;
    return ref;
  }

  /// nullptr maps to an empty list (the keyword matches nothing).
  static DilListRef Over(const DilEntry* entry) {
    DilListRef ref;
    if (entry != nullptr) ref.span = std::span<const DilPosting>(entry->postings);
    return ref;
  }

  static DilListRef OverFlat(const FlatDil& dil, uint32_t list) {
    DilListRef ref;
    ref.flat = &dil;
    ref.list = list;
    return ref;
  }

  size_t size() const {
    return flat != nullptr ? flat->ListSize(list) : span.size();
  }
  bool empty() const { return size() == 0; }

  DilCursor OpenCursor() const {
    return flat != nullptr ? flat->OpenCursor(list) : DilCursor::OverSpan(span);
  }

  DilCursor OpenCursor(const DocRange& range) const {
    return flat != nullptr ? flat->OpenCursor(list, range)
                           : DilCursor::OverSpan(SliceDocRange(span, range));
  }

  /// Postings inside `range` without opening a cursor.
  size_t CountInRange(const DocRange& range) const {
    if (flat != nullptr) {
      auto [lo, hi] = flat->PostingRange(list, range);
      return hi - lo;
    }
    return SliceDocRange(span, range).size();
  }
};

/// DilListRef overload of the document-granular partitioner; produces the
/// exact ranges PartitionListsByDocument yields for the same postings.
std::vector<DocRange> PartitionListsByDocument(
    const std::vector<DilListRef>& lists, size_t max_shards);

}  // namespace xontorank

#endif  // XONTORANK_CORE_FLAT_DIL_H_
