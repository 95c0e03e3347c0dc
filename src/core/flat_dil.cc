#include "core/flat_dil.h"

#include <algorithm>

#include "common/check.h"
#include "core/simd_kernels.h"

namespace xontorank {

// --- ownership ------------------------------------------------------------

void FlatDil::Rebind() {
  v_.keyword_arena = keyword_arena_;
  v_.keyword_offsets = keyword_offsets_;
  v_.list_begin = list_begin_;
  v_.scores = scores_;
  v_.shared = shared_;
  v_.suffix_offsets = suffix_offsets_;
  v_.dewey_arena = arena_;
  v_.skip_first_doc = skip_first_doc_;
  v_.skip_begin = skip_begin_;
  v_.block_max = block_max_;
}

void FlatDil::Reset() {
  keyword_arena_.clear();
  keyword_offsets_ = {0};
  list_begin_ = {0};
  scores_.clear();
  shared_.clear();
  suffix_offsets_ = {0};
  arena_.clear();
  skip_first_doc_.clear();
  skip_begin_ = {0};
  block_max_.clear();
  mapped_ = false;
  Rebind();
}

FlatDil& FlatDil::operator=(FlatDil&& other) noexcept {
  if (this == &other) return *this;
  keyword_arena_ = std::move(other.keyword_arena_);
  keyword_offsets_ = std::move(other.keyword_offsets_);
  list_begin_ = std::move(other.list_begin_);
  scores_ = std::move(other.scores_);
  shared_ = std::move(other.shared_);
  suffix_offsets_ = std::move(other.suffix_offsets_);
  arena_ = std::move(other.arena_);
  skip_first_doc_ = std::move(other.skip_first_doc_);
  skip_begin_ = std::move(other.skip_begin_);
  block_max_ = std::move(other.block_max_);
  mapped_ = other.mapped_;
  if (mapped_) {
    // The views point at external memory, which is unaffected by the move.
    v_ = other.v_;
  } else {
    // keyword_arena_ may have been SSO-stored, so the moved string's bytes
    // can live at a different address: re-point every view at the (now
    // ours) owned storage rather than copying other's views.
    Rebind();
  }
  other.Reset();
  return *this;
}

FlatDil FlatDil::FromSections(const Sections& sections) {
  FlatDil dil;
  dil.mapped_ = true;
  dil.v_ = sections;
  return dil;
}

// --- Builder --------------------------------------------------------------

FlatDil::Builder::Builder(size_t expected_keywords, size_t expected_postings,
                          size_t expected_keyword_bytes,
                          size_t expected_blocks,
                          size_t expected_arena_words) {
  // list_begin_/skip_begin_ are rebuilt from scratch: BeginList pushes each
  // list's start, Finish the final end bound (so an empty build still ends
  // up with the canonical {0}).
  dil_.list_begin_.clear();
  dil_.skip_begin_.clear();
  dil_.keyword_offsets_.reserve(expected_keywords + 1);
  dil_.list_begin_.reserve(expected_keywords + 1);
  dil_.skip_begin_.reserve(expected_keywords + 1);
  dil_.keyword_arena_.reserve(expected_keyword_bytes);
  dil_.scores_.reserve(expected_postings);
  dil_.shared_.reserve(expected_postings);
  dil_.suffix_offsets_.reserve(expected_postings + 1);
  // Without an exact size: prefix elision leaves ~1-2 fresh components
  // per posting plus one full id per block restart; 2 per posting is a
  // safe single-allocation guess (Finish shrinks whatever is unused).
  dil_.arena_.reserve(expected_arena_words != 0 ? expected_arena_words
                                                : expected_postings * 2);
  size_t reserve_blocks = expected_blocks != 0
                              ? expected_blocks
                              : expected_postings / kBlockPostings +
                                    expected_keywords;
  dil_.skip_first_doc_.reserve(reserve_blocks);
  dil_.block_max_.reserve(reserve_blocks);
}

bool FlatDil::Builder::BeginList(std::string_view keyword) {
  size_t built = dil_.keyword_offsets_.size() - 1;
  if (built > 0) {
    std::string_view last =
        std::string_view(dil_.keyword_arena_)
            .substr(dil_.keyword_offsets_[built - 1],
                    dil_.keyword_offsets_[built] -
                        dil_.keyword_offsets_[built - 1]);
    if (!(last < keyword)) return false;  // must be strictly ascending
  }
  dil_.list_begin_.push_back(static_cast<uint32_t>(dil_.scores_.size()));
  dil_.skip_begin_.push_back(
      static_cast<uint32_t>(dil_.skip_first_doc_.size()));
  dil_.keyword_arena_.append(keyword);
  dil_.keyword_offsets_.push_back(
      static_cast<uint32_t>(dil_.keyword_arena_.size()));
  list_open_ = true;
  has_prev_ = false;
  return true;
}

bool FlatDil::Builder::AddPosting(std::span<const uint32_t> components,
                                  double score) {
  if (!list_open_ || components.empty() || components.size() > UINT16_MAX) {
    return false;
  }
  DeweyRef cur(components.data(), components.size());
  uint32_t shared = 0;
  if (has_prev_) {
    DeweyRef prev(prev_.data(), prev_.size());
    if (CompareDewey(cur, prev) < 0) return false;  // non-decreasing only
    shared = static_cast<uint32_t>(CommonPrefixLength(prev, cur));
  }
  uint32_t in_list = static_cast<uint32_t>(dil_.scores_.size()) -
                     dil_.list_begin_.back();
  if (in_list % kBlockPostings == 0) {
    // Block restart: store the full id so a skip-table seek can start
    // decoding here, and record the block's first document id and open
    // its score upper bound.
    shared = 0;
    dil_.skip_first_doc_.push_back(components[0]);
    dil_.block_max_.push_back(ScoreUpperBoundFloat(score));
  } else {
    float ub = ScoreUpperBoundFloat(score);
    if (ub > dil_.block_max_.back()) dil_.block_max_.back() = ub;
  }
  dil_.shared_.push_back(static_cast<uint16_t>(shared));
  dil_.arena_.insert(dil_.arena_.end(), components.begin() + shared,
                     components.end());
  dil_.suffix_offsets_.push_back(static_cast<uint32_t>(dil_.arena_.size()));
  dil_.scores_.push_back(score);
  prev_.assign(components.begin(), components.end());
  has_prev_ = true;
  return true;
}

FlatDil FlatDil::Builder::Finish() && {
  dil_.list_begin_.push_back(static_cast<uint32_t>(dil_.scores_.size()));
  dil_.skip_begin_.push_back(
      static_cast<uint32_t>(dil_.skip_first_doc_.size()));
  // Drop reservation slack so MemoryBytes()-style accounting (and the
  // bench's heap counters) reflect the data, not the sizing heuristics of
  // builders constructed without exact column sizes.
  dil_.scores_.shrink_to_fit();
  dil_.shared_.shrink_to_fit();
  dil_.suffix_offsets_.shrink_to_fit();
  dil_.arena_.shrink_to_fit();
  dil_.skip_first_doc_.shrink_to_fit();
  dil_.block_max_.shrink_to_fit();
  dil_.Rebind();
  return std::move(dil_);
}

// --- dictionary -----------------------------------------------------------

uint32_t FlatDil::FindList(std::string_view keyword) const {
  uint32_t lo = 0;
  uint32_t hi = static_cast<uint32_t>(keyword_count());
  while (lo < hi) {
    uint32_t mid = lo + (hi - lo) / 2;
    if (KeywordAt(mid) < keyword) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < keyword_count() && KeywordAt(lo) == keyword) return lo;
  return kNoList;
}

// --- cursors & seeks ------------------------------------------------------

DilCursor FlatDil::OpenCursor(uint32_t list) const {
  return CursorAt(list, v_.list_begin[list], v_.list_begin[list + 1]);
}

DilCursor FlatDil::OpenCursor(uint32_t list, const DocRange& range) const {
  auto [lo, hi] = PostingRange(list, range);
  return CursorAt(list, lo, hi);
}

DilCursor FlatDil::CursorAt(uint32_t list, uint32_t from, uint32_t to) const {
  DilCursor c;
  if (from >= to) return c;  // default cursor is exhausted
  c.dil_ = this;
  c.end_ = to;
  c.list_start_ = v_.list_begin[list];
  c.skip_lo_ = v_.skip_begin[list];
  c.skip_hi_ = v_.skip_begin[list + 1];
  // Seek: start decoding at `from`'s block restart (where shared == 0) and
  // roll forward so the shared-prefix buffer is complete at `from`.
  uint32_t list_start = c.list_start_;
  c.pos_ = list_start +
           (from - list_start) / kBlockPostings * kBlockPostings;
  c.LoadCurrent();
  while (c.pos_ < from) {
    ++c.pos_;
    c.LoadCurrent();
  }
  return c;
}

uint32_t FlatDil::LowerBoundDoc(uint32_t list, uint32_t doc) const {
  uint32_t list_start = v_.list_begin[list];
  uint32_t list_end = v_.list_begin[list + 1];
  if (list_start == list_end) return list_start;
  uint32_t skip_lo = v_.skip_begin[list];
  uint32_t skip_hi = v_.skip_begin[list + 1];
  // First block whose first document id is >= doc. Any earlier match must
  // then live in the block before it.
  auto skip_first = v_.skip_first_doc.begin();
  uint32_t block = static_cast<uint32_t>(
      std::lower_bound(skip_first + skip_lo, skip_first + skip_hi, doc) -
      skip_first);
  if (block == skip_lo) return list_start;
  uint32_t begin = list_start + (block - 1 - skip_lo) * kBlockPostings;
  uint32_t end = std::min(begin + kBlockPostings, list_end);
  // In-block seek without full decode: batch-fill the block's doc-id
  // column (it changes only at restart postings, where it is the suffix's
  // first word), then lower-bound it — both SIMD-dispatched.
  uint32_t docs[kBlockPostings];
  FillDocIds(v_.shared.data() + begin, v_.suffix_offsets.data() + begin,
             v_.dewey_arena.data(), end - begin,
             v_.skip_first_doc[block - 1], docs);
  return begin + static_cast<uint32_t>(
                     LowerBoundU32(docs, end - begin, doc));
}

std::pair<uint32_t, uint32_t> FlatDil::PostingRange(
    uint32_t list, const DocRange& range) const {
  uint32_t lo = LowerBoundDoc(list, range.begin_doc);
  uint32_t hi = range.empty() ? lo : LowerBoundDoc(list, range.end_doc);
  return {lo, std::max(lo, hi)};
}

void FlatDil::CollectDocIds(uint32_t list,
                            std::vector<uint32_t>* out) const {
  uint32_t begin = v_.list_begin[list];
  uint32_t end = v_.list_begin[list + 1];
  size_t old_size = out->size();
  out->resize(old_size + (end - begin));
  // Lists start at a restart (shared == 0), so the carry seed is unused.
  FillDocIds(v_.shared.data() + begin, v_.suffix_offsets.data() + begin,
             v_.dewey_arena.data(), end - begin, 0,
             out->data() + old_size);
}

// --- thaw -----------------------------------------------------------------

std::vector<DilPosting> FlatDil::ThawPostings(uint32_t list) const {
  std::vector<DilPosting> postings;
  postings.reserve(ListSize(list));
  for (DilCursor c = OpenCursor(list); !c.AtEnd(); c.Next()) {
    postings.push_back(DilPosting{c.dewey().ToDeweyId(), c.score()});
  }
  return postings;
}

XOntoDil FlatDil::ThawAll() const {
  XOntoDil dil;
  for (uint32_t l = 0; l < keyword_count(); ++l) {
    dil.Put(std::string(KeywordAt(l)), ThawPostings(l));
  }
  return dil;
}

// --- introspection --------------------------------------------------------

size_t FlatDil::MemoryBytes() const {
  return v_.keyword_arena.size() +
         v_.keyword_offsets.size() * sizeof(uint32_t) +
         v_.list_begin.size() * sizeof(uint32_t) +
         v_.scores.size() * sizeof(double) +
         v_.shared.size() * sizeof(uint16_t) +
         v_.suffix_offsets.size() * sizeof(uint32_t) +
         v_.dewey_arena.size() * sizeof(uint32_t) +
         v_.skip_first_doc.size() * sizeof(uint32_t) +
         v_.skip_begin.size() * sizeof(uint32_t) +
         v_.block_max.size() * sizeof(float);
}

// --- conversions ----------------------------------------------------------

FlatDil XOntoDil::Freeze() const {
  // Exact sizes fall out of the source index's own bookkeeping, so every
  // column can be reserved once and verified after the build.
  size_t total_postings = TotalPostings();
  size_t keyword_bytes = 0;
  size_t blocks = 0;
  size_t arena_words = 0;
  for (const auto& [keyword, entry] : entries_) {
    keyword_bytes += keyword.size();
    blocks += (entry.postings.size() + FlatDil::kBlockPostings - 1) /
              FlatDil::kBlockPostings;
    arena_words += FlatDil::Builder::ArenaWords(
        entry.postings.size(), [&entry](size_t i) {
          return DeweyRef(entry.postings[i].dewey);
        });
  }
  FlatDil::Builder builder(entries_.size(), total_postings, keyword_bytes,
                           blocks, arena_words);
  for (const auto& [keyword, entry] : entries_) {
    XO_CHECK(builder.BeginList(keyword));  // map iterates sorted
    for (const DilPosting& posting : entry.postings) {
      // Lists are Dewey-sorted by Put's invariant.
      XO_CHECK(builder.AddPosting(posting.dewey.components(), posting.score));
    }
  }
  FlatDil dil = std::move(builder).Finish();
  XO_CHECK_EQ(dil.keyword_count(), entries_.size());
  XO_CHECK_EQ(dil.total_postings(), total_postings);
  XO_CHECK_EQ(dil.sections().keyword_arena.size(), keyword_bytes);
  XO_CHECK_EQ(dil.TotalBlocks(), blocks);
  XO_CHECK_EQ(dil.sections().block_max.size(), blocks);
  XO_CHECK_EQ(dil.sections().dewey_arena.size(), arena_words);
  return dil;
}

// --- partitioning ---------------------------------------------------------

namespace {

/// The greedy equal-work cut: `doc_postings[d - min_doc]` is document d's
/// posting count, `total` their sum (must be > 0).
std::vector<DocRange> PartitionDocHistogram(
    uint32_t min_doc, uint32_t max_doc, size_t total,
    const std::vector<size_t>& doc_postings, size_t max_shards) {
  // Greedy equal-work cuts: close a shard once it holds its fair share of
  // the remaining postings. Documents are atomic, so a single huge
  // document can make one shard heavy — correctness is unaffected.
  std::vector<DocRange> ranges;
  uint32_t begin = min_doc;
  size_t in_shard = 0;
  size_t assigned = 0;
  for (uint32_t doc = min_doc; doc <= max_doc; ++doc) {
    in_shard += doc_postings[doc - min_doc];
    size_t shards_left = max_shards - ranges.size();
    size_t target = (total - assigned + shards_left - 1) / shards_left;
    if (in_shard >= target && shards_left > 1 && doc < max_doc) {
      ranges.push_back(DocRange{begin, doc + 1});
      begin = doc + 1;
      assigned += in_shard;
      in_shard = 0;
    }
  }
  if (in_shard > 0 || ranges.empty()) {
    ranges.push_back(DocRange{begin, max_doc + 1});
  } else {
    ranges.back().end_doc = max_doc + 1;
  }
  return ranges;
}

}  // namespace

std::vector<DocRange> PartitionListsByDocument(
    const std::vector<DilListRef>& lists, size_t max_shards) {
  uint32_t min_doc = UINT32_MAX;
  uint32_t max_doc = 0;
  size_t total = 0;
  // Each list surfaces its doc ids through one sequential scan; reuse that
  // scan for both the bounds and the histogram below.
  std::vector<std::vector<uint32_t>> docs(lists.size());
  for (size_t i = 0; i < lists.size(); ++i) {
    const DilListRef& list = lists[i];
    if (list.empty()) continue;
    total += list.size();
    list.flat->CollectDocIds(list.list, &docs[i]);
    min_doc = std::min(min_doc, docs[i].front());
    max_doc = std::max(max_doc, docs[i].back());
  }
  if (total == 0) return {DocRange{0, 0}};
  if (max_shards <= 1 || min_doc == max_doc) {
    return {DocRange{min_doc, max_doc + 1}};
  }

  // Per-document posting counts — the balance unit.
  std::vector<size_t> doc_postings(max_doc - min_doc + 1, 0);
  for (const std::vector<uint32_t>& list_docs : docs) {
    for (uint32_t doc : list_docs) ++doc_postings[doc - min_doc];
  }

  return PartitionDocHistogram(min_doc, max_doc, total, doc_postings,
                               max_shards);
}

}  // namespace xontorank
