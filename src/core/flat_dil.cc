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
  pin_.reset();
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
  pin_ = std::move(other.pin_);
  if (pin_ != nullptr) {
    // The views point at the pinned memory, which the move carries along.
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

FlatDil FlatDil::FromSections(const Sections& sections,
                              std::shared_ptr<const void> pin) {
  XO_CHECK(pin != nullptr && "a mapped view pins the memory it aliases");
  // Cursors read the bound of any block they visit without asking.
  XO_CHECK_EQ(sections.block_max.size(), sections.skip_first_doc.size());
  FlatDil dil;
  dil.pin_ = std::move(pin);
  dil.v_ = sections;
  return dil;
}

// --- Builder --------------------------------------------------------------

FlatDil::Builder::Builder(std::span<const ListShape> shapes)
    : arena_begin_(shapes.size() + 1, 0) {
  const size_t lists = shapes.size();
  dil_.keyword_offsets_.resize(lists + 1);
  dil_.list_begin_.resize(lists + 1);
  dil_.skip_begin_.resize(lists + 1);
  size_t keyword_bytes = 0;
  size_t postings = 0;
  size_t blocks = 0;
  for (size_t l = 0; l < lists; ++l) {
    const ListShape& shape = shapes[l];
    XO_CHECK((l == 0 || shapes[l - 1].keyword < shape.keyword) &&
             "list keywords must be strictly ascending");
    XO_CHECK((shape.postings == 0) == (shape.arena_words == 0) &&
             "a list's first posting stores a whole, non-empty id");
    keyword_bytes += shape.keyword.size();
    postings += shape.postings;
    blocks += shape.blocks();
    arena_begin_[l + 1] = arena_begin_[l] + shape.arena_words;
    dil_.keyword_offsets_[l + 1] = static_cast<uint32_t>(keyword_bytes);
    dil_.list_begin_[l + 1] = static_cast<uint32_t>(postings);
    dil_.skip_begin_[l + 1] = static_cast<uint32_t>(blocks);
  }
  XO_CHECK(keyword_bytes <= UINT32_MAX && postings < UINT32_MAX &&
           arena_begin_[lists] <= UINT32_MAX && "columns index with u32");
  dil_.keyword_arena_.reserve(keyword_bytes);
  for (const ListShape& shape : shapes) {
    dil_.keyword_arena_.append(shape.keyword);
  }
  dil_.scores_.resize(postings);
  dil_.shared_.resize(postings);
  dil_.suffix_offsets_.resize(postings + 1);
  dil_.arena_.resize(arena_begin_[lists]);
  dil_.skip_first_doc_.resize(blocks);
  dil_.block_max_.resize(blocks);
  // Finish's completeness check reads each list's last suffix offset,
  // which only the list's last posting writes.
  for (size_t l = 0; l < lists; ++l) {
    dil_.suffix_offsets_[dil_.list_begin_[l + 1]] = 0;
  }
}

FlatDil::Builder::ListWriter FlatDil::Builder::List(size_t list) {
  return ListWriter(&dil_, dil_.list_begin_[list], dil_.list_begin_[list + 1],
                    dil_.skip_begin_[list], arena_begin_[list],
                    arena_begin_[list + 1]);
}

bool FlatDil::Builder::ListWriter::AddPosting(
    std::span<const uint32_t> components, double score) {
  if (pos_ == end_ || components.empty() || components.size() > UINT16_MAX) {
    return false;
  }
  // One pass over the common prefix decides both the order and the shared
  // length: the first differing component must not decrease, and with no
  // difference the id must not be a proper prefix (an ancestor) of the
  // previous one.
  const size_t common = std::min(prev_.size(), components.size());
  size_t shared = 0;
  while (shared < common && prev_[shared] == components[shared]) ++shared;
  if (shared < common ? components[shared] < prev_[shared]
                      : components.size() < prev_.size()) {
    return false;
  }
  // Block restart: store the full id so a skip-table seek can start
  // decoding here, and record the block's first document id and open its
  // score upper bound.
  const bool restart = (pos_ - list_begin_) % kBlockPostings == 0;
  const size_t stored_shared = restart ? 0 : shared;
  const size_t fresh = components.size() - stored_shared;
  if (arena_end_ - arena_ < fresh) return false;
  const float ub = ScoreUpperBoundFloat(score);
  if (restart) {
    dil_->skip_first_doc_[block_] = components[0];
    dil_->block_max_[block_] = ub;
    ++block_;
  } else if (ub > dil_->block_max_[block_ - 1]) {
    dil_->block_max_[block_ - 1] = ub;
  }
  std::copy(components.begin() + static_cast<std::ptrdiff_t>(stored_shared),
            components.end(),
            dil_->arena_.begin() + static_cast<std::ptrdiff_t>(arena_));
  arena_ += fresh;
  dil_->shared_[pos_] = static_cast<uint16_t>(stored_shared);
  dil_->suffix_offsets_[pos_ + 1] = static_cast<uint32_t>(arena_);
  dil_->scores_[pos_] = score;
  ++pos_;
  prev_.resize(shared);
  prev_.insert(prev_.end(),
               components.begin() + static_cast<std::ptrdiff_t>(shared),
               components.end());
  return true;
}

FlatDil FlatDil::Builder::Finish() && {
  // A list's last posting writes the suffix offset at the list's end, and
  // only a list written in full reaches its arena end there (a non-empty
  // list's arena slice is never empty, and the constructor zeroed the
  // entry).
  for (size_t l = 0; l + 1 < arena_begin_.size(); ++l) {
    const uint32_t end = dil_.list_begin_[l + 1];
    XO_CHECK((end == dil_.list_begin_[l] ||
              dil_.suffix_offsets_[end] == arena_begin_[l + 1]) &&
             "every list must be written in full");
  }
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
