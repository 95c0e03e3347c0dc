#ifndef XONTORANK_CORE_XONTO_DIL_H_
#define XONTORANK_CORE_XONTO_DIL_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "xml/dewey_id.h"

namespace xontorank {

class FlatDil;

/// One posting of an XOnto Dewey Inverted List (Fig. 10): a node address and
/// its relevance score NS(w, v) for the list's keyword (Eq. 5). Unlike
/// XRANK's DILs, the score already folds in ontological association, which
/// is the paper's key representational change (§V-A).
struct DilPosting {
  DeweyId dewey;
  double score;

  bool operator==(const DilPosting& other) const {
    return dewey == other.dewey && score == other.score;
  }
};

/// A keyword's inverted list, sorted by Dewey id (document order).
struct DilEntry {
  std::string keyword;  ///< canonical keyword string
  std::vector<DilPosting> postings;

  /// Compact footprint in bytes (Table III's "Size" column): per posting,
  /// the Dewey components after shared-prefix elision — varint(shared),
  /// varint(fresh count) and each fresh component as a varint — plus a
  /// 4-byte quantized score. The definition is self-contained (no encoder
  /// computes it); xonto_dil_test pins it on a hand-computed list.
  size_t ApproxSizeBytes() const;
};

/// The mutable XOnto-DIL index: keyword → inverted list. Ordered map so
/// iteration is deterministic. This is the *build-side* type (IndexBuilder
/// precompute, demand cache, persistence round-trips); the serving path
/// freezes it into the columnar FlatDil (core/flat_dil.h).
class XOntoDil {
 public:
  XOntoDil() = default;

  /// Adds (or replaces) the list for `keyword`. Builders emit postings in
  /// Dewey order already, so sorted input is detected and kept as-is; only
  /// unsorted input pays for a sort.
  void Put(std::string keyword, std::vector<DilPosting> postings);

  /// The list for `keyword`, or nullptr if absent.
  const DilEntry* Find(const std::string& keyword) const;

  bool Contains(const std::string& keyword) const {
    return entries_.count(keyword) > 0;
  }

  size_t keyword_count() const { return entries_.size(); }

  size_t TotalPostings() const;

  /// Converts to the immutable columnar serving representation. Column
  /// reservations are driven by keyword_count()/TotalPostings(), so the
  /// freeze is a single pass without reallocation churn. Defined in
  /// flat_dil.cc.
  FlatDil Freeze() const;

  const std::map<std::string, DilEntry>& entries() const { return entries_; }

 private:
  std::map<std::string, DilEntry> entries_;
};

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
    const std::vector<std::span<const DilPosting>>& lists, size_t max_shards);

/// The greedy equal-work cut shared by both PartitionListsByDocument
/// overloads (legacy spans here, DilListRefs in flat_dil.h):
/// `doc_postings[d - min_doc]` is document d's posting count, `total`
/// their sum (must be > 0). Exposed so the two overloads provably cut at
/// the same boundaries.
std::vector<DocRange> PartitionDocHistogram(
    uint32_t min_doc, uint32_t max_doc, size_t total,
    const std::vector<size_t>& doc_postings, size_t max_shards);

/// The sub-span of `list` (sorted by Dewey id) whose postings fall inside
/// `range` — two binary searches, no copying.
std::span<const DilPosting> SliceDocRange(std::span<const DilPosting> list,
                                          const DocRange& range);

}  // namespace xontorank

#endif  // XONTORANK_CORE_XONTO_DIL_H_
