#include "core/xonto_dil.h"

#include <algorithm>

namespace xontorank {

namespace {

// Length of v's LevelDB-style varint encoding (storage/coding.h).
size_t VarintLength(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

bool DeweyLess(const DilPosting& a, const DilPosting& b) {
  return a.dewey < b.dewey;
}

}  // namespace

size_t DilEntry::ApproxSizeBytes() const {
  // Per posting: varint(shared) + varint(fresh) + fresh component varints
  // + fixed32 quantized score.
  size_t bytes = 0;
  const DilPosting* prev = nullptr;
  for (const DilPosting& p : postings) {
    size_t shared =
        prev == nullptr ? 0 : prev->dewey.CommonPrefixLength(p.dewey);
    bytes += VarintLength(shared);
    bytes += VarintLength(p.dewey.size() - shared);
    for (size_t i = shared; i < p.dewey.size(); ++i) {
      bytes += VarintLength(p.dewey[i]);
    }
    bytes += sizeof(uint32_t);  // quantized score
    prev = &p;
  }
  return bytes;
}

void XOntoDil::Put(std::string keyword, std::vector<DilPosting> postings) {
  // Builders (precompute, decode, thaw) emit Dewey order already; only
  // genuinely unsorted input pays for the sort.
  if (!std::is_sorted(postings.begin(), postings.end(), DeweyLess)) {
    std::sort(postings.begin(), postings.end(), DeweyLess);
  }
  // Single map traversal: insert/overwrite in place instead of building a
  // DilEntry aside and copying the keyword twice.
  DilEntry& entry = entries_[keyword];
  entry.keyword = std::move(keyword);
  entry.postings = std::move(postings);
}

const DilEntry* XOntoDil::Find(const std::string& keyword) const {
  auto it = entries_.find(keyword);
  return it == entries_.end() ? nullptr : &it->second;
}

size_t XOntoDil::TotalPostings() const {
  size_t total = 0;
  for (const auto& [kw, entry] : entries_) total += entry.postings.size();
  return total;
}

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

std::vector<DocRange> PartitionListsByDocument(
    const std::vector<std::span<const DilPosting>>& lists, size_t max_shards) {
  uint32_t min_doc = UINT32_MAX;
  uint32_t max_doc = 0;
  size_t total = 0;
  for (const auto& list : lists) {
    if (list.empty()) continue;
    total += list.size();
    min_doc = std::min(min_doc, list.front().dewey.doc_id());
    max_doc = std::max(max_doc, list.back().dewey.doc_id());
  }
  if (total == 0) return {DocRange{0, 0}};
  if (max_shards <= 1 || min_doc == max_doc) {
    return {DocRange{min_doc, max_doc + 1}};
  }

  // Per-document posting counts — the balance unit. One O(P) pass; the
  // lists are doc-ordered but a histogram is simpler than merging cursors
  // and the merge itself is O(P·d) anyway.
  std::vector<size_t> doc_postings(max_doc - min_doc + 1, 0);
  for (const auto& list : lists) {
    for (const DilPosting& p : list) ++doc_postings[p.dewey.doc_id() - min_doc];
  }

  return PartitionDocHistogram(min_doc, max_doc, total, doc_postings,
                               max_shards);
}

std::span<const DilPosting> SliceDocRange(std::span<const DilPosting> list,
                                          const DocRange& range) {
  auto lower = std::partition_point(
      list.begin(), list.end(), [&range](const DilPosting& p) {
        return p.dewey.doc_id() < range.begin_doc;
      });
  auto upper = std::partition_point(
      lower, list.end(), [&range](const DilPosting& p) {
        return p.dewey.doc_id() < range.end_doc;
      });
  return list.subspan(static_cast<size_t>(lower - list.begin()),
                      static_cast<size_t>(upper - lower));
}

}  // namespace xontorank
