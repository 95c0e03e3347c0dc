#include "core/xonto_dil.h"

#include <algorithm>

namespace xontorank {

namespace {

// Bytes of v as a LEB128 varint: 7 payload bits per byte.
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

}  // namespace xontorank
