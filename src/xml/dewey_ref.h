#ifndef XONTORANK_XML_DEWEY_REF_H_
#define XONTORANK_XML_DEWEY_REF_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "xml/dewey_id.h"

namespace xontorank {

/// A non-owning view of a Dewey identifier: a pointer into someone else's
/// component storage (a DeweyId's vector, a FlatDil cursor's decode buffer,
/// a columnar arena). All the comparison semantics of DeweyId — document
/// order, prefix containment — without materializing a heap-owned id, which
/// is what keeps the flat DIL merge loop allocation-free.
///
/// Validity follows the underlying storage: a DilCursor's ref dies on the
/// cursor's next advance, a DeweyId's ref dies with the id. Copying the
/// ref never copies components; call ToDeweyId() to own them.
class DeweyRef {
 public:
  constexpr DeweyRef() = default;
  constexpr DeweyRef(const uint32_t* data, size_t size)
      : data_(data), size_(size) {}
  explicit DeweyRef(const DeweyId& id)
      : data_(id.components().data()), size_(id.size()) {}

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  uint32_t operator[](size_t i) const { return data_[i]; }
  const uint32_t* data() const { return data_; }

  /// Document id (first component). Requires non-empty.
  uint32_t doc_id() const { return data_[0]; }

  /// Materializes an owning DeweyId (the only allocating operation here).
  DeweyId ToDeweyId() const {
    return DeweyId(std::vector<uint32_t>(data_, data_ + size_));
  }

 private:
  const uint32_t* data_ = nullptr;
  size_t size_ = 0;
};

/// CompareDewey for ids already known to agree on their first `from`
/// components (from <= both sizes): compares only what follows.
inline int CompareDeweyFrom(DeweyRef a, DeweyRef b, size_t from) {
  size_t common = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = from; i < common; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

/// Three-way document-order comparison: negative, zero or positive as
/// `a` sorts before, equal to, or after `b`. Identical semantics to
/// DeweyId::operator< (lexicographic; ancestors before descendants).
inline int CompareDewey(DeweyRef a, DeweyRef b) {
  return CompareDeweyFrom(a, b, 0);
}

inline bool operator<(DeweyRef a, DeweyRef b) {
  return CompareDewey(a, b) < 0;
}

inline bool operator==(DeweyRef a, DeweyRef b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

inline bool operator!=(DeweyRef a, DeweyRef b) { return !(a == b); }

inline bool operator==(DeweyRef a, const DeweyId& b) {
  return a == DeweyRef(b);
}
inline bool operator==(const DeweyId& a, DeweyRef b) {
  return DeweyRef(a) == b;
}

/// Number of shared leading components (0 when the ids address different
/// documents); mirrors DeweyId::CommonPrefixLength.
inline size_t CommonPrefixLength(DeweyRef a, DeweyRef b) {
  size_t limit = a.size() < b.size() ? a.size() : b.size();
  size_t n = 0;
  while (n < limit && a[n] == b[n]) ++n;
  return n;
}

}  // namespace xontorank

#endif  // XONTORANK_XML_DEWEY_REF_H_
