#ifndef XONTORANK_XML_XML_NODE_H_
#define XONTORANK_XML_XML_NODE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "xml/dewey_id.h"

namespace xontorank {

/// A single XML attribute as read from a document; order within the owning
/// element is preserved. Both views point into the owning document.
struct XmlAttribute {
  std::string_view name;
  std::string_view value;
};

/// Ontological reference carried by a *code node* (§III): the id of the
/// referenced ontological system (e.g. SNOMED's OID) and the concept code
/// within that system. Views into the owning document.
struct OntoRef {
  /// codeSystem attribute value, e.g. "2.16.840.1.113883.6.96".
  std::string_view system;
  /// Concept code within the system, e.g. "195967001".
  std::string_view code;

  bool operator==(const OntoRef& other) const = default;
};

class XmlDocument;

namespace xml_detail {

inline constexpr uint32_t kNone = UINT32_MAX;

/// A string of a document: `size` bytes at `offset` in the document's
/// source text, or in its string arena when `offset` has kArenaBit set.
/// Offsets instead of views keep records at 8 bytes per string and let the
/// arena grow (and the document move) without fixing anything up.
struct StrRef {
  static constexpr uint32_t kArenaBit = 0x80000000u;
  uint32_t offset = 0;
  uint32_t size = 0;
};

/// One node of a document's node array. Nodes link to their relatives by
/// index; the root is node 0.
struct NodeRecord {
  uint32_t parent = kNone;
  uint32_t first_child = kNone;
  uint32_t next_sibling = kNone;
  uint32_t ordinal = 0;       ///< index among the parent's children
  StrRef name;                ///< tag (elements) or character data (text)
  uint32_t attr_begin = 0;    ///< attribute range [attr_begin, attr_end)
  uint32_t attr_end = 0;      ///< in the document's attribute array
  uint32_t code_attr = kNone;    ///< index of the `code` attribute
  uint32_t system_attr = kNone;  ///< index of the `codeSystem` attribute
  bool is_text = false;
};

struct AttrRecord {
  StrRef name;
  StrRef value;
};

}  // namespace xml_detail

/// Read handle to one node of an XmlDocument: the document plus the node's
/// index in its node array. Two kinds exist: elements (tag, attributes,
/// children) and text nodes (character data only). A default-constructed
/// handle is null (`!node`); lookups that find nothing return one.
///
/// Handles and every string_view they hand out stay valid while the
/// document lives at the same address: moving the document invalidates
/// them (documents are normally moved once, into a Corpus, right after
/// they are made).
class XmlNode {
 public:
  enum class Kind { kElement, kText };

  class ChildIterator;
  class ChildRange;
  class AttributeRange;

  XmlNode() = default;

  explicit operator bool() const { return doc_ != nullptr; }
  bool operator==(const XmlNode& other) const = default;

  Kind kind() const { return is_text() ? Kind::kText : Kind::kElement; }
  bool is_element() const { return !is_text(); }
  bool is_text() const { return record().is_text; }

  /// Element tag name; empty for text nodes.
  std::string_view tag() const;

  /// Character data; empty for element nodes.
  std::string_view text() const;

  /// Attributes in document order.
  AttributeRange attributes() const;

  /// Value of attribute `name`, or nullopt if absent.
  std::optional<std::string_view> GetAttribute(std::string_view name) const;

  /// Children in document order, as handles.
  ChildRange children() const;

  /// The parent element; null for the root.
  XmlNode parent() const;

  /// Index of this node among its parent's children (0 for a root).
  uint32_t ordinal() const { return record().ordinal; }

  /// First element child with tag `tag`, or a null handle.
  XmlNode FindChildElement(std::string_view tag) const;

  /// Depth-first search for the first descendant element with tag `tag`
  /// (excluding `this`), or a null handle.
  XmlNode FindDescendantElement(std::string_view tag) const;

  /// Concatenation of all text-node data in this subtree, in document order.
  std::string InnerText() const;

  /// Number of nodes (elements + text) in this subtree including `this`.
  size_t SubtreeSize() const;

  /// Visits every node in this subtree (preorder), including `this`;
  /// `fn` is called with an XmlNode.
  template <typename Fn>
  void Visit(const Fn& fn) const;

  /// The node's ontological reference if it is a code node, else nullopt.
  /// HL7 CDA convention (§III): an element with non-empty `code` and
  /// `codeSystem` attributes references concept `code` in system
  /// `codeSystem`. Derived from the two attributes on each call.
  std::optional<OntoRef> onto_ref() const;

  /// This node's index in its document's node array (preorder for parsed
  /// documents; creation order for built ones).
  uint32_t index() const { return index_; }

 private:
  friend class XmlDocument;

  XmlNode(const XmlDocument* doc, uint32_t index) : doc_(doc), index_(index) {}

  const xml_detail::NodeRecord& record() const;

  const XmlDocument* doc_ = nullptr;
  uint32_t index_ = 0;
};

/// A document tree in compact form: one node array and one attribute array,
/// with every name, value and text held as an offset into the document's
/// own source text (documents read by ParseXml keep the text they were
/// parsed from) or into a per-document string arena (entity-decoded
/// strings, and every string of a document made by XmlBuilder). Making a
/// document takes a handful of allocations whatever its size.
///
/// Move-only: a copy would silently double a document's memory.
class XmlDocument {
 public:
  XmlDocument() = default;
  XmlDocument(const XmlDocument&) = delete;
  XmlDocument& operator=(const XmlDocument&) = delete;
  XmlDocument(XmlDocument&&) noexcept = default;
  XmlDocument& operator=(XmlDocument&&) noexcept = default;

  /// The root element; null for a default-constructed document.
  XmlNode root() const {
    return nodes_.empty() ? XmlNode() : XmlNode(this, 0);
  }

  uint32_t doc_id() const { return doc_id_; }
  void set_doc_id(uint32_t id) { doc_id_ = id; }

  /// Total node count (elements + text nodes).
  size_t NodeCount() const { return nodes_.size(); }

  /// Dewey id of `node`, which must belong to this document. The id is
  /// computed by walking parent links; O(depth).
  DeweyId DeweyIdOf(const XmlNode& node) const;

  /// Resolves a Dewey id back to the node it denotes, or a null handle if
  /// the id does not address a node of this document.
  XmlNode Resolve(const DeweyId& id) const;

 private:
  friend class XmlNode;
  friend class XmlBuilder;
  friend class XmlParser;

  std::string_view Str(xml_detail::StrRef ref) const {
    const std::string& base =
        (ref.offset & xml_detail::StrRef::kArenaBit) ? arena_ : source_;
    return std::string_view(
        base.data() + (ref.offset & ~xml_detail::StrRef::kArenaBit), ref.size);
  }

  std::string source_;  ///< text the document was parsed from, if any
  std::string arena_;   ///< decoded and built strings
  std::vector<xml_detail::NodeRecord> nodes_;
  std::vector<xml_detail::AttrRecord> attrs_;
  uint32_t doc_id_ = 0;
};

/// Builds a document in memory (CDA generation, tests). Nodes are appended
/// under any element already built; attributes may be added to any element
/// (an element's attributes keep the order they were added in). The parser
/// never goes through here.
///
/// Text children follow the parser's reading of the written document:
/// text that is empty or only whitespace is not added, and text added
/// right after a text child extends that child. So a built document and
/// ParseXml(WriteXml(document)) agree node by node.
class XmlBuilder {
 public:
  /// Handle to an element under construction; valid while the builder
  /// lives.
  class Element {
   public:
    /// Appends an element child and returns it.
    Element AddElementChild(std::string_view tag) const;
    /// Appends a text child (see above for empty text and adjacent text).
    void AddTextChild(std::string_view text) const;
    /// Appends an attribute (duplicate names are not rejected here; the
    /// parser rejects them); returns this element for chaining.
    Element AddAttribute(std::string_view name, std::string_view value) const;

    bool operator==(const Element& other) const = default;

   private:
    friend class XmlBuilder;
    Element(XmlBuilder* builder, uint32_t index)
        : builder_(builder), index_(index) {}
    XmlBuilder* builder_;
    uint32_t index_;
  };

  explicit XmlBuilder(std::string_view root_tag);

  Element root() { return Element(this, 0); }

  /// The finished document, its arrays trimmed to size. The builder is
  /// left empty.
  XmlDocument Finish(uint32_t doc_id = 0);

 private:
  uint32_t AddNode(uint32_t parent, std::string_view name, bool is_text);
  void AddText(uint32_t parent, std::string_view text);
  void AddAttribute(uint32_t element, std::string_view name,
                    std::string_view value);
  xml_detail::StrRef Intern(std::string_view s);

  XmlDocument doc_;
  std::vector<uint32_t> last_child_;  ///< per node, for O(1) appends
};

/// True if the two subtrees are equal node by node: kind, tag, attributes
/// in order, text, ordinal, code node, and children.
bool SameTree(const XmlNode& a, const XmlNode& b);

// ---- inline definitions -------------------------------------------------

class XmlNode::AttributeRange {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = XmlAttribute;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = XmlAttribute;

    iterator() = default;
    XmlAttribute operator*() const;
    iterator& operator++() {
      ++index_;
      return *this;
    }
    bool operator==(const iterator& other) const = default;

   private:
    friend class AttributeRange;
    iterator(const XmlDocument* doc, uint32_t index)
        : doc_(doc), index_(index) {}
    const XmlDocument* doc_ = nullptr;
    uint32_t index_ = 0;
  };

  iterator begin() const { return iterator(doc_, begin_); }
  iterator end() const { return iterator(doc_, end_); }
  size_t size() const { return end_ - begin_; }
  bool empty() const { return begin_ == end_; }
  XmlAttribute operator[](size_t i) const {
    return *iterator(doc_, begin_ + static_cast<uint32_t>(i));
  }

 private:
  friend class XmlNode;
  AttributeRange(const XmlDocument* doc, uint32_t begin, uint32_t end)
      : doc_(doc), begin_(begin), end_(end) {}
  const XmlDocument* doc_;
  uint32_t begin_;
  uint32_t end_;
};

class XmlNode::ChildIterator {
 public:
  using iterator_category = std::forward_iterator_tag;
  using value_type = XmlNode;
  using difference_type = std::ptrdiff_t;
  using pointer = void;
  using reference = XmlNode;

  ChildIterator() = default;
  XmlNode operator*() const { return XmlNode(doc_, index_); }
  ChildIterator& operator++();
  bool operator==(const ChildIterator& other) const {
    return index_ == other.index_;
  }

 private:
  friend class XmlNode;
  ChildIterator(const XmlDocument* doc, uint32_t index)
      : doc_(doc), index_(index) {}
  const XmlDocument* doc_ = nullptr;
  uint32_t index_ = xml_detail::kNone;
};

class XmlNode::ChildRange {
 public:
  ChildIterator begin() const { return ChildIterator(doc_, first_); }
  ChildIterator end() const { return ChildIterator(doc_, xml_detail::kNone); }
  bool empty() const { return first_ == xml_detail::kNone; }

 private:
  friend class XmlNode;
  ChildRange(const XmlDocument* doc, uint32_t first)
      : doc_(doc), first_(first) {}
  const XmlDocument* doc_;
  uint32_t first_;
};

inline const xml_detail::NodeRecord& XmlNode::record() const {
  return doc_->nodes_[index_];
}

inline std::string_view XmlNode::tag() const {
  const xml_detail::NodeRecord& r = record();
  return r.is_text ? std::string_view() : doc_->Str(r.name);
}

inline std::string_view XmlNode::text() const {
  const xml_detail::NodeRecord& r = record();
  return r.is_text ? doc_->Str(r.name) : std::string_view();
}

inline XmlNode::AttributeRange XmlNode::attributes() const {
  const xml_detail::NodeRecord& r = record();
  return AttributeRange(doc_, r.attr_begin, r.attr_end);
}

inline XmlAttribute XmlNode::AttributeRange::iterator::operator*() const {
  const xml_detail::AttrRecord& a = doc_->attrs_[index_];
  return XmlAttribute{doc_->Str(a.name), doc_->Str(a.value)};
}

inline XmlNode::ChildRange XmlNode::children() const {
  return ChildRange(doc_, record().first_child);
}

inline XmlNode::ChildIterator& XmlNode::ChildIterator::operator++() {
  index_ = doc_->nodes_[index_].next_sibling;
  return *this;
}

inline XmlNode XmlNode::parent() const {
  uint32_t p = record().parent;
  return p == xml_detail::kNone ? XmlNode() : XmlNode(doc_, p);
}

template <typename Fn>
void XmlNode::Visit(const Fn& fn) const {
  // Preorder over the links: down to the first child, else across to the
  // next sibling, else up until an ancestor (below this node) has one.
  const std::vector<xml_detail::NodeRecord>& nodes = doc_->nodes_;
  uint32_t i = index_;
  while (true) {
    fn(XmlNode(doc_, i));
    if (nodes[i].first_child != xml_detail::kNone) {
      i = nodes[i].first_child;
      continue;
    }
    while (i != index_ && nodes[i].next_sibling == xml_detail::kNone) {
      i = nodes[i].parent;
    }
    if (i == index_) return;
    i = nodes[i].next_sibling;
  }
}

}  // namespace xontorank

#endif  // XONTORANK_XML_XML_NODE_H_
