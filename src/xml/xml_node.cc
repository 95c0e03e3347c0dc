#include "xml/xml_node.h"

#include <algorithm>

#include "common/check.h"
#include "common/string_util.h"

namespace xontorank {

using xml_detail::AttrRecord;
using xml_detail::kNone;
using xml_detail::NodeRecord;
using xml_detail::StrRef;

std::optional<std::string_view> XmlNode::GetAttribute(
    std::string_view name) const {
  for (XmlAttribute attr : attributes()) {
    if (attr.name == name) return attr.value;
  }
  return std::nullopt;
}

XmlNode XmlNode::FindChildElement(std::string_view tag) const {
  for (XmlNode child : children()) {
    if (child.is_element() && child.tag() == tag) return child;
  }
  return XmlNode();
}

XmlNode XmlNode::FindDescendantElement(std::string_view tag) const {
  XmlNode found;
  Visit([&](const XmlNode& node) {
    if (!found && node.index_ != index_ && node.is_element() &&
        node.tag() == tag) {
      found = node;
    }
  });
  return found;
}

std::string XmlNode::InnerText() const {
  std::string out;
  Visit([&out](const XmlNode& node) {
    if (node.is_text()) out += node.text();
  });
  return out;
}

size_t XmlNode::SubtreeSize() const {
  size_t count = 0;
  Visit([&count](const XmlNode&) { ++count; });
  return count;
}

std::optional<OntoRef> XmlNode::onto_ref() const {
  const NodeRecord& r = record();
  if (r.code_attr == kNone || r.system_attr == kNone) return std::nullopt;
  std::string_view code = doc_->Str(doc_->attrs_[r.code_attr].value);
  std::string_view system = doc_->Str(doc_->attrs_[r.system_attr].value);
  if (code.empty() || system.empty()) return std::nullopt;
  return OntoRef{system, code};
}

bool SameTree(const XmlNode& a, const XmlNode& b) {
  if (a.kind() != b.kind() || a.tag() != b.tag() || a.text() != b.text() ||
      a.ordinal() != b.ordinal() || a.onto_ref() != b.onto_ref()) {
    return false;
  }
  XmlNode::AttributeRange attrs_a = a.attributes();
  XmlNode::AttributeRange attrs_b = b.attributes();
  if (attrs_a.size() != attrs_b.size()) return false;
  for (size_t i = 0; i < attrs_a.size(); ++i) {
    if (attrs_a[i].name != attrs_b[i].name ||
        attrs_a[i].value != attrs_b[i].value) {
      return false;
    }
  }
  XmlNode::ChildRange kids_a = a.children();
  XmlNode::ChildRange kids_b = b.children();
  auto it_a = kids_a.begin();
  auto it_b = kids_b.begin();
  for (; it_a != kids_a.end() && it_b != kids_b.end(); ++it_a, ++it_b) {
    if (!SameTree(*it_a, *it_b)) return false;
  }
  return it_a == kids_a.end() && it_b == kids_b.end();
}

DeweyId XmlDocument::DeweyIdOf(const XmlNode& node) const {
  XO_DCHECK(node.doc_ == this);
  std::vector<uint32_t> comps{doc_id_};
  for (uint32_t i = node.index_; nodes_[i].parent != kNone;
       i = nodes_[i].parent) {
    comps.push_back(nodes_[i].ordinal);
  }
  std::reverse(comps.begin() + 1, comps.end());
  return DeweyId(std::move(comps));
}

XmlNode XmlDocument::Resolve(const DeweyId& id) const {
  if (id.empty() || id.doc_id() != doc_id_ || nodes_.empty()) return XmlNode();
  uint32_t cur = 0;
  for (size_t i = 1; i < id.size(); ++i) {
    uint32_t child = nodes_[cur].first_child;
    while (child != kNone && nodes_[child].ordinal != id[i]) {
      child = nodes_[child].next_sibling;
    }
    if (child == kNone) return XmlNode();
    cur = child;
  }
  return XmlNode(this, cur);
}

// ---- XmlBuilder ----

XmlBuilder::XmlBuilder(std::string_view root_tag) {
  AddNode(kNone, root_tag, /*is_text=*/false);
}

XmlBuilder::Element XmlBuilder::Element::AddElementChild(
    std::string_view tag) const {
  return Element(builder_, builder_->AddNode(index_, tag, /*is_text=*/false));
}

void XmlBuilder::Element::AddTextChild(std::string_view text) const {
  builder_->AddText(index_, text);
}

XmlBuilder::Element XmlBuilder::Element::AddAttribute(
    std::string_view name, std::string_view value) const {
  builder_->AddAttribute(index_, name, value);
  return *this;
}

StrRef XmlBuilder::Intern(std::string_view s) {
  StrRef ref{static_cast<uint32_t>(doc_.arena_.size()) | StrRef::kArenaBit,
             static_cast<uint32_t>(s.size())};
  doc_.arena_.append(s);
  XO_CHECK(doc_.arena_.size() < StrRef::kArenaBit);
  return ref;
}

uint32_t XmlBuilder::AddNode(uint32_t parent, std::string_view name,
                             bool is_text) {
  std::vector<NodeRecord>& nodes = doc_.nodes_;
  uint32_t index = static_cast<uint32_t>(nodes.size());
  NodeRecord node;
  node.parent = parent;
  node.name = Intern(name);
  node.is_text = is_text;
  node.attr_begin = node.attr_end = static_cast<uint32_t>(doc_.attrs_.size());
  if (parent != kNone) {
    XO_CHECK(!nodes[parent].is_text);
    uint32_t last = last_child_[parent];
    if (last == kNone) {
      nodes[parent].first_child = index;
    } else {
      nodes[last].next_sibling = index;
      node.ordinal = nodes[last].ordinal + 1;
    }
    last_child_[parent] = index;
  }
  nodes.push_back(node);
  last_child_.push_back(kNone);
  return index;
}

void XmlBuilder::AddText(uint32_t parent, std::string_view text) {
  uint32_t last = last_child_[parent];
  if (last == kNone || !doc_.nodes_[last].is_text) {
    if (!TrimWhitespace(text).empty()) AddNode(parent, text, /*is_text=*/true);
    return;
  }
  // Extend the previous text child, moving it to the arena's end first if
  // other strings were added after it.
  StrRef& name = doc_.nodes_[last].name;
  uint32_t begin = name.offset & ~StrRef::kArenaBit;
  if (begin + name.size != doc_.arena_.size()) {
    std::string previous(doc_.Str(name));
    name = Intern(previous);
  }
  doc_.arena_.append(text);
  name.size += static_cast<uint32_t>(text.size());
}

void XmlBuilder::AddAttribute(uint32_t element, std::string_view name,
                              std::string_view value) {
  std::vector<AttrRecord>& attrs = doc_.attrs_;
  NodeRecord& node = doc_.nodes_[element];
  XO_CHECK(!node.is_text);
  if (node.attr_end != attrs.size()) {
    // Another element took attributes since: move this element's range to
    // the end so it stays contiguous (the old slots become unused).
    uint32_t begin = static_cast<uint32_t>(attrs.size());
    for (uint32_t a = node.attr_begin; a < node.attr_end; ++a) {
      attrs.push_back(attrs[a]);
    }
    if (node.code_attr != kNone) node.code_attr += begin - node.attr_begin;
    if (node.system_attr != kNone) {
      node.system_attr += begin - node.attr_begin;
    }
    node.attr_begin = begin;
    node.attr_end = static_cast<uint32_t>(attrs.size());
  }
  uint32_t index = node.attr_end++;
  if (name == "code" && node.code_attr == kNone) node.code_attr = index;
  if (name == "codeSystem" && node.system_attr == kNone) {
    node.system_attr = index;
  }
  attrs.push_back({Intern(name), Intern(value)});
}

XmlDocument XmlBuilder::Finish(uint32_t doc_id) {
  doc_.doc_id_ = doc_id;
  doc_.arena_.shrink_to_fit();
  doc_.nodes_.shrink_to_fit();
  doc_.attrs_.shrink_to_fit();
  last_child_.clear();
  return std::move(doc_);
}

}  // namespace xontorank
