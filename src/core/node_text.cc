#include "core/node_text.h"

#include "common/string_util.h"

namespace xontorank {

namespace {

/// OID-ish strings (digits and dots) carry no searchable text.
bool LooksLikeCodeString(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if ((c < '0' || c > '9') && c != '.') return false;
  }
  return true;
}

}  // namespace

std::string TextualDescription(
    const XmlNode& element,
    const std::unordered_set<std::string>& excluded_attributes) {
  std::string out(element.tag());
  for (XmlAttribute attr : element.attributes()) {
    out.push_back(' ');
    out += attr.name;
    if (excluded_attributes.count(std::string(attr.name)) > 0) continue;
    if (LooksLikeCodeString(attr.value)) continue;
    out.push_back(' ');
    out += attr.value;
  }
  for (XmlNode child : element.children()) {
    if (child.is_text()) {
      out.push_back(' ');
      out += child.text();
    }
  }
  return out;
}

}  // namespace xontorank
