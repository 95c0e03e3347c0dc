#ifndef XONTORANK_XML_XML_PATH_H_
#define XONTORANK_XML_XML_PATH_H_

#include <string_view>
#include <vector>

#include "xml/xml_node.h"

namespace xontorank {

/// Minimal tag-path selection over an XML tree (an XPath-lite for the
/// handful of navigations the CDA model and tests need; not an XPath
/// implementation).
///
/// A path is '/'-separated steps, evaluated relative to `root` (which is
/// not itself matched). Each step is one of:
///  - a tag name — matches element children with that tag;
///  - `*`        — matches any element child;
///  - `**`       — matches any chain of zero or more element levels.
///
/// Examples over a CDA document root:
///  - `component/StructuredBody/component/section` — top-level sections
///  - `**/Observation/value` — every Observation value anywhere
///  - `**/section/*` — all direct children of all sections
///
/// Matches are returned in document order without duplicates. An empty or
/// all-`**` path yields no matches for empty trees and never matches text
/// nodes.
std::vector<XmlNode> SelectPath(const XmlNode& root, std::string_view path);

/// First match of SelectPath or a null handle.
XmlNode SelectFirst(const XmlNode& root, std::string_view path);

}  // namespace xontorank

#endif  // XONTORANK_XML_XML_PATH_H_
