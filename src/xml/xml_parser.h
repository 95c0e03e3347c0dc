#ifndef XONTORANK_XML_XML_PARSER_H_
#define XONTORANK_XML_XML_PARSER_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "xml/xml_node.h"

namespace xontorank {

/// Options controlling XML parsing.
struct XmlParseOptions {
  /// Maximum element nesting depth. Real CDA documents nest ~10 deep; 256
  /// is generous. Inputs deeper than this fail with a ParseError, so a
  /// hostile document like `<a><a><a>...` cannot make the tree, or any
  /// recursive walk over it, arbitrarily deep. Must be >= 1.
  size_t max_depth = 256;
};

/// Parses `input` into a document tree.
///
/// Supported grammar: one root element; nested elements with attributes
/// (single- or double-quoted); character data; the five predefined entities
/// plus decimal/hex character references; comments; CDATA sections;
/// `<?...?>` processing instructions and XML declarations (skipped);
/// `<!DOCTYPE ...>` (skipped, including bracketed internal subsets).
/// Namespace prefixes are kept as part of tag/attribute names (CDA uses a
/// default namespace throughout, so no prefix resolution is required).
///
/// Text consisting solely of whitespace between elements is dropped (CDA
/// documents are indented for readability; that whitespace carries no
/// content). Code nodes are recognised as their start tags close: see
/// XmlNode::onto_ref.
///
/// The document keeps the text it was parsed from, and its names, values
/// and text point into it; the string_view overload copies `input` once,
/// the rvalue overload adopts the buffer.
///
/// Errors carry 1-based line:column positions of the offending byte.
[[nodiscard]] Result<XmlDocument> ParseXml(std::string_view input,
                                           const XmlParseOptions& options = {});
[[nodiscard]] Result<XmlDocument> ParseXml(std::string&& input,
                                           const XmlParseOptions& options = {});
[[nodiscard]] inline Result<XmlDocument> ParseXml(
    const char* input, const XmlParseOptions& options = {}) {
  return ParseXml(std::string_view(input), options);
}

}  // namespace xontorank

#endif  // XONTORANK_XML_XML_PARSER_H_
