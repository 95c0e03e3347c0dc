#include "xml/xml_writer.h"

namespace xontorank {

namespace {

void AppendIndent(std::string& out, int depth, int width) {
  out.append(static_cast<size_t>(depth) * static_cast<size_t>(width), ' ');
}

/// Appends `text` with &, <, > (and, for attributes, ") escaped.
void AppendEscaped(std::string& out, std::string_view text, bool attribute) {
  size_t run = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    std::string_view entity;
    if (c == '&') {
      entity = "&amp;";
    } else if (c == '<') {
      entity = "&lt;";
    } else if (c == '>') {
      entity = "&gt;";
    } else if (c == '"' && attribute) {
      entity = "&quot;";
    } else {
      continue;
    }
    out.append(text.data() + run, i - run);
    out += entity;
    run = i + 1;
  }
  out.append(text.data() + run, text.size() - run);
}

void WriteNode(const XmlNode& node, const XmlWriteOptions& options, int depth,
               std::string& out) {
  if (node.is_text()) {
    AppendEscaped(out, node.text(), /*attribute=*/false);
    return;
  }
  if (options.pretty && depth > 0) {
    out.push_back('\n');
    AppendIndent(out, depth, options.indent_width);
  }
  out.push_back('<');
  out += node.tag();
  for (XmlAttribute attr : node.attributes()) {
    out.push_back(' ');
    out += attr.name;
    out += "=\"";
    AppendEscaped(out, attr.value, /*attribute=*/true);
    out.push_back('"');
  }
  if (node.children().empty()) {
    out += "/>";
    return;
  }
  out.push_back('>');
  bool has_element_child = false;
  for (XmlNode child : node.children()) {
    if (child.is_element()) has_element_child = true;
    WriteNode(child, options, depth + 1, out);
  }
  if (options.pretty && has_element_child) {
    out.push_back('\n');
    AppendIndent(out, depth, options.indent_width);
  }
  out += "</";
  out += node.tag();
  out.push_back('>');
}

}  // namespace

std::string WriteXml(const XmlNode& node, const XmlWriteOptions& options) {
  std::string out;
  WriteNode(node, options, 0, out);
  return out;
}

std::string WriteXml(const XmlDocument& doc, const XmlWriteOptions& options) {
  std::string out;
  if (options.emit_declaration) {
    out = "<?xml version=\"1.0\"?>";
    if (options.pretty) out.push_back('\n');
  }
  if (XmlNode root = doc.root()) WriteNode(root, options, 0, out);
  return out;
}

std::string EscapeXmlText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  AppendEscaped(out, text, /*attribute=*/false);
  return out;
}

std::string EscapeXmlAttribute(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  AppendEscaped(out, value, /*attribute=*/true);
  return out;
}

}  // namespace xontorank
