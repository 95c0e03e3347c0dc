#include "xml/xml_parser.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "common/string_util.h"

namespace xontorank {

using xml_detail::AttrRecord;
using xml_detail::kNone;
using xml_detail::NodeRecord;
using xml_detail::StrRef;

namespace {

/// Name characters as the C locale's isalpha/isalnum see them: ASCII only.
struct NameChars {
  std::array<bool, 256> start{};
  std::array<bool, 256> rest{};
};

constexpr NameChars MakeNameChars() {
  NameChars chars;
  for (int c = 0; c < 256; ++c) {
    bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    bool digit = c >= '0' && c <= '9';
    chars.start[c] = alpha || c == '_' || c == ':';
    chars.rest[c] = alpha || digit || c == '_' || c == ':' || c == '-' ||
                    c == '.';
  }
  return chars;
}

constexpr NameChars kNameChars = MakeNameChars();

bool IsXmlWhitespace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/// Writes the UTF-8 encoding of `code` (<= 0x10FFFF) to `out`; returns its
/// length.
size_t EncodeUtf8(uint32_t code, char* out) {
  if (code < 0x80) {
    out[0] = static_cast<char>(code);
    return 1;
  }
  if (code < 0x800) {
    out[0] = static_cast<char>(0xC0 | (code >> 6));
    out[1] = static_cast<char>(0x80 | (code & 0x3F));
    return 2;
  }
  if (code < 0x10000) {
    out[0] = static_cast<char>(0xE0 | (code >> 12));
    out[1] = static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out[2] = static_cast<char>(0x80 | (code & 0x3F));
    return 3;
  }
  out[0] = static_cast<char>(0xF0 | (code >> 18));
  out[1] = static_cast<char>(0x80 | ((code >> 12) & 0x3F));
  out[2] = static_cast<char>(0x80 | ((code >> 6) & 0x3F));
  out[3] = static_cast<char>(0x80 | (code & 0x3F));
  return 4;
}

}  // namespace

/// Single-pass XML parser writing the compact document form. It scans
/// runs (memchr for '<', '&' and quotes), keeps an explicit stack of open
/// elements instead of recursing, and turns byte offsets into line:column
/// only when it reports an error.
///
/// Records are built in per-thread scratch arrays that are reused from one
/// parse to the next; the document receives exact-size copies, so a parse
/// makes a fixed number of allocations whatever the document's size.
class XmlParser {
 public:
  struct Scratch {
    std::vector<NodeRecord> nodes;
    std::vector<AttrRecord> attrs;
    std::string arena;
    struct Open {
      uint32_t node;
      uint32_t last_child;
    };
    std::vector<Open> open;

    size_t HeapBytes() const {
      return nodes.capacity() * sizeof(NodeRecord) +
             attrs.capacity() * sizeof(AttrRecord) + arena.capacity() +
             open.capacity() * sizeof(Open);
    }
  };

  XmlParser(std::string_view input, const XmlParseOptions& options,
            Scratch& scratch)
      : s_(input.data()),
        n_(input.size()),
        options_(options),
        nodes_(scratch.nodes),
        attrs_(scratch.attrs),
        arena_(scratch.arena),
        open_(scratch.open) {
    nodes_.clear();
    attrs_.clear();
    arena_.clear();
    open_.clear();
  }

  Status Parse() {
    SkipProlog();
    if (AtEnd()) return Error("document contains no root element");
    if (s_[pos_] != '<') return Error("expected '<' before root element");
    XONTO_RETURN_IF_ERROR(ParseRootElement());
    SkipMisc();
    if (!AtEnd()) return Error("content after the root element");
    return Status::OK();
  }

  /// Moves the parsed records into `doc`, whose source text is `source`
  /// (the text the parser ran over).
  void Finish(std::string source, XmlDocument& doc) const {
    doc.source_ = std::move(source);
    doc.nodes_.assign(nodes_.begin(), nodes_.end());
    doc.attrs_.assign(attrs_.begin(), attrs_.end());
    if (!arena_.empty()) doc.arena_.assign(arena_);
  }

 private:
  bool AtEnd() const { return pos_ >= n_; }

  bool LookingAt(std::string_view s) const {
    return n_ - pos_ >= s.size() &&
           std::memcmp(s_ + pos_, s.data(), s.size()) == 0;
  }

  /// Position of the first `c` in [from, to), or `to`.
  size_t Find(char c, size_t from, size_t to) const {
    const void* hit = std::memchr(s_ + from, c, to - from);
    if (hit == nullptr) return to;
    return static_cast<size_t>(static_cast<const char*>(hit) - s_);
  }

  Status Error(std::string_view what) const {
    std::string_view before(s_, pos_);
    auto newlines = std::count(before.begin(), before.end(), '\n');
    size_t line = 1 + static_cast<size_t>(newlines);
    size_t last_newline = before.rfind('\n');
    size_t column =
        last_newline == std::string_view::npos ? pos_ + 1 : pos_ - last_newline;
    return Status::ParseError(StringPrintf("%zu:%zu: %.*s", line, column,
                                           static_cast<int>(what.size()),
                                           what.data()));
  }

  void SkipWhitespace() {
    while (!AtEnd() && IsXmlWhitespace(s_[pos_])) ++pos_;
  }

  /// Skips the XML declaration, PIs, comments, DOCTYPE and whitespace that
  /// may precede the root element.
  void SkipProlog() {
    while (true) {
      SkipWhitespace();
      if (LookingAt("<?")) {
        SkipUntil("?>");
      } else if (LookingAt("<!--")) {
        SkipUntil("-->");
      } else if (LookingAt("<!DOCTYPE")) {
        SkipDoctype();
      } else {
        return;
      }
    }
  }

  /// Skips comments/PIs/whitespace after the root element.
  void SkipMisc() {
    while (true) {
      SkipWhitespace();
      if (LookingAt("<?")) {
        SkipUntil("?>");
      } else if (LookingAt("<!--")) {
        SkipUntil("-->");
      } else {
        return;
      }
    }
  }

  /// Moves past the next `terminator`, or to the end if there is none.
  void SkipUntil(std::string_view terminator) {
    size_t at = std::string_view(s_, n_).find(terminator, pos_);
    pos_ = at == std::string_view::npos ? n_ : at + terminator.size();
  }

  void SkipDoctype() {
    // <!DOCTYPE name ... [internal subset]? >
    int bracket_depth = 0;
    while (!AtEnd()) {
      char c = s_[pos_++];
      if (c == '[') ++bracket_depth;
      if (c == ']') --bracket_depth;
      if (c == '>' && bracket_depth <= 0) return;
    }
  }

  Status ParseName(std::string_view* name) {
    if (AtEnd() || !kNameChars.start[static_cast<unsigned char>(s_[pos_])]) {
      return Error("expected a name");
    }
    size_t start = pos_++;
    while (!AtEnd() && kNameChars.rest[static_cast<unsigned char>(s_[pos_])]) {
      ++pos_;
    }
    *name = std::string_view(s_ + start, pos_ - start);
    return Status::OK();
  }

  /// Decodes the entity or character reference at '&' into `out` (at most
  /// 4 bytes); sets `*size`.
  Status ParseReference(char* out, size_t* size) {
    ++pos_;  // '&'
    size_t start = pos_;
    while (!AtEnd() && s_[pos_] != ';') {
      if (pos_ - start > 10) return Error("unterminated entity reference");
      ++pos_;
    }
    if (AtEnd()) return Error("unterminated entity reference");
    std::string_view name(s_ + start, pos_ - start);
    ++pos_;  // ';'
    *size = 1;
    if (name == "lt") {
      out[0] = '<';
    } else if (name == "gt") {
      out[0] = '>';
    } else if (name == "amp") {
      out[0] = '&';
    } else if (name == "quot") {
      out[0] = '"';
    } else if (name == "apos") {
      out[0] = '\'';
    } else if (!name.empty() && name[0] == '#') {
      uint32_t code = 0;
      bool ok = false;
      if (name.size() > 2 && (name[1] == 'x' || name[1] == 'X')) {
        for (size_t i = 2; i < name.size(); ++i) {
          char c = name[i];
          uint32_t digit = 0;
          if (c >= '0' && c <= '9') {
            digit = static_cast<uint32_t>(c - '0');
          } else if (c >= 'a' && c <= 'f') {
            digit = static_cast<uint32_t>(c - 'a' + 10);
          } else if (c >= 'A' && c <= 'F') {
            digit = static_cast<uint32_t>(c - 'A' + 10);
          } else {
            return Error("bad hexadecimal character reference");
          }
          code = code * 16 + digit;
          ok = true;
        }
      } else {
        for (size_t i = 1; i < name.size(); ++i) {
          char c = name[i];
          if (c < '0' || c > '9') return Error("bad character reference");
          code = code * 10 + static_cast<uint32_t>(c - '0');
          ok = true;
        }
      }
      if (!ok || code == 0 || code > 0x10FFFF) {
        return Error("character reference out of range");
      }
      *size = EncodeUtf8(code, out);
    } else {
      return Error("unknown entity reference");
    }
    return Status::OK();
  }

  static StrRef SourceRef(size_t begin, size_t end) {
    return StrRef{static_cast<uint32_t>(begin),
                  static_cast<uint32_t>(end - begin)};
  }

  StrRef ArenaRef(size_t begin) const {
    return StrRef{static_cast<uint32_t>(begin) | StrRef::kArenaBit,
                  static_cast<uint32_t>(arena_.size() - begin)};
  }

  /// A quoted attribute value; a view of the source unless it holds
  /// references, which are decoded into the arena.
  Status ParseAttributeValue(StrRef* value) {
    if (AtEnd() || (s_[pos_] != '"' && s_[pos_] != '\'')) {
      return Error("expected quoted attribute value");
    }
    char quote = s_[pos_++];
    size_t start = pos_;
    size_t arena_begin = std::string::npos;
    while (true) {
      size_t close = Find(quote, pos_, n_);
      size_t lt = Find('<', pos_, close);
      size_t amp = Find('&', pos_, lt);
      if (amp < lt) {
        if (arena_begin == std::string::npos) {
          arena_begin = arena_.size();
          arena_.append(s_ + start, amp - start);
        } else {
          arena_.append(s_ + pos_, amp - pos_);
        }
        pos_ = amp;
        char decoded[4];
        size_t size = 0;
        XONTO_RETURN_IF_ERROR(ParseReference(decoded, &size));
        arena_.append(decoded, size);
        continue;
      }
      if (lt < close) {
        pos_ = lt;
        return Error("'<' not allowed inside attribute value");
      }
      if (close == n_) {
        pos_ = n_;
        return Error("unterminated attribute value");
      }
      if (arena_begin == std::string::npos) {
        *value = SourceRef(start, close);
      } else {
        arena_.append(s_ + pos_, close - pos_);
        *value = ArenaRef(arena_begin);
      }
      pos_ = close + 1;
      return Status::OK();
    }
  }

  /// Appends `node` as the last child of the innermost open element (or as
  /// the root); returns its index.
  uint32_t AddNode(NodeRecord node) {
    uint32_t index = static_cast<uint32_t>(nodes_.size());
    if (!open_.empty()) {
      Scratch::Open& parent = open_.back();
      node.parent = parent.node;
      if (parent.last_child == kNone) {
        nodes_[parent.node].first_child = index;
      } else {
        nodes_[parent.last_child].next_sibling = index;
        node.ordinal = nodes_[parent.last_child].ordinal + 1;
      }
      parent.last_child = index;
    }
    nodes_.push_back(node);
    return index;
  }

  /// Parses a start tag at '<'. A non-empty element is left open.
  Status ParseStartTag() {
    if (open_.size() >= options_.max_depth) {
      return Error("element nesting exceeds the configured maximum depth");
    }
    ++pos_;  // '<'
    std::string_view tag;
    XONTO_RETURN_IF_ERROR(ParseName(&tag));
    NodeRecord node;
    node.name = SourceRef(static_cast<size_t>(tag.data() - s_),
                          static_cast<size_t>(tag.data() - s_) + tag.size());
    node.attr_begin = static_cast<uint32_t>(attrs_.size());

    while (true) {
      bool saw_space = false;
      while (!AtEnd() && IsXmlWhitespace(s_[pos_])) {
        saw_space = true;
        ++pos_;
      }
      if (AtEnd()) return Error("unterminated start tag");
      if (s_[pos_] == '>' || LookingAt("/>")) break;
      if (!saw_space) return Error("expected whitespace before attribute");
      std::string_view name;
      XONTO_RETURN_IF_ERROR(ParseName(&name));
      SkipWhitespace();
      if (AtEnd() || s_[pos_] != '=') {
        return Error("expected '=' after attribute name");
      }
      ++pos_;
      SkipWhitespace();
      StrRef value;
      XONTO_RETURN_IF_ERROR(ParseAttributeValue(&value));
      for (uint32_t a = node.attr_begin; a < attrs_.size(); ++a) {
        if (Source(attrs_[a].name) == name) {
          return Error("duplicate attribute '" + std::string(name) + "'");
        }
      }
      uint32_t index = static_cast<uint32_t>(attrs_.size());
      if (name == "code") node.code_attr = index;
      if (name == "codeSystem") node.system_attr = index;
      size_t name_begin = static_cast<size_t>(name.data() - s_);
      attrs_.push_back(
          {SourceRef(name_begin, name_begin + name.size()), value});
    }
    node.attr_end = static_cast<uint32_t>(attrs_.size());
    uint32_t index = AddNode(node);
    if (LookingAt("/>")) {
      pos_ += 2;
    } else {
      ++pos_;  // '>'
      open_.push_back({index, kNone});
    }
    return Status::OK();
  }

  /// Names are never decoded, so they always lie in the source.
  std::string_view Source(StrRef ref) const {
    return std::string_view(s_ + ref.offset, ref.size);
  }

  // ---- pending character data ----
  //
  // Text between two child elements (or tags) may arrive in pieces: runs
  // of plain characters, decoded references, CDATA sections. A single run
  // stays a view of the source; anything more is assembled in the arena.

  void AppendText(size_t begin, size_t end) {
    if (begin == end) return;
    switch (pending_) {
      case Pending::kNone:
        pending_ = Pending::kSource;
        pending_begin_ = begin;
        pending_end_ = end;
        return;
      case Pending::kSource:
        MovePendingToArena();
        break;
      case Pending::kArena:
        break;
    }
    arena_.append(s_ + begin, end - begin);
  }

  void AppendDecoded(const char* bytes, size_t size) {
    if (pending_ == Pending::kNone) {
      pending_ = Pending::kArena;
      pending_begin_ = arena_.size();
    } else if (pending_ == Pending::kSource) {
      MovePendingToArena();
    }
    arena_.append(bytes, size);
  }

  void MovePendingToArena() {
    size_t arena_begin = arena_.size();
    arena_.append(s_ + pending_begin_, pending_end_ - pending_begin_);
    pending_ = Pending::kArena;
    pending_begin_ = arena_begin;
  }

  /// Turns the pending text into a text node, unless it is only whitespace.
  void FlushText() {
    if (pending_ == Pending::kNone) return;
    bool in_arena = pending_ == Pending::kArena;
    pending_ = Pending::kNone;
    std::string_view text =
        in_arena ? std::string_view(arena_).substr(pending_begin_)
                 : std::string_view(s_ + pending_begin_,
                                    pending_end_ - pending_begin_);
    if (TrimWhitespace(text).empty()) {
      if (in_arena) arena_.resize(pending_begin_);
      return;
    }
    NodeRecord node;
    node.is_text = true;
    node.name = in_arena ? ArenaRef(pending_begin_)
                         : SourceRef(pending_begin_, pending_end_);
    AddNode(node);
  }

  /// Parses the root element and everything inside it; the scan starts at
  /// the root's '<'.
  Status ParseRootElement() {
    XONTO_RETURN_IF_ERROR(ParseStartTag());
    while (!open_.empty()) {
      // Character data up to the next markup.
      size_t lt = Find('<', pos_, n_);
      while (true) {
        size_t amp = Find('&', pos_, lt);
        if (amp == lt) break;
        AppendText(pos_, amp);
        pos_ = amp;
        char decoded[4];
        size_t size = 0;
        XONTO_RETURN_IF_ERROR(ParseReference(decoded, &size));
        AppendDecoded(decoded, size);
        // A malformed reference name may run past the '<' found above.
        if (pos_ > lt) lt = Find('<', pos_, n_);
      }
      AppendText(pos_, lt);
      pos_ = lt;
      if (AtEnd()) {
        return Error("unexpected end of input inside element '" +
                     std::string(Source(nodes_[open_.back().node].name)) +
                     "'");
      }
      if (LookingAt("</")) {
        FlushText();
        XONTO_RETURN_IF_ERROR(ParseEndTag());
      } else if (LookingAt("<!--")) {
        SkipUntil("-->");
      } else if (LookingAt("<![CDATA[")) {
        pos_ += 9;
        size_t end = std::string_view(s_, n_).find("]]>", pos_);
        if (end == std::string_view::npos) {
          pos_ = n_;
          return Error("unterminated CDATA section");
        }
        AppendText(pos_, end);
        pos_ = end + 3;
      } else if (LookingAt("<?")) {
        SkipUntil("?>");
      } else {
        FlushText();
        XONTO_RETURN_IF_ERROR(ParseStartTag());
      }
    }
    return Status::OK();
  }

  /// Parses an end tag at "</" and closes the innermost open element.
  Status ParseEndTag() {
    pos_ += 2;
    std::string_view close;
    XONTO_RETURN_IF_ERROR(ParseName(&close));
    std::string_view tag = Source(nodes_[open_.back().node].name);
    if (close != tag) {
      return Error("mismatched end tag: expected </" + std::string(tag) +
                   "> but found </" + std::string(close) + ">");
    }
    SkipWhitespace();
    if (AtEnd() || s_[pos_] != '>') return Error("expected '>' in end tag");
    ++pos_;
    open_.pop_back();
    return Status::OK();
  }

  enum class Pending { kNone, kSource, kArena };

  const char* s_;
  size_t n_;
  size_t pos_ = 0;
  const XmlParseOptions& options_;
  std::vector<NodeRecord>& nodes_;
  std::vector<AttrRecord>& attrs_;
  std::string& arena_;
  std::vector<Scratch::Open>& open_;
  Pending pending_ = Pending::kNone;
  size_t pending_begin_ = 0;  ///< source or arena offset
  size_t pending_end_ = 0;    ///< source offset (kSource only)
};

namespace {

/// Scratch a thread keeps between parses; one larger than this (a very
/// large document) is released after use.
constexpr size_t kScratchKeepBytes = size_t{4} << 20;

Result<XmlDocument> ParseInto(std::string_view input, std::string* adopt,
                              const XmlParseOptions& options) {
  if (input.size() >= StrRef::kArenaBit) {
    return Status::ParseError("document exceeds 2 GiB");
  }
  thread_local XmlParser::Scratch scratch;
  XmlParser parser(input, options, scratch);
  Status status = parser.Parse();
  XmlDocument doc;
  if (status.ok()) {
    parser.Finish(adopt != nullptr ? std::move(*adopt) : std::string(input),
                  doc);
  }
  if (scratch.HeapBytes() > kScratchKeepBytes) {
    scratch = XmlParser::Scratch();
  }
  if (!status.ok()) return status;
  return doc;
}

}  // namespace

Result<XmlDocument> ParseXml(std::string_view input,
                             const XmlParseOptions& options) {
  return ParseInto(input, nullptr, options);
}

Result<XmlDocument> ParseXml(std::string&& input,
                             const XmlParseOptions& options) {
  return ParseInto(input, &input, options);
}

}  // namespace xontorank
