#include "core/snippet.h"

#include <algorithm>
#include <cctype>
#include <vector>

#include "common/string_util.h"

namespace xontorank {

namespace {

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0;
}

/// Case-insensitive match of `needle` (already lower-case) at `pos` in
/// `haystack_lower`, requiring word boundaries on both sides.
bool MatchesAt(const std::string& haystack_lower, size_t pos,
               const std::string& needle) {
  if (pos + needle.size() > haystack_lower.size()) return false;
  if (haystack_lower.compare(pos, needle.size(), needle) != 0) return false;
  if (pos > 0 && IsWordChar(haystack_lower[pos - 1]) &&
      IsWordChar(needle.front())) {
    return false;
  }
  size_t end = pos + needle.size();
  if (end < haystack_lower.size() && IsWordChar(haystack_lower[end]) &&
      IsWordChar(needle.back())) {
    return false;
  }
  return true;
}

/// A keyword phrase as a displayable needle: tokens joined by single
/// spaces. Occurrences in the visible text may use any single separator
/// between tokens; we normalize the haystack's whitespace first so a plain
/// substring scan suffices.
std::string NeedleOf(const Keyword& keyword) { return keyword.Canonical(); }

}  // namespace

std::string VisibleText(const XmlNode& subtree) {
  std::string raw;
  subtree.Visit([&raw](const XmlNode& node) {
    if (node.is_text()) {
      raw += node.text();
      raw.push_back(' ');
      return;
    }
    for (XmlAttribute attr : node.attributes()) {
      if (attr.name == "displayName" || attr.name == "title") {
        raw += attr.value;
        raw.push_back(' ');
      }
    }
  });
  // Collapse whitespace runs to single spaces.
  std::string out;
  out.reserve(raw.size());
  bool in_space = true;
  for (char c : raw) {
    bool space = std::isspace(static_cast<unsigned char>(c)) != 0;
    if (space) {
      if (!in_space) out.push_back(' ');
    } else {
      out.push_back(c);
    }
    in_space = space;
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

std::string MakeSnippet(const XmlDocument& doc, const DeweyId& element,
                        const KeywordQuery& query,
                        const SnippetOptions& options) {
  XmlNode node = doc.Resolve(element);
  if (!node) return "";
  std::string text = VisibleText(node);
  if (text.empty()) return "";
  std::string lower = AsciiToLower(text);

  // Collect highlight spans (begin, end), first occurrence per keyword plus
  // later ones too; overlaps merged.
  std::vector<std::pair<size_t, size_t>> spans;
  for (const Keyword& keyword : query.keywords) {
    std::string needle = NeedleOf(keyword);
    if (needle.empty()) continue;
    for (size_t pos = 0; (pos = lower.find(needle, pos)) != std::string::npos;
         ++pos) {
      if (MatchesAt(lower, pos, needle)) {
        spans.emplace_back(pos, pos + needle.size());
      }
    }
  }
  std::sort(spans.begin(), spans.end());
  std::vector<std::pair<size_t, size_t>> merged;
  for (const auto& span : spans) {
    if (!merged.empty() && span.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, span.second);
    } else {
      merged.push_back(span);
    }
  }

  // Window: centered on the first highlight, else the text head.
  size_t window_begin = 0;
  if (!merged.empty() && text.size() > options.max_length) {
    size_t first = merged.front().first;
    window_begin = first > options.max_length / 4 ? first - options.max_length / 4 : 0;
    window_begin = std::min(window_begin,
                            text.size() > options.max_length
                                ? text.size() - options.max_length
                                : 0);
  }
  size_t window_end = std::min(text.size(), window_begin + options.max_length);

  std::string snippet;
  if (window_begin > 0) snippet += "…";
  size_t cursor = window_begin;
  for (const auto& [begin, end] : merged) {
    if (end <= window_begin || begin >= window_end) continue;
    size_t clipped_begin = std::max(begin, window_begin);
    size_t clipped_end = std::min(end, window_end);
    snippet += text.substr(cursor, clipped_begin - cursor);
    snippet += options.open_mark;
    snippet += text.substr(clipped_begin, clipped_end - clipped_begin);
    snippet += options.close_mark;
    cursor = clipped_end;
  }
  snippet += text.substr(cursor, window_end - cursor);
  if (window_end < text.size()) snippet += "…";
  return snippet;
}

}  // namespace xontorank
