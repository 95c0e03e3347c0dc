#include "xml/xml_path.h"

#include <algorithm>

#include "common/string_util.h"

namespace xontorank {

namespace {

/// The matcher runs as a small NFA over step indices, walking the tree once
/// in document order (so results come out in document order without
/// sorting). A state s means "steps[s..] remain to be matched below the
/// current node"; `**` states persist across levels and epsilon-advance.

/// Adds `s` and, while steps[s] == "**", also s+1 (zero-level expansion).
/// `steps.size()` acts as the accept state.
void AddWithClosure(const std::vector<std::string_view>& steps, size_t s,
                    std::vector<size_t>& states) {
  while (true) {
    if (std::find(states.begin(), states.end(), s) == states.end()) {
      states.push_back(s);
    }
    if (s >= steps.size() || steps[s] != "**") return;
    ++s;
  }
}

bool ContainsAccept(const std::vector<std::string_view>& steps,
                    const std::vector<size_t>& states) {
  return std::find(states.begin(), states.end(), steps.size()) != states.end();
}

void Walk(const XmlNode& node, const std::vector<std::string_view>& steps,
          const std::vector<size_t>& states,
          std::vector<XmlNode>& out) {
  if (states.empty()) return;
  for (XmlNode child : node.children()) {
    if (!child.is_element()) continue;
    std::vector<size_t> next;
    bool emit = false;
    for (size_t s : states) {
      if (s >= steps.size()) continue;
      std::string_view step = steps[s];
      if (step == "**") {
        // The ** consumes this child and stays active.
        AddWithClosure(steps, s, next);
        continue;
      }
      if (step == "*" || step == child.tag()) {
        std::vector<size_t> advanced;
        AddWithClosure(steps, s + 1, advanced);
        if (ContainsAccept(steps, advanced)) emit = true;
        for (size_t a : advanced) {
          if (a < steps.size() &&
              std::find(next.begin(), next.end(), a) == next.end()) {
            next.push_back(a);
          }
        }
      }
    }
    if (emit) out.push_back(child);
    Walk(child, steps, next, out);
  }
}

}  // namespace

std::vector<XmlNode> SelectPath(const XmlNode& root, std::string_view path) {
  std::vector<XmlNode> out;
  std::vector<std::string_view> steps;
  for (std::string_view step : SplitString(path, '/')) {
    std::string_view trimmed = TrimWhitespace(step);
    if (!trimmed.empty()) steps.push_back(trimmed);
  }
  if (steps.empty()) return out;
  std::vector<size_t> initial;
  AddWithClosure(steps, 0, initial);
  Walk(root, steps, initial, out);
  return out;
}

XmlNode SelectFirst(const XmlNode& root, std::string_view path) {
  std::vector<XmlNode> matches = SelectPath(root, path);
  return matches.empty() ? XmlNode() : matches.front();
}

}  // namespace xontorank
