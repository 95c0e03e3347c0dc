#include "core/elem_rank.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace xontorank {

namespace {

/// Per-element adjacency in unit-id space.
struct Graph {
  std::vector<int32_t> parent;                 // -1 for roots
  std::vector<std::vector<uint32_t>> children;
  std::vector<std::vector<uint32_t>> hyper_out;  // reference → anchor
};

/// Attributes that define an anchor and attributes that reference one.
bool IsAnchorAttribute(std::string_view name) {
  return name == "ID" || name == "id" || name == "xml:id";
}

bool IsReferenceAttribute(std::string_view name) {
  return name == "IDREF" || name == "idref" || name == "value";
}

}  // namespace

ElemRank::ElemRank(const Corpus& corpus, ElemRankOptions options) {
  Graph graph;
  // Pass 1: number elements in preorder across the corpus (matching
  // CorpusIndex) and record containment structure + ID anchors + refs.
  struct PendingRef {
    uint32_t unit;
    std::string target;  // anchor value, possibly '#'-prefixed
    size_t doc_index;
  };
  std::vector<PendingRef> pending;
  std::vector<std::unordered_map<std::string, uint32_t>> anchors(corpus.size());

  uint32_t next_unit = 0;
  for (size_t d = 0; d < corpus.size(); ++d) {
    const XmlDocument& doc = corpus[d];
    if (!doc.root()) continue;
    // Assign unit ids in preorder (matching CorpusIndex); a node's parent
    // is visited first, so its unit is known by node index.
    std::vector<int32_t> unit_of(doc.NodeCount(), -1);
    doc.root().Visit([&](const XmlNode& node) {
      if (!node.is_element()) return;
      uint32_t unit = next_unit++;
      unit_of[node.index()] = static_cast<int32_t>(unit);
      XmlNode parent = node.parent();
      int32_t parent_unit = parent ? unit_of[parent.index()] : -1;
      graph.parent.push_back(parent_unit);
      graph.children.emplace_back();
      graph.hyper_out.emplace_back();
      if (parent_unit >= 0) {
        graph.children[static_cast<size_t>(parent_unit)].push_back(unit);
      }
      for (XmlAttribute attr : node.attributes()) {
        if (IsAnchorAttribute(attr.name) && !attr.value.empty()) {
          anchors[d].emplace(attr.value, unit);
        } else if (IsReferenceAttribute(attr.name) && !attr.value.empty() &&
                   (node.tag() == "reference" ||
                    attr.name != "value")) {
          // `value` only counts as a reference on <reference> elements (the
          // CDA originalText pattern); IDREF counts anywhere.
          std::string target(attr.value);
          if (!target.empty() && target[0] == '#') target.erase(0, 1);
          pending.push_back({unit, std::move(target), d});
        }
      }
    });
  }

  // Resolve hyperlink edges within each document.
  for (const PendingRef& ref : pending) {
    auto it = anchors[ref.doc_index].find(ref.target);
    if (it == anchors[ref.doc_index].end()) continue;
    if (it->second == ref.unit) continue;
    graph.hyper_out[ref.unit].push_back(it->second);
    ++hyperlink_edges_;
  }

  // Power iteration:
  // e(v) = (1-d1-d2-d3)/N
  //      + d1 · Σ_{u →hyper v} e(u)/|hyper_out(u)|
  //      + d2 · e(parent(v)) / |children(parent(v))|
  //      + d3 · Σ_{c ∈ children(v)} e(c)
  const size_t n = graph.parent.size();
  ranks_.assign(n, n == 0 ? 0.0 : 1.0 / static_cast<double>(n));
  if (n == 0) return;
  const double base = (1.0 - options.d1 - options.d2 - options.d3) /
                      static_cast<double>(n);
  std::vector<double> next(n);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    std::fill(next.begin(), next.end(), base);
    for (size_t u = 0; u < n; ++u) {
      const double e_u = ranks_[u];
      if (!graph.hyper_out[u].empty()) {
        double share =
            options.d1 * e_u / static_cast<double>(graph.hyper_out[u].size());
        for (uint32_t v : graph.hyper_out[u]) next[v] += share;
      }
      if (!graph.children[u].empty()) {
        double share =
            options.d2 * e_u / static_cast<double>(graph.children[u].size());
        for (uint32_t v : graph.children[u]) next[v] += share;
      }
      if (graph.parent[u] >= 0) {
        next[static_cast<size_t>(graph.parent[u])] += options.d3 * e_u;
      }
    }
    double delta = 0.0;
    for (size_t v = 0; v < n; ++v) delta += std::abs(next[v] - ranks_[v]);
    ranks_.swap(next);
    iterations_run_ = iter + 1;
    if (delta < options.tolerance) break;
  }

  // Normalize to max = 1 so ranks compose multiplicatively with NS.
  double max_rank = 0.0;
  for (double r : ranks_) max_rank = std::max(max_rank, r);
  if (max_rank > 0.0) {
    for (double& r : ranks_) r /= max_rank;
  }
}

}  // namespace xontorank
