#include "onto/semantic_similarity.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_map>

#include "common/check.h"

namespace xontorank {

SemanticSimilarity::SemanticSimilarity(const Ontology& ontology)
    : ontology_(&ontology) {
  // Depths: longest chain from a root, computed in topological order
  // (Kahn over is-a edges pointing child → parent, processed parents-first).
  const size_t n = ontology.concept_count();
  depths_.assign(n, 0);
  std::vector<size_t> pending(n, 0);
  std::deque<ConceptId> ready;
  for (ConceptId c = 0; c < n; ++c) {
    pending[c] = ontology.Parents(c).size();
    if (pending[c] == 0) ready.push_back(c);  // roots
  }
  size_t visited = 0;
  while (!ready.empty()) {
    ConceptId cur = ready.front();
    ready.pop_front();
    ++visited;
    for (ConceptId child : ontology.Children(cur)) {
      depths_[child] = std::max(depths_[child], depths_[cur] + 1);
      if (--pending[child] == 0) ready.push_back(child);
    }
  }
  XO_CHECK(visited == n && "is-a graph must be a DAG");
}

std::optional<size_t> SemanticSimilarity::RadaDistance(ConceptId a,
                                                       ConceptId b) const {
  if (a == b) return 0;
  std::vector<int32_t> distance(ontology_->concept_count(), -1);
  std::deque<ConceptId> frontier{a};
  distance[a] = 0;
  while (!frontier.empty()) {
    ConceptId cur = frontier.front();
    frontier.pop_front();
    auto visit = [&](ConceptId next) {
      if (distance[next] >= 0) return false;
      distance[next] = distance[cur] + 1;
      frontier.push_back(next);
      return next == b;
    };
    for (ConceptId p : ontology_->Parents(cur)) {
      if (visit(p)) return static_cast<size_t>(distance[b]);
    }
    for (ConceptId ch : ontology_->Children(cur)) {
      if (visit(ch)) return static_cast<size_t>(distance[b]);
    }
  }
  return std::nullopt;
}

double SemanticSimilarity::PathSimilarity(ConceptId a, ConceptId b) const {
  auto distance = RadaDistance(a, b);
  if (!distance.has_value()) return 0.0;
  return 1.0 / (1.0 + static_cast<double>(*distance));
}

std::vector<ConceptId> SemanticSimilarity::AncestorsOf(ConceptId c) const {
  std::vector<ConceptId> out;
  std::vector<bool> seen(ontology_->concept_count(), false);
  std::deque<ConceptId> frontier{c};
  seen[c] = true;
  while (!frontier.empty()) {
    ConceptId cur = frontier.front();
    frontier.pop_front();
    out.push_back(cur);
    for (ConceptId p : ontology_->Parents(cur)) {
      if (!seen[p]) {
        seen[p] = true;
        frontier.push_back(p);
      }
    }
  }
  return out;
}

std::optional<ConceptId> SemanticSimilarity::LowestCommonAncestor(
    ConceptId a, ConceptId b) const {
  std::vector<bool> a_ancestor(ontology_->concept_count(), false);
  for (ConceptId anc : AncestorsOf(a)) a_ancestor[anc] = true;
  std::optional<ConceptId> best;
  for (ConceptId anc : AncestorsOf(b)) {
    if (!a_ancestor[anc]) continue;
    if (!best.has_value() || depths_[anc] > depths_[*best] ||
        (depths_[anc] == depths_[*best] && anc < *best)) {
      best = anc;
    }
  }
  return best;
}

double SemanticSimilarity::WuPalmer(ConceptId a, ConceptId b) const {
  auto lca = LowestCommonAncestor(a, b);
  if (!lca.has_value()) return 0.0;
  double denom = static_cast<double>(depths_[a] + depths_[b]);
  if (denom == 0.0) return a == b ? 1.0 : 0.0;
  return 2.0 * static_cast<double>(depths_[*lca]) / denom;
}

void SemanticSimilarity::SetCorpusCounts(const std::vector<size_t>& counts) {
  XO_CHECK_EQ(counts.size(), ontology_->concept_count());
  const size_t n = ontology_->concept_count();
  // Propagate counts upward: cumulative[c] = Σ counts over c's descendant
  // closure (including itself). Process children-before-parents.
  std::vector<double> cumulative(counts.begin(), counts.end());
  std::vector<size_t> pending(n, 0);
  std::deque<ConceptId> ready;
  for (ConceptId c = 0; c < n; ++c) {
    pending[c] = ontology_->Children(c).size();
    if (pending[c] == 0) ready.push_back(c);  // leaves
  }
  // Multi-parent DAG: a descendant's count flows to every parent (standard
  // for IC over DAG taxonomies; mass can be counted by several ancestors).
  while (!ready.empty()) {
    ConceptId cur = ready.front();
    ready.pop_front();
    for (ConceptId p : ontology_->Parents(cur)) {
      cumulative[p] += cumulative[cur];
      if (--pending[p] == 0) ready.push_back(p);
    }
  }
  double total = 0.0;
  for (ConceptId c = 0; c < n; ++c) {
    if (ontology_->Parents(c).empty()) total += cumulative[c];
  }
  if (total <= 0.0) total = 1.0;
  ic_.assign(n, 0.0);
  for (ConceptId c = 0; c < n; ++c) {
    // Laplace-style floor so unreferenced concepts get finite, maximal IC.
    double p = (cumulative[c] + 0.5) / (total + 0.5);
    ic_[c] = -std::log(p);
    if (ic_[c] < 0.0) ic_[c] = 0.0;
  }
}

void SemanticSimilarity::CountCorpusReferences(const Corpus& corpus) {
  std::vector<size_t> counts(ontology_->concept_count(), 0);
  for (const XmlDocument& doc : corpus) {
    if (!doc.root()) continue;
    doc.root().Visit([&](const XmlNode& node) {
      if (!node.onto_ref().has_value()) return;
      if (node.onto_ref()->system != ontology_->system_id()) return;
      ConceptId c = ontology_->FindByCode(node.onto_ref()->code);
      if (c != kInvalidConcept) ++counts[c];
    });
  }
  SetCorpusCounts(counts);
}

double SemanticSimilarity::Resnik(ConceptId a, ConceptId b) const {
  XO_CHECK(has_information_content());
  auto lca = LowestCommonAncestor(a, b);
  if (!lca.has_value()) return 0.0;
  return ic_[*lca];
}

double SemanticSimilarity::Lin(ConceptId a, ConceptId b) const {
  XO_CHECK(has_information_content());
  auto lca = LowestCommonAncestor(a, b);
  if (!lca.has_value()) return 0.0;
  double denom = ic_[a] + ic_[b];
  if (denom <= 0.0) return a == b ? 1.0 : 0.0;
  return std::min(1.0, 2.0 * ic_[*lca] / denom);
}

}  // namespace xontorank
