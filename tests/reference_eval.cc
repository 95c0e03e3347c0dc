#include "tests/reference_eval.h"

#include <algorithm>
#include <map>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "core/elem_rank.h"
#include "core/node_text.h"
#include "core/onto_score.h"
#include "xml/dewey_ref.h"
#include "xml/xml_node.h"

namespace xontorank {
namespace reference {

namespace {

/// Score descending, ties by Dewey order; truncates to top_k (0 = all).
std::vector<QueryResult> Rank(std::vector<QueryResult> results,
                              size_t top_k) {
  std::sort(results.begin(), results.end(),
            [](const QueryResult& a, const QueryResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.element < b.element;
            });
  if (top_k > 0 && results.size() > top_k) results.resize(top_k);
  return results;
}

QueryResult MakeResult(DeweyId element, std::vector<double> scores) {
  QueryResult result;
  result.element = std::move(element);
  for (double s : scores) result.score += s;
  result.keyword_scores = std::move(scores);
  return result;
}

bool AllPositive(const std::vector<double>& scores) {
  return std::all_of(scores.begin(), scores.end(),
                     [](double s) { return s > 0.0; });
}

bool DeweyLess(const Posting& a, const Posting& b) {
  return a.dewey < b.dewey;
}

// Bytes of v as a LEB128 varint: 7 payload bits per byte.
size_t VarintLength(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// One edge of an OntoScore oracle's graph: `to` receives
/// score(from) * multiplier / divisor.
struct ScoreEdge {
  uint32_t from;
  uint32_t to;
  double multiplier;
  double divisor;
};

/// The max-product fixpoint over `edges` from `seeds` (node, IRS): the
/// best score per node, and which nodes were reached at all.
struct Fixpoint {
  std::vector<double> score;
  std::vector<bool> reached;
};

Fixpoint MaxProductFixpoint(
    size_t node_count, const std::vector<ScoreEdge>& edges,
    const std::vector<std::pair<uint32_t, double>>& seeds, double threshold) {
  Fixpoint out{std::vector<double>(node_count, 0.0),
               std::vector<bool>(node_count, false)};
  auto offer = [&out, threshold](uint32_t node, double score) {
    if (score < threshold) return false;
    if (out.reached[node] && score <= out.score[node]) return false;
    out.reached[node] = true;
    out.score[node] = score;
    return true;
  };
  for (const auto& [node, irs] : seeds) offer(node, irs);
  bool changed = true;
  while (changed) {
    changed = false;
    for (const ScoreEdge& edge : edges) {
      if (!out.reached[edge.from]) continue;
      if (offer(edge.to,
                out.score[edge.from] * edge.multiplier / edge.divisor)) {
        changed = true;
      }
    }
  }
  return out;
}

}  // namespace

OntoScoreMap ComputeGraphScoresIndependent(const OntologyIndex& index,
                                           const Keyword& keyword,
                                           const ScoreOptions& options) {
  const Ontology& onto = index.ontology();
  std::vector<ScoreEdge> edges;
  for (ConceptId c = 0; c < onto.concept_count(); ++c) {
    for (ConceptId p : onto.Parents(c)) {
      edges.push_back({c, p, options.decay, 1.0});
      edges.push_back({p, c, options.decay, 1.0});
    }
    for (const ConceptRelationship& rel : onto.OutRelationships(c)) {
      edges.push_back({c, rel.target, options.decay, 1.0});
      edges.push_back({rel.target, c, options.decay, 1.0});
    }
  }
  OntoScoreMap combined;
  for (const ScoredConcept& seed : index.Match(keyword)) {
    Fixpoint one =
        MaxProductFixpoint(onto.concept_count(), edges,
                           {{seed.concept_id, seed.irs}}, options.threshold);
    for (ConceptId c = 0; c < onto.concept_count(); ++c) {
      if (!one.reached[c]) continue;
      auto [it, inserted] = combined.emplace(c, one.score[c]);
      if (!inserted && one.score[c] > it->second) it->second = one.score[c];
    }
  }
  return combined;
}

OntoScoreMap ComputeRelationshipScoresOnDlView(const DlView& view,
                                               const OntologyIndex& index,
                                               const Keyword& keyword,
                                               const ScoreOptions& options) {
  std::vector<ScoreEdge> edges;
  for (DlNodeId node = 0; node < view.node_count(); ++node) {
    for (DlNodeId child : view.IsAChildren(node)) {
      edges.push_back({node, child, 1.0, 1.0});
    }
    for (DlNodeId parent : view.IsAParents(node)) {
      edges.push_back({node, parent, 1.0,
                       static_cast<double>(view.IsAChildren(parent).size())});
    }
    for (DlNodeId dotted : view.DottedNeighbors(node)) {
      edges.push_back({node, dotted, options.decay, 1.0});
    }
  }
  std::vector<std::pair<uint32_t, double>> seeds;
  for (const ScoredConcept& seed : index.Match(keyword)) {
    seeds.emplace_back(view.AtomicNode(seed.concept_id), seed.irs);
  }
  Fixpoint all = MaxProductFixpoint(view.node_count(), edges, seeds,
                                    options.threshold);
  OntoScoreMap out;
  for (DlNodeId node = 0; node < view.node_count(); ++node) {
    if (all.reached[node] && view.IsAtomic(node)) {
      out.emplace(view.ConceptOf(node), all.score[node]);
    }
  }
  return out;
}

FlatDil FreezeLists(const Lists& lists) {
  // Sorted copies of only the lists that need them.
  std::map<std::string_view, std::vector<Posting>> sorted;
  std::vector<const std::vector<Posting>*> postings;
  std::vector<FlatDil::Builder::ListShape> shapes;
  for (const auto& [keyword, list] : lists) {
    const std::vector<Posting>* ordered = &list;
    if (!std::is_sorted(list.begin(), list.end(), DeweyLess)) {
      std::vector<Posting>& copy = sorted[keyword] = list;
      std::sort(copy.begin(), copy.end(), DeweyLess);
      ordered = &copy;
    }
    postings.push_back(ordered);
    FlatDil::Builder::ListShape& shape = shapes.emplace_back();
    shape.keyword = keyword;
    for (size_t i = 0; i < ordered->size(); ++i) {
      shape.Add(i == 0 ? DeweyRef() : DeweyRef((*ordered)[i - 1].dewey),
                DeweyRef((*ordered)[i].dewey));
    }
  }
  FlatDil::Builder builder(shapes);
  for (size_t l = 0; l < postings.size(); ++l) {
    FlatDil::Builder::ListWriter writer = builder.List(l);
    for (const Posting& posting : *postings[l]) {
      XO_CHECK(writer.AddPosting(posting.dewey.components(), posting.score));
    }
  }
  return std::move(builder).Finish();
}

std::vector<Posting> ReadList(const FlatDil& dil, uint32_t list) {
  std::vector<Posting> postings;
  postings.reserve(dil.ListSize(list));
  for (DilCursor c = dil.OpenCursor(list); !c.AtEnd(); c.Next()) {
    postings.push_back(Posting{c.dewey().ToDeweyId(), c.score()});
  }
  return postings;
}

Lists ReadLists(const FlatDil& dil) {
  Lists lists;
  for (uint32_t l = 0; l < dil.keyword_count(); ++l) {
    lists.emplace(std::string(dil.KeywordAt(l)), ReadList(dil, l));
  }
  return lists;
}

size_t ApproxSizeBytes(const std::vector<Posting>& postings) {
  // Per posting: varint(shared) + varint(fresh) + fresh component varints
  // + fixed32 quantized score.
  size_t bytes = 0;
  const Posting* prev = nullptr;
  for (const Posting& p : postings) {
    size_t shared =
        prev == nullptr ? 0 : prev->dewey.CommonPrefixLength(p.dewey);
    bytes += VarintLength(shared);
    bytes += VarintLength(p.dewey.size() - shared);
    for (size_t i = shared; i < p.dewey.size(); ++i) {
      bytes += VarintLength(p.dewey[i]);
    }
    bytes += sizeof(uint32_t);  // quantized score
    prev = &p;
  }
  return bytes;
}

std::vector<QueryResult> EvaluateLists(
    const std::vector<std::vector<Posting>>& lists, double decay,
    size_t top_k) {
  if (lists.empty()) return {};
  const size_t num_keywords = lists.size();
  // Candidate element -> per-keyword max of score * decay^distance over
  // the postings at or below it. Each posting walks up its own prefixes,
  // multiplying by the decay once per containment edge.
  std::map<std::vector<uint32_t>, std::vector<double>> candidates;
  for (size_t w = 0; w < num_keywords; ++w) {
    for (const Posting& posting : lists[w]) {
      const std::vector<uint32_t>& comps = posting.dewey.components();
      double value = posting.score;
      for (size_t len = comps.size(); len >= 1; --len) {
        std::vector<double>& scores =
            candidates
                .try_emplace(std::vector<uint32_t>(comps.begin(),
                                                   comps.begin() + len),
                             num_keywords, 0.0)
                .first->second;
        scores[w] = std::max(scores[w], value);
        value *= decay;
      }
    }
  }
  // E(q): candidates positive on every keyword. A result is a member of
  // E(q) with no strict descendant in E(q).
  std::map<std::vector<uint32_t>, bool> has_member_below;
  for (const auto& [comps, scores] : candidates) {
    if (!AllPositive(scores)) continue;
    for (size_t len = 1; len < comps.size(); ++len) {
      has_member_below[std::vector<uint32_t>(comps.begin(),
                                             comps.begin() + len)] = true;
    }
  }
  std::vector<QueryResult> results;
  for (const auto& [comps, scores] : candidates) {
    if (!AllPositive(scores) || has_member_below.count(comps) > 0) continue;
    results.push_back(MakeResult(DeweyId(comps), scores));
  }
  return Rank(std::move(results), top_k);
}

TreeEvaluator::TreeEvaluator(const Corpus& corpus, const OntologySet& systems,
                             const IndexBuildOptions& options)
    : options_(options) {
  for (size_t s = 0; s < systems.size(); ++s) {
    ontology_indexes_.push_back(std::make_unique<OntologyIndex>(
        systems.system(s), options.score.bm25));
  }
  const auto& excluded = DefaultExcludedAttributes();
  documents_.reserve(corpus.size());
  for (size_t d = 0; d < corpus.size(); ++d) {
    const XmlDocument& xml = corpus[d];
    Document& doc = documents_.emplace_back(options.score.bm25);
    // Preorder numbering of the element nodes, recording each element's
    // element children.
    auto number = [&](auto& self, const XmlNode& node) -> size_t {
      size_t index = doc.elements.size();
      doc.elements.emplace_back();
      doc.elements[index].dewey = xml.DeweyIdOf(node);
      doc.text.AddUnit(static_cast<uint32_t>(index),
                       TextualDescription(node, excluded));
      if (node.onto_ref().has_value()) {
        size_t system = systems.FindSystem(node.onto_ref()->system);
        if (system != OntologySet::npos) {
          ConceptId c =
              systems.system(system).FindByCode(node.onto_ref()->code);
          if (c != kInvalidConcept) {
            doc.elements[index].coded = true;
            doc.elements[index].system = system;
            doc.elements[index].concept_id = c;
          }
        }
      }
      for (XmlNode child : node.children()) {
        if (!child.is_element()) continue;
        size_t child_index = self(self, child);
        doc.elements[index].children.push_back(child_index);
      }
      return index;
    };
    if (xml.root()) number(number, xml.root());
    doc.text.Finalize();
    if (options.use_elem_rank) {
      Corpus one;
      one.Add(corpus.handle(d));
      ElemRank rank(one);
      for (size_t e = 0; e < doc.elements.size(); ++e) {
        doc.elements[e].elem_rank = rank.rank(static_cast<uint32_t>(e));
      }
    }
  }
}

std::vector<QueryResult> TreeEvaluator::Evaluate(const KeywordQuery& query,
                                                 size_t top_k) const {
  if (query.empty()) return {};
  const size_t num_keywords = query.size();
  // OS rows, per keyword and system (Eq. 5's ontological component).
  std::vector<std::vector<OntoScoreMap>> rows(num_keywords);
  if (options_.strategy != Strategy::kXRank) {
    for (size_t w = 0; w < num_keywords; ++w) {
      for (const auto& index : ontology_indexes_) {
        rows[w].push_back(ComputeOntoScores(*index, query.keywords[w],
                                            options_.strategy,
                                            options_.score));
      }
    }
  }
  const double omega = options_.score.ontology_weight;
  const double decay = options_.score.decay;
  const double blend = options_.elem_rank_blend;

  std::vector<QueryResult> results;
  for (const Document& doc : documents_) {
    const size_t n = doc.elements.size();
    // s[e][w], first NS(w, e), then folded bottom-up into the subtree score.
    std::vector<std::vector<double>> s(n, std::vector<double>(num_keywords));
    for (size_t w = 0; w < num_keywords; ++w) {
      for (const ScoredUnit& unit : doc.text.Lookup(query.keywords[w])) {
        s[unit.unit_id][w] = std::max(s[unit.unit_id][w], unit.score);
      }
      for (size_t e = 0; e < n; ++e) {
        const Element& element = doc.elements[e];
        if (element.coded && !rows[w].empty()) {
          const OntoScoreMap& row = rows[w][element.system];
          auto it = row.find(element.concept_id);
          if (it != row.end()) {
            s[e][w] = std::max(s[e][w], omega * it->second);
          }
        }
        if (options_.use_elem_rank && s[e][w] > 0.0) {
          s[e][w] *= (1.0 - blend) + blend * element.elem_rank;
        }
      }
    }
    // Children come after their parent in preorder, so a reverse sweep
    // finishes every subtree before its root.
    std::vector<bool> result_below(n, false);
    for (size_t e = n; e-- > 0;) {
      const Element& element = doc.elements[e];
      for (size_t c : element.children) {
        for (size_t w = 0; w < num_keywords; ++w) {
          s[e][w] = std::max(s[e][w], s[c][w] * decay);
        }
      }
      bool emitted_below = false;
      for (size_t c : element.children) {
        emitted_below = emitted_below || result_below[c];
      }
      if (AllPositive(s[e]) && !emitted_below) {
        results.push_back(MakeResult(element.dewey, s[e]));
        emitted_below = true;
      }
      result_below[e] = emitted_below;
    }
  }
  return Rank(std::move(results), top_k);
}

}  // namespace reference
}  // namespace xontorank
