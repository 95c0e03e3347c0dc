#include "eval/relevance_oracle.h"

#include <deque>

#include "core/node_text.h"
#include "core/options.h"
#include "ir/tokenizer.h"

namespace xontorank {

namespace {

uint64_t PairKey(ConceptId a, ConceptId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// True if `tokens` contains `phrase` as a consecutive run.
bool ContainsPhrase(const std::vector<std::string>& tokens,
                    const std::vector<std::string>& phrase) {
  if (phrase.empty() || tokens.size() < phrase.size()) return false;
  for (size_t i = 0; i + phrase.size() <= tokens.size(); ++i) {
    bool match = true;
    for (size_t j = 0; j < phrase.size(); ++j) {
      if (tokens[i + j] != phrase[j]) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

}  // namespace

RelevanceOracle::RelevanceOracle(const Ontology& ontology,
                                 OracleOptions options)
    : ontology_(&ontology), index_(ontology), options_(options) {}

void RelevanceOracle::BlockPair(std::string_view term_a,
                                std::string_view term_b) {
  ConceptId a = ontology_->FindByPreferredTerm(term_a);
  ConceptId b = ontology_->FindByPreferredTerm(term_b);
  if (a == kInvalidConcept || b == kInvalidConcept) return;
  blocked_pairs_.insert(PairKey(a, b));
}

bool RelevanceOracle::Blocked(ConceptId a, ConceptId b) const {
  return blocked_pairs_.count(PairKey(a, b)) > 0;
}

bool RelevanceOracle::KeywordSupported(
    const Keyword& keyword, const XmlNode& subtree,
    const std::vector<ConceptId>& doc_concepts) const {
  // (a) Textual support: phrase occurrence in any element description of
  // the subtree.
  bool textual = false;
  subtree.Visit([&](const XmlNode& node) {
    if (textual || !node.is_element()) return;
    std::vector<std::string> tokens =
        Tokenize(TextualDescription(node, DefaultExcludedAttributes()));
    if (ContainsPhrase(tokens, keyword.tokens)) textual = true;
  });
  if (textual) return true;

  // (b) Ontological support: bounded *monotone* BFS from every keyword
  // concept toward the result's referenced concepts — one pass following
  // the edge orientation (is-a child→parent, relationship source→target),
  // one pass against it. Direction-reversing routes (sibling hops through
  // a shared hub) are deliberately not support.
  std::vector<ScoredConcept> seeds = index_.Match(keyword);
  if (seeds.empty() || doc_concepts.empty()) return false;
  std::unordered_set<ConceptId> targets(doc_concepts.begin(),
                                        doc_concepts.end());
  for (const ScoredConcept& seed : seeds) {
    for (bool forward : {true, false}) {
      std::unordered_set<ConceptId> visited{seed.concept_id};
      std::deque<std::pair<ConceptId, size_t>> frontier{{seed.concept_id, 0}};
      while (!frontier.empty()) {
        auto [cur, dist] = frontier.front();
        frontier.pop_front();
        if (targets.count(cur) > 0 && !Blocked(seed.concept_id, cur)) {
          return true;
        }
        if (dist >= options_.max_hops) continue;
        auto enqueue = [&](ConceptId next) {
          if (visited.insert(next).second) {
            frontier.emplace_back(next, dist + 1);
          }
        };
        if (forward) {
          for (ConceptId p : ontology_->Parents(cur)) enqueue(p);
          for (const ConceptRelationship& rel :
               ontology_->OutRelationships(cur)) {
            enqueue(rel.target);
          }
        } else {
          for (ConceptId c : ontology_->Children(cur)) enqueue(c);
          for (const ConceptRelationship& rel :
               ontology_->InRelationships(cur)) {
            enqueue(rel.source);
          }
        }
      }
    }
  }
  return false;
}

bool RelevanceOracle::IsRelevant(const KeywordQuery& query,
                                 const XmlDocument& doc,
                                 const QueryResult& result) const {
  XmlNode subtree = doc.Resolve(result.element);
  if (!subtree) return false;

  std::vector<ConceptId> doc_concepts;
  subtree.Visit([&](const XmlNode& node) {
    if (!node.onto_ref().has_value()) return;
    if (node.onto_ref()->system != ontology_->system_id()) return;
    ConceptId c = ontology_->FindByCode(node.onto_ref()->code);
    if (c != kInvalidConcept) doc_concepts.push_back(c);
  });

  for (const Keyword& keyword : query.keywords) {
    if (!KeywordSupported(keyword, subtree, doc_concepts)) return false;
  }
  return true;
}

size_t RelevanceOracle::CountRelevant(
    const KeywordQuery& query, const Corpus& corpus,
    const std::vector<QueryResult>& results) const {
  size_t count = 0;
  for (const QueryResult& result : results) {
    if (result.element.empty()) continue;
    uint32_t doc_id = result.element.doc_id();
    if (doc_id >= corpus.size()) continue;
    if (IsRelevant(query, corpus[doc_id], result)) ++count;
  }
  return count;
}

}  // namespace xontorank
