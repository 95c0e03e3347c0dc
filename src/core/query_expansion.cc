#include "core/query_expansion.h"

#include <algorithm>
#include <map>

#include "common/check.h"
#include "core/onto_score.h"

namespace xontorank {

namespace {

IndexBuildOptions BaselineOptions(const QueryExpansionOptions& options) {
  IndexBuildOptions build;
  build.strategy = Strategy::kXRank;  // textual postings only
  build.score = options.score;
  build.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
  return build;
}

}  // namespace

QueryExpansionEngine::QueryExpansionEngine(const Corpus& corpus,
                                           OntologySet systems,
                                           QueryExpansionOptions options)
    : options_(options),
      index_(corpus, std::move(systems), BaselineOptions(options)),
      processor_(options.score) {}

std::vector<QueryExpansionEngine::WeightedKeyword>
QueryExpansionEngine::Expand(const Keyword& keyword) const {
  std::vector<WeightedKeyword> expansions;
  expansions.emplace_back(keyword, 1.0);

  // Rank candidate concepts across all systems by association degree.
  std::vector<std::pair<double, const Concept*>> candidates;
  for (size_t s = 0; s < index_.systems().size(); ++s) {
    const Ontology& onto = index_.systems().system(s);
    OntoScoreMap scores =
        ComputeOntoScores(index_.ontology_index(s), keyword,
                          options_.expansion_strategy, options_.score);
    for (const auto& [concept_id, score] : scores) {
      if (score < options_.min_association) continue;
      candidates.emplace_back(score, &onto.GetConcept(concept_id));
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second->preferred_term < b.second->preferred_term;
            });

  for (const auto& [score, concept_ptr] : candidates) {
    if (expansions.size() > options_.max_expansions_per_keyword) break;
    Keyword expanded = MakeKeyword(concept_ptr->preferred_term);
    if (expanded.tokens.empty() || expanded == keyword) continue;
    bool duplicate = false;
    for (const WeightedKeyword& existing : expansions) {
      if (existing.first == expanded) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) expansions.emplace_back(std::move(expanded), score);
  }
  return expansions;
}

std::vector<QueryResult> QueryExpansionEngine::SearchExpanded(
    const KeywordQuery& query, size_t top_k) const {
  if (query.empty()) return {};
  // One frozen list per keyword: the union of the textual lists of all its
  // disjuncts, max-combining per node with the association-weighted score.
  std::vector<FlatDil> unions;
  unions.reserve(query.size());
  for (const Keyword& keyword : query.keywords) {
    std::map<DeweyId, double> merged;
    for (const auto& [expanded, weight] : Expand(keyword)) {
      for (DilCursor cursor = index_.GetListRef(expanded).OpenCursor();
           !cursor.AtEnd(); cursor.Next()) {
        double score = cursor.score() * weight;
        auto [it, inserted] =
            merged.emplace(cursor.dewey().ToDeweyId(), score);
        if (!inserted && score > it->second) it->second = score;
      }
    }
    const std::string canonical = keyword.Canonical();
    FlatDil::Builder::ListShape shape;
    shape.keyword = canonical;
    DeweyRef prev;
    for (const auto& [dewey, score] : merged) {
      shape.Add(prev, DeweyRef(dewey));
      prev = DeweyRef(dewey);
    }
    FlatDil::Builder builder(std::span(&shape, 1));
    FlatDil::Builder::ListWriter writer = builder.List(0);
    for (const auto& [dewey, score] : merged) {
      XO_CHECK(writer.AddPosting(dewey.components(), score));
    }
    unions.push_back(std::move(builder).Finish());
  }
  std::vector<DilListRef> lists;
  lists.reserve(unions.size());
  for (const FlatDil& dil : unions) lists.push_back(DilListRef::OverFlat(dil, 0));
  return processor_.ExecuteSegments({lists}, top_k, /*num_shards=*/1,
                                    /*pool=*/nullptr);
}

std::vector<QueryResult> QueryExpansionEngine::SearchExpanded(
    std::string_view query_text, size_t top_k) const {
  return SearchExpanded(ParseQuery(query_text), top_k);
}

}  // namespace xontorank
