#ifndef XONTORANK_CORE_QUERY_EXPANSION_H_
#define XONTORANK_CORE_QUERY_EXPANSION_H_

#include <utility>
#include <vector>

#include "core/index_builder.h"
#include "core/query_processor.h"
#include "onto/ontology_set.h"

namespace xontorank {

/// Parameters of the query-expansion baseline.
struct QueryExpansionOptions {
  /// How many related terms each keyword may expand into (besides itself).
  size_t max_expansions_per_keyword = 5;
  /// Minimum association degree (OntoScore) for a concept's term to be
  /// admitted as an expansion.
  double min_association = 0.2;
  /// Which OntoScore strategy ranks candidate expansions.
  Strategy expansion_strategy = Strategy::kRelationships;
  /// Scoring knobs (decay/threshold/BM25), shared with the baseline index.
  ScoreOptions score;
};

/// The query-expansion comparator the paper argues against (§VIII):
/// instead of propagating ontological relevance into the index (XOntoRank),
/// expand each query keyword into a weighted disjunction of related
/// ontology terms and run plain textual search (XRANK) over the expanded
/// query. A node matching expansion term t of keyword w scores
/// IRS(t, v) · OS(w, concept(t)) — textual occurrence discounted by the
/// association degree.
///
/// Demonstrable weaknesses (exercised by the comparison bench): the result
/// set still requires every disjunct to occur *textually* somewhere, so
/// documents that only reference a concept by code remain invisible; and
/// expansion terms multiply the inverted lists to merge, inflating query
/// time with the expansion budget.
class QueryExpansionEngine {
 public:
  /// `corpus` and the ontologies must outlive the engine.
  QueryExpansionEngine(const Corpus& corpus, OntologySet systems,
                       QueryExpansionOptions options = {});

  /// A weighted expansion: the term to search for and its association
  /// degree with the original keyword (1.0 for the keyword itself).
  using WeightedKeyword = std::pair<Keyword, double>;

  /// The expansion set of `keyword`: itself plus up to
  /// max_expansions_per_keyword related-concept terms, best-first.
  std::vector<WeightedKeyword> Expand(const Keyword& keyword) const;

  /// Searches with expanded keywords; result semantics are Eq. 1 over the
  /// union lists. (Named SearchExpanded, not Search: the comparator is a
  /// baseline, not part of the finalized Search(query, SearchOptions)
  /// surface, and the distinct name keeps that visible at call sites.)
  std::vector<QueryResult> SearchExpanded(const KeywordQuery& query,
                                          size_t top_k) const;
  std::vector<QueryResult> SearchExpanded(std::string_view query_text,
                                          size_t top_k) const;

  const CorpusIndex& index() const { return index_; }

 private:
  QueryExpansionOptions options_;
  CorpusIndex index_;  ///< XRANK-strategy (textual-only) index
  QueryProcessor processor_;
};

}  // namespace xontorank

#endif  // XONTORANK_CORE_QUERY_EXPANSION_H_
