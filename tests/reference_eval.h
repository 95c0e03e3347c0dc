#ifndef XONTORANK_TESTS_REFERENCE_EVAL_H_
#define XONTORANK_TESTS_REFERENCE_EVAL_H_

// The parity oracle: a deliberately naive evaluator of the paper's
// scoring and result semantics (Eq. 1-5), written straight from the
// definitions. It shares no code with the serving path: no inverted-list
// representation, cursor, merge stack, pruning, segment or cache. Tests,
// bench_flat_dil's smoke gate and fuzz_query compare the engine against
// it with exact double equality. The list helpers beside it (Posting,
// FreezeLists, ReadList) are how tests and benches write explicit lists
// into, and read them back out of, the engine's FlatDil.
//
// Bit-identity is by construction, not by luck: both sides combine the
// same doubles with the same operations. Decay is applied as repeated
// multiplication (never std::pow), the per-keyword subtree score is a max
// (exact in any order, and rounding a product is monotone, so taking the
// max before or after multiplying by the decay gives the same double),
// and a result's score sums its keyword scores in keyword order from 0.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/flat_dil.h"
#include "core/onto_score.h"
#include "core/options.h"
#include "core/query_result.h"
#include "ir/query.h"
#include "ir/text_index.h"
#include "onto/dl_view.h"
#include "onto/ontology_index.h"
#include "onto/ontology_set.h"
#include "xml/corpus.h"
#include "xml/dewey_id.h"

namespace xontorank {
namespace reference {

/// One posting of an XOnto Dewey Inverted List (Fig. 10): a node address
/// and its relevance score NS(w, v) for the list's keyword (Eq. 5).
struct Posting {
  DeweyId dewey;
  double score;

  bool operator==(const Posting&) const = default;
};

/// Named inverted lists: keyword -> postings (in any order).
using Lists = std::map<std::string, std::vector<Posting>>;

/// Freezes `lists` into a FlatDil through FlatDil::Builder: one list per
/// keyword in keyword order, each list's postings sorted by Dewey id.
FlatDil FreezeLists(const Lists& lists);

/// List `list` of `dil` read back through a cursor walk: the postings as
/// frozen, scores bit for bit.
std::vector<Posting> ReadList(const FlatDil& dil, uint32_t list);

/// Every list of `dil`, read back by ReadList.
Lists ReadLists(const FlatDil& dil);

/// Table III's "Size" of one list in bytes: per posting, the Dewey
/// components after shared-prefix elision — varint(shared), varint(fresh
/// count) and each fresh component as a varint — plus a 4-byte quantized
/// score. The definition is self-contained: no encoder computes it.
size_t ApproxSizeBytes(const std::vector<Posting>& postings);

/// Eq. 1-4 over explicit inverted lists, one per keyword (each posting a
/// node address and its NS score; any order). Every prefix of a posting's
/// address is a candidate element; its keyword score is the max over the
/// postings below or at it of score * decay^distance; results are the
/// candidates scoring positive on every keyword with no such descendant,
/// ordered by score descending, ties by Dewey order, truncated to `top_k`
/// (0 = all). No lists, or any empty list, yields no results.
std::vector<QueryResult> EvaluateLists(
    const std::vector<std::vector<Posting>>& lists, double decay,
    size_t top_k);

/// OntoScore oracles (§IV). Both compute OS(w, ·) as a deliberately naive
/// max-product fixpoint over an explicit edge list: every seed concept
/// (Match(keyword) with IRS >= threshold) starts at its IRS, and every
/// edge is relaxed, in list order, until no score changes; a score below
/// the threshold is never written. No heap and no code is shared with the
/// engine's best-first expansion (core/onto_score.cc), and the §IX cap is
/// not applied. Each edge transfers score * multiplier / divisor, the same
/// operations as the engine's transfer factors, so with max-combining the
/// scores agree with ComputeOntoScores bit for bit.

/// Graph strategy without Observation 1: one fixpoint per seed concept over
/// the undirected is-a and relationship edges (each costing `decay`),
/// combined by max.
OntoScoreMap ComputeGraphScoresIndependent(const OntologyIndex& index,
                                           const Keyword& keyword,
                                           const ScoreOptions& options);

/// Relationships strategy over the materialized DL view (§IV-C): is-a
/// down costs 1, is-a up divides by the parent's subclass count, and a
/// dotted link costs `decay`. Restriction nodes only relay scores; the map
/// holds the atomic nodes' concepts.
OntoScoreMap ComputeRelationshipScoresOnDlView(const DlView& view,
                                               const OntologyIndex& index,
                                               const Keyword& keyword,
                                               const ScoreOptions& options);

/// Eq. 1-5 over XML trees. Construction does the per-corpus work once:
/// each document's elements are numbered in preorder and indexed into the
/// document's own BM25 collection over their textual descriptions; code
/// nodes are resolved against `systems`; with use_elem_rank each
/// document's ElemRank is computed over that document alone. Each
/// ontological system gets its own fresh OntologyIndex. The ontologies in
/// `systems` must outlive the evaluator; `corpus` is read only here.
class TreeEvaluator {
 public:
  TreeEvaluator(const Corpus& corpus, const OntologySet& systems,
                const IndexBuildOptions& options);

  /// For every element v and keyword w:
  ///   NS(w,v)  = max(IRS(w,v), omega * OS(w, concept(v))), times the
  ///              ElemRank blend when it is on (Eq. 5);
  ///   s_w(v)   = max(NS(w,v), max over child elements c of s_w(c) * decay)
  ///              (Eq. 2-3, evaluated bottom-up);
  /// v is a result when every s_w(v) > 0 and no descendant is a result
  /// (Eq. 1), scored by the sum of its s_w(v) (Eq. 4). Ordered and
  /// truncated like EvaluateLists.
  std::vector<QueryResult> Evaluate(const KeywordQuery& query,
                                    size_t top_k) const;

 private:
  struct Element {
    DeweyId dewey;
    std::vector<size_t> children;  ///< element children, preorder indexes
    bool coded = false;            ///< resolved code node
    size_t system = 0;
    ConceptId concept_id = kInvalidConcept;
    double elem_rank = 0.0;  ///< only with use_elem_rank
  };
  struct Document {
    explicit Document(Bm25Params params) : text(params) {}
    TextIndex text;                 ///< unit id == preorder element index
    std::vector<Element> elements;  ///< preorder; the root is element 0
  };

  IndexBuildOptions options_;
  std::vector<std::unique_ptr<OntologyIndex>> ontology_indexes_;
  std::vector<Document> documents_;
};

}  // namespace reference
}  // namespace xontorank

#endif  // XONTORANK_TESTS_REFERENCE_EVAL_H_
