#ifndef XONTORANK_CORE_ONTO_SCORE_H_
#define XONTORANK_CORE_ONTO_SCORE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/options.h"
#include "ir/query.h"
#include "onto/ontology.h"
#include "onto/ontology_index.h"

namespace xontorank {

/// OntoScores of one keyword across the ontology: concept → OS(w, c) with
/// OS ≥ threshold. This is one hash-map row of the paper's OntoScore Hash
/// Map H (§V-B, Algorithm 1).
using OntoScoreMap = std::unordered_map<ConceptId, double>;

/// The same row in the form stage 3 reads it: OS(w, c) at index c, for
/// every concept of one system (sized by its concept_count()), with 0.0 for
/// a concept the keyword does not reach. A keyword that reaches no concept
/// has an empty row, so callers test empty() before indexing.
using OntoScoreRow = std::vector<double>;

/// Computes OS(w, ·) for `keyword` under the given strategy (§IV, §VI).
///
/// All three ontology-aware strategies are instances of a merged
/// multi-source best-first expansion (Observation 1): every concept whose
/// terms contain the keyword seeds the frontier with its normalized IRS;
/// authority then flows along edges with strategy-specific transfer factors,
/// each ≤ 1, and every node settles once at its maximum attainable score
/// (the max-combining aggregate of Eq. 10). Expansion stops below
/// `options.threshold`.
///
/// Transfer factors:
///  - Graph (§IV-A): every edge (is-a or relationship, either direction)
///    costs `decay`.
///  - Taxonomy (§IV-B): super→sub propagation costs 1 (a subclass fully
///    satisfies a query for its superclass); sub→super propagation costs
///    1/|subclasses(parent)| (partial satisfaction, split across the
///    parent's fan-out — the paper's 1/26 Asthma example).
///  - Relationships (§VI-C): Taxonomy factors, plus traversal through the
///    implicit DL view: following r(u,v) from u to v costs
///    decay/indeg_r(v) (is-a up into ∃r.v, then the dotted link), and from
///    v to u costs decay (dotted link, then is-a down). Restriction nodes
///    are visited as implicit intermediate states without materializing
///    the DL graph, so sibling flow u1 → ∃r.v → u2 is captured exactly as
///    in the materialized view.
///
/// Under Strategy::kXRank the map is empty (the baseline ignores the
/// ontology).
OntoScoreMap ComputeOntoScores(const OntologyIndex& index,
                               const Keyword& keyword, Strategy strategy,
                               const ScoreOptions& options);

/// The same scores as a dense row (the form OntologyContext caches): the
/// map's score at each concept it holds, 0.0 at every other concept of the
/// system, and an empty row when the map is empty. Read straight off the
/// expansion's dense settle array.
///
/// With `predecessors`, the expansion also leaves its provenance there
/// (explain.h walks it): one entry per expansion state — the concepts at
/// their ids, then under Relationships restriction q (OntologyIndex's
/// dense id) at concept_count() + q — holding the state whose expansion
/// settled it, the state itself for a seed, and UINT32_MAX for a state that
/// never settled (below the threshold, or cut off by the §IX cap). Under
/// Strategy::kXRank it is left empty.
OntoScoreRow ComputeDenseOntoScores(const OntologyIndex& index,
                                    const Keyword& keyword, Strategy strategy,
                                    const ScoreOptions& options,
                                    std::vector<uint32_t>* predecessors =
                                        nullptr);

}  // namespace xontorank

#endif  // XONTORANK_CORE_ONTO_SCORE_H_
