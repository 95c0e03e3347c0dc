#ifndef XONTORANK_ONTO_ONTOLOGY_INDEX_H_
#define XONTORANK_ONTO_ONTOLOGY_INDEX_H_

#include <span>
#include <vector>

#include "ir/query.h"
#include "ir/text_index.h"
#include "onto/ontology.h"

namespace xontorank {

/// A keyword-matching concept with its normalized IR score — the seed set of
/// every OntoScore BFS ("find all concept nodes in O that contain w",
/// Algorithm 1 line 2).
struct ScoredConcept {
  ConceptId concept_id;
  double irs;  ///< normalized IRS(x, w) in (0, 1]
};

/// Full-text index over the terms of an ontology's concepts.
///
/// Replaces the paper's UMLS flat-file API with the in-memory term index it
/// proposes as future work. Each concept is one IR unit; its text is the
/// concatenation of all its terms (preferred + synonyms).
class OntologyIndex {
 public:
  /// Builds the index; `ontology` must outlive this object.
  explicit OntologyIndex(const Ontology& ontology, Bm25Params params = {});

  const Ontology& ontology() const { return *ontology_; }

  /// All concepts whose terms contain `keyword` (phrase-aware), with
  /// normalized IRS scores; the seeds of OntoScore propagation.
  std::vector<ScoredConcept> Match(const Keyword& keyword) const;

  /// Normalized IRS of one concept for `keyword`; 0 if no match.
  double Irs(ConceptId concept_id, const Keyword& keyword) const;

  /// Distinct tokens appearing in any concept term — the ontology part of
  /// the indexing Vocabulary (§V-B).
  std::vector<std::string> Vocabulary() const { return index_.Vocabulary(); }

  /// The Relationships strategy's (§VI-C) adjacency, computed once here so
  /// that its expansion never rescans a concept's incoming relationships:
  ///
  /// RelationInDegree(rel.target, rel.type) for each relationship of
  /// OutRelationships(c), in the same order.
  std::span<const uint32_t> OutRelationInDegrees(ConceptId c) const {
    return {out_indegrees_.data() + out_begin_[c],
            out_begin_[c + 1] - out_begin_[c]};
  }
  /// The sources of every relationship of `role` arriving at `target`, in
  /// InRelationships(target) order.
  std::span<const ConceptId> RelationSources(ConceptId target,
                                             RelationTypeId role) const;

 private:
  /// One role's run of in_sources_ for a target.
  struct RoleSources {
    RelationTypeId role;
    uint32_t begin;
    uint32_t end;
  };

  const Ontology* ontology_;
  TextIndex index_;
  /// OutRelationInDegrees(c) is out_indegrees_[out_begin_[c],
  /// out_begin_[c + 1]).
  std::vector<uint32_t> out_begin_;
  std::vector<uint32_t> out_indegrees_;
  /// Target t's roles are in_roles_[in_begin_[t], in_begin_[t + 1]), in
  /// order of first appearance; each names its run of in_sources_.
  std::vector<uint32_t> in_begin_;
  std::vector<RoleSources> in_roles_;
  std::vector<ConceptId> in_sources_;
};

}  // namespace xontorank

#endif  // XONTORANK_ONTO_ONTOLOGY_INDEX_H_
