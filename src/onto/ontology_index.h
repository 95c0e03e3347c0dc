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

  /// Distinct tokens appearing in any concept term — the ontology part of
  /// the indexing Vocabulary (§V-B).
  std::vector<std::string> Vocabulary() const { return index_.Vocabulary(); }

  /// The Relationships strategy's (§VI-C) adjacency, computed once here so
  /// that its expansion never rescans a concept's incoming relationships.
  ///
  /// Every existential restriction ∃r.t of the implicit DL view (a role r
  /// and a target t with at least one r-relationship into t) has a dense
  /// id in [0, restriction_count()), so the expansion can number its
  /// states concepts-then-restrictions without hashing.
  size_t restriction_count() const { return restrictions_.size(); }
  RelationTypeId RestrictionRole(uint32_t r) const {
    return restrictions_[r].role;
  }
  ConceptId RestrictionTarget(uint32_t r) const {
    return restrictions_[r].target;
  }
  /// The sources of every relationship of ∃r.t's role arriving at its
  /// target, in InRelationships(target) order.
  std::span<const ConceptId> RestrictionSources(uint32_t r) const {
    return {in_sources_.data() + restrictions_[r].begin,
            restrictions_[r].end - restrictions_[r].begin};
  }

  /// For each relationship r(c, t) of OutRelationships(c), in the same
  /// order: RelationInDegree(t, r), and the id of ∃r.t.
  std::span<const uint32_t> OutRelationInDegrees(ConceptId c) const {
    return {out_indegrees_.data() + out_begin_[c],
            out_begin_[c + 1] - out_begin_[c]};
  }
  std::span<const uint32_t> OutRestrictions(ConceptId c) const {
    return {out_restrictions_.data() + out_begin_[c],
            out_begin_[c + 1] - out_begin_[c]};
  }
  /// For each relationship r(s, c) of InRelationships(c), in the same
  /// order: the id of ∃r.c.
  std::span<const uint32_t> InRestrictions(ConceptId c) const {
    return {in_restrictions_.data() + in_begin_[c],
            in_begin_[c + 1] - in_begin_[c]};
  }

 private:
  /// One restriction ∃role.target: its run of in_sources_.
  struct Restriction {
    RelationTypeId role;
    ConceptId target;
    uint32_t begin;
    uint32_t end;
  };

  const Ontology* ontology_;
  TextIndex index_;
  /// Concept c's out-relationship slots are [out_begin_[c],
  /// out_begin_[c + 1]) of out_indegrees_ and out_restrictions_.
  std::vector<uint32_t> out_begin_;
  std::vector<uint32_t> out_indegrees_;
  std::vector<uint32_t> out_restrictions_;
  /// Concept c's in-relationship slots are [in_begin_[c], in_begin_[c + 1])
  /// of in_restrictions_.
  std::vector<uint32_t> in_begin_;
  std::vector<uint32_t> in_restrictions_;
  /// By id: target t's restrictions are consecutive, in order of their
  /// role's first appearance in InRelationships(t).
  std::vector<Restriction> restrictions_;
  std::vector<ConceptId> in_sources_;
};

}  // namespace xontorank

#endif  // XONTORANK_ONTO_ONTOLOGY_INDEX_H_
