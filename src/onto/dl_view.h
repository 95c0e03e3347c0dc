#ifndef XONTORANK_ONTO_DL_VIEW_H_
#define XONTORANK_ONTO_DL_VIEW_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "onto/ontology.h"

namespace xontorank {

/// Node id within a DlView graph.
using DlNodeId = uint32_t;

/// Materialized description-logic view of an ontology (§IV-C, Fig. 6).
///
/// SNOMED belongs to the EL family of description logics. Every attribute
/// relationship `r(A, C)` is interpreted as the concept inclusion
/// `A ⊑ ∃r.C`. The DL view therefore contains:
///   - one *atomic* node per ontology concept,
///   - one *existential role restriction* node `∃r.C` per distinct (r, C)
///     pair occurring in a relationship,
///   - the original is-a edges between atomic nodes,
///   - an is-a edge `A → ∃r.C` for every relationship `r(A, C)`,
///   - an (undirected) *dotted link* between `∃r.C` and `C`, representing
///     the semantic affinity between a concept and restrictions on it.
///
/// This reduces a multi-relational graph to one with only is-a edges plus
/// dotted links, over which the Relationships OntoScore strategy is defined.
/// The production strategy (core/onto_score.cc) traverses the *implicit*
/// DL view directly on the ontology, as §VI-C prescribes; this
/// materialized form is what the test oracle (tests/reference_eval.h) and
/// the ontology_explorer example traverse.
class DlView {
 public:
  explicit DlView(const Ontology& ontology);

  const Ontology& ontology() const { return *ontology_; }

  size_t node_count() const { return kinds_.size(); }
  size_t restriction_count() const { return restriction_info_.size(); }

  bool IsAtomic(DlNodeId id) const { return kinds_[id] == Kind::kAtomic; }

  /// The ontology concept of an atomic node.
  ConceptId ConceptOf(DlNodeId id) const;

  /// The role and filler of a restriction node ∃role.filler.
  RelationTypeId RoleOf(DlNodeId id) const;
  ConceptId FillerOf(DlNodeId id) const;

  /// Syntactic name: the concept's preferred term for atomic nodes, or
  /// "Exists <role> <filler term>" for restriction nodes (§IV-C gives such
  /// names so restriction nodes can be IR-scored too).
  std::string NodeName(DlNodeId id) const;

  /// Atomic node for a concept (always exists).
  DlNodeId AtomicNode(ConceptId concept_id) const;

  /// Restriction node for (role, filler) if any relationship with that
  /// signature exists.
  std::optional<DlNodeId> RestrictionNode(RelationTypeId role,
                                          ConceptId filler) const;

  /// Is-a edges: parents (supers) and children (subs) of a node. For a
  /// restriction node ∃r.C, its is-a children are exactly the concepts A
  /// with r(A, C); `|IsAChildren(∃r.C)|` is its in-degree (§VI-C
  /// denominator).
  const std::vector<DlNodeId>& IsAParents(DlNodeId id) const {
    return isa_parents_[id];
  }
  const std::vector<DlNodeId>& IsAChildren(DlNodeId id) const {
    return isa_children_[id];
  }

  /// Dotted-link neighbors (both directions): for ∃r.C this is {C}; for an
  /// atomic C it is every ∃r.C restriction over C.
  const std::vector<DlNodeId>& DottedNeighbors(DlNodeId id) const {
    return dotted_[id];
  }

 private:
  enum class Kind : uint8_t { kAtomic, kRestriction };

  struct RestrictionInfo {
    RelationTypeId role;
    ConceptId filler;
  };

  const Ontology* ontology_;
  std::vector<Kind> kinds_;
  /// For atomic nodes: the concept id. For restrictions: index into
  /// restriction_info_.
  std::vector<uint32_t> payload_;
  std::vector<RestrictionInfo> restriction_info_;
  std::vector<std::vector<DlNodeId>> isa_parents_;
  std::vector<std::vector<DlNodeId>> isa_children_;
  std::vector<std::vector<DlNodeId>> dotted_;
  std::unordered_map<uint64_t, DlNodeId> restriction_index_;
};

}  // namespace xontorank

#endif  // XONTORANK_ONTO_DL_VIEW_H_
