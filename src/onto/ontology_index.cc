#include "onto/ontology_index.h"

namespace xontorank {

OntologyIndex::OntologyIndex(const Ontology& ontology, Bm25Params params)
    : ontology_(&ontology), index_(params) {
  for (ConceptId id = 0; id < ontology.concept_count(); ++id) {
    index_.AddUnit(id, ontology.GetConcept(id).FullText());
  }
  index_.Finalize();

  // Restrictions first, target by target: each of t's roles becomes one
  // restriction, with its sources grouped in InRelationships(t) order.
  const size_t concepts = ontology.concept_count();
  in_begin_.reserve(concepts + 1);
  in_begin_.push_back(0);
  std::vector<uint32_t> first_restriction;  // of each target
  first_restriction.reserve(concepts);
  for (ConceptId t = 0; t < concepts; ++t) {
    first_restriction.push_back(static_cast<uint32_t>(restrictions_.size()));
    const std::vector<ConceptRelationship>& in = ontology.InRelationships(t);
    for (const ConceptRelationship& rel : in) {
      uint32_t r = first_restriction.back();
      while (r < restrictions_.size() && restrictions_[r].role != rel.type) ++r;
      in_restrictions_.push_back(r);
      if (r < restrictions_.size()) continue;
      const auto begin = static_cast<uint32_t>(in_sources_.size());
      for (const ConceptRelationship& same : in) {
        if (same.type == rel.type) in_sources_.push_back(same.source);
      }
      restrictions_.push_back({rel.type, t, begin,
                               static_cast<uint32_t>(in_sources_.size())});
    }
    in_begin_.push_back(static_cast<uint32_t>(in_restrictions_.size()));
  }

  out_begin_.reserve(concepts + 1);
  out_begin_.push_back(0);
  for (ConceptId c = 0; c < concepts; ++c) {
    for (const ConceptRelationship& rel : ontology.OutRelationships(c)) {
      out_indegrees_.push_back(static_cast<uint32_t>(
          ontology.RelationInDegree(rel.target, rel.type)));
      // r(c, t) is one of t's in-relationships, so ∃r.t exists.
      uint32_t r = first_restriction[rel.target];
      while (restrictions_[r].role != rel.type) ++r;
      out_restrictions_.push_back(r);
    }
    out_begin_.push_back(static_cast<uint32_t>(out_indegrees_.size()));
  }
}

std::vector<ScoredConcept> OntologyIndex::Match(const Keyword& keyword) const {
  std::vector<ScoredUnit> units = index_.Lookup(keyword);
  std::vector<ScoredConcept> out;
  out.reserve(units.size());
  for (const ScoredUnit& unit : units) {
    out.push_back({unit.unit_id, unit.score});
  }
  return out;
}

}  // namespace xontorank
