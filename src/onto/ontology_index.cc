#include "onto/ontology_index.h"

namespace xontorank {

OntologyIndex::OntologyIndex(const Ontology& ontology, Bm25Params params)
    : ontology_(&ontology), index_(params) {
  for (ConceptId id = 0; id < ontology.concept_count(); ++id) {
    index_.AddUnit(id, ontology.GetConcept(id).FullText());
  }
  index_.Finalize();

  const size_t concepts = ontology.concept_count();
  out_begin_.reserve(concepts + 1);
  in_begin_.reserve(concepts + 1);
  out_begin_.push_back(0);
  in_begin_.push_back(0);
  for (ConceptId c = 0; c < concepts; ++c) {
    for (const ConceptRelationship& rel : ontology.OutRelationships(c)) {
      out_indegrees_.push_back(static_cast<uint32_t>(
          ontology.RelationInDegree(rel.target, rel.type)));
    }
    out_begin_.push_back(static_cast<uint32_t>(out_indegrees_.size()));
    // Group c's incoming relationships by role, keeping their order.
    const size_t first_role = in_roles_.size();
    const std::vector<ConceptRelationship>& in = ontology.InRelationships(c);
    for (const ConceptRelationship& rel : in) {
      bool seen = false;
      for (size_t r = first_role; r < in_roles_.size() && !seen; ++r) {
        seen = in_roles_[r].role == rel.type;
      }
      if (seen) continue;
      const auto begin = static_cast<uint32_t>(in_sources_.size());
      for (const ConceptRelationship& same : in) {
        if (same.type == rel.type) in_sources_.push_back(same.source);
      }
      in_roles_.push_back(
          {rel.type, begin, static_cast<uint32_t>(in_sources_.size())});
    }
    in_begin_.push_back(static_cast<uint32_t>(in_roles_.size()));
  }
}

std::span<const ConceptId> OntologyIndex::RelationSources(
    ConceptId target, RelationTypeId role) const {
  for (uint32_t r = in_begin_[target]; r < in_begin_[target + 1]; ++r) {
    const RoleSources& run = in_roles_[r];
    if (run.role == role) {
      return {in_sources_.data() + run.begin, run.end - run.begin};
    }
  }
  return {};
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

double OntologyIndex::Irs(ConceptId concept_id, const Keyword& keyword) const {
  for (const ScoredConcept& sc : Match(keyword)) {
    if (sc.concept_id == concept_id) return sc.irs;
  }
  return 0.0;
}

}  // namespace xontorank
