#include "core/onto_score.h"

#include <cstdint>
#include <queue>
#include <vector>

#include "common/check.h"

namespace xontorank {

namespace {

/// Node key of the implicit DL-view state space: atomic concepts keep their
/// id; existential role restrictions ∃r.t get a tagged composite key.
using StateKey = uint64_t;

constexpr StateKey kRestrictionTag = 1ULL << 63;

StateKey ConceptKey(ConceptId c) { return c; }

StateKey RestrictionKey(RelationTypeId role, ConceptId target) {
  return kRestrictionTag | (static_cast<uint64_t>(role) << 32) | target;
}

bool IsRestriction(StateKey key) { return (key & kRestrictionTag) != 0; }

RelationTypeId RoleOfKey(StateKey key) {
  return static_cast<RelationTypeId>((key >> 32) & 0x7fffffffULL);
}

ConceptId TargetOfKey(StateKey key) {
  return static_cast<ConceptId>(key & 0xffffffffULL);
}

struct QueueEntry {
  double score;
  StateKey key;
  bool operator<(const QueueEntry& other) const {
    return score < other.score;  // max-heap on score
  }
};

/// Generic merged multi-source best-first expansion over an implicit graph.
/// `expand(key, score, push)` must push every neighbor with its transferred
/// score. Every transfer factor must be ≤ 1, which makes best-first
/// settlement correct for the max-product semiring: the first time a state
/// pops it carries its maximum attainable score.
template <typename ExpandFn>
std::unordered_map<StateKey, double> Settle(
    const std::vector<ScoredConcept>& seeds, double threshold,
    const ExpandFn& expand, size_t max_settled_concepts = 0) {
  std::priority_queue<QueueEntry> queue;
  for (const ScoredConcept& seed : seeds) {
    if (seed.irs >= threshold) queue.push({seed.irs, ConceptKey(seed.concept_id)});
  }
  std::unordered_map<StateKey, double> settled;
  size_t settled_concepts = 0;
  while (!queue.empty()) {
    QueueEntry top = queue.top();
    queue.pop();
    if (settled.count(top.key) > 0) continue;  // Observation 1: merge & halt
    if (!IsRestriction(top.key)) {
      // §IX approximation: nodes settle in descending score order, so
      // stopping after N concepts keeps exactly the top-N of the exact map.
      if (max_settled_concepts > 0 && settled_concepts >= max_settled_concepts) {
        break;
      }
      ++settled_concepts;
    }
    settled.emplace(top.key, top.score);
    auto push = [&](StateKey key, double score) {
      if (score >= threshold && settled.count(key) == 0) {
        queue.push({score, key});
      }
    };
    expand(top.key, top.score, push);
  }
  return settled;
}

/// Keeps only atomic-concept states.
OntoScoreMap ConceptsOnly(const std::unordered_map<StateKey, double>& settled) {
  OntoScoreMap out;
  out.reserve(settled.size());
  for (const auto& [key, score] : settled) {
    if (!IsRestriction(key)) out.emplace(TargetOfKey(key), score);
  }
  return out;
}

OntoScoreMap ComputeGraphScores(const OntologyIndex& index,
                                const Keyword& keyword,
                                const ScoreOptions& options) {
  const Ontology& onto = index.ontology();
  auto expand = [&](StateKey key, double score, const auto& push) {
    ConceptId c = TargetOfKey(key);
    double next = score * options.decay;
    for (ConceptId p : onto.Parents(c)) push(ConceptKey(p), next);
    for (ConceptId ch : onto.Children(c)) push(ConceptKey(ch), next);
    for (const ConceptRelationship& rel : onto.OutRelationships(c)) {
      push(ConceptKey(rel.target), next);
    }
    for (const ConceptRelationship& rel : onto.InRelationships(c)) {
      push(ConceptKey(rel.source), next);
    }
  };
  return ConceptsOnly(Settle(index.Match(keyword), options.threshold, expand,
                             options.max_concepts_per_keyword));
}

/// Taxonomy transfer: downward (super→sub) full, upward damped by the
/// parent's subclass fan-out.
template <typename PushFn>
void ExpandTaxonomic(const Ontology& onto, ConceptId c, double score,
                     const PushFn& push) {
  for (ConceptId ch : onto.Children(c)) {
    push(ConceptKey(ch), score);  // factor 1
  }
  for (ConceptId p : onto.Parents(c)) {
    size_t fanout = onto.Children(p).size();
    push(ConceptKey(p), score / static_cast<double>(fanout == 0 ? 1 : fanout));
  }
}

OntoScoreMap ComputeTaxonomyScores(const OntologyIndex& index,
                                   const Keyword& keyword,
                                   const ScoreOptions& options) {
  const Ontology& onto = index.ontology();
  auto expand = [&](StateKey key, double score, const auto& push) {
    ExpandTaxonomic(onto, TargetOfKey(key), score, push);
  };
  return ConceptsOnly(Settle(index.Match(keyword), options.threshold, expand,
                             options.max_concepts_per_keyword));
}

OntoScoreMap ComputeRelationshipScores(const OntologyIndex& index,
                                       const Keyword& keyword,
                                       const ScoreOptions& options) {
  const Ontology& onto = index.ontology();
  auto expand = [&](StateKey key, double score, const auto& push) {
    if (IsRestriction(key)) {
      // ∃r.t — dotted link to the filler, is-a down to every source of r.
      RelationTypeId role = RoleOfKey(key);
      ConceptId target = TargetOfKey(key);
      push(ConceptKey(target), score * options.decay);  // dotted link
      for (const ConceptRelationship& rel : onto.InRelationships(target)) {
        if (rel.type == role) push(ConceptKey(rel.source), score);  // factor 1
      }
      return;
    }
    ConceptId c = TargetOfKey(key);
    ExpandTaxonomic(onto, c, score, push);
    // Is-a up into each restriction c belongs to: c ⊑ ∃r.t for r(c, t).
    for (const ConceptRelationship& rel : onto.OutRelationships(c)) {
      size_t indeg = onto.RelationInDegree(rel.target, rel.type);
      push(RestrictionKey(rel.type, rel.target),
           score / static_cast<double>(indeg == 0 ? 1 : indeg));
    }
    // Dotted link from c into each restriction ∃r.c over c.
    for (const ConceptRelationship& rel : onto.InRelationships(c)) {
      push(RestrictionKey(rel.type, c), score * options.decay);
    }
  };
  return ConceptsOnly(Settle(index.Match(keyword), options.threshold, expand,
                             options.max_concepts_per_keyword));
}

}  // namespace

OntoScoreRow DenseOntoScoreRow(const OntoScoreMap& map, size_t concept_count) {
  OntoScoreRow row;
  if (map.empty()) return row;
  row.assign(concept_count, 0.0);
  for (const auto& [concept_id, score] : map) {
    XO_DCHECK_LT(concept_id, concept_count);
    row[concept_id] = score;
  }
  return row;
}

OntoScoreMap ComputeOntoScores(const OntologyIndex& index,
                               const Keyword& keyword, Strategy strategy,
                               const ScoreOptions& options) {
  switch (strategy) {
    case Strategy::kXRank:
      return {};
    case Strategy::kGraph:
      return ComputeGraphScores(index, keyword, options);
    case Strategy::kTaxonomy:
      return ComputeTaxonomyScores(index, keyword, options);
    case Strategy::kRelationships:
      return ComputeRelationshipScores(index, keyword, options);
  }
  return {};
}

OntoScoreMap ComputeRelationshipScoresOnDlView(const DlView& view,
                                               const OntologyIndex& index,
                                               const Keyword& keyword,
                                               const ScoreOptions& options) {
  // States are DlNodeIds; reuse the generic settle loop with keys = node id
  // (atomic node ids coincide with concept ids, so ConceptsOnly applies if
  // we tag restriction ids).
  auto expand = [&](StateKey key, double score, const auto& push) {
    DlNodeId node = static_cast<DlNodeId>(
        IsRestriction(key) ? (key & 0x7fffffffULL) : key);
    auto key_of = [&](DlNodeId n) -> StateKey {
      return view.IsAtomic(n) ? ConceptKey(view.ConceptOf(n))
                              : (kRestrictionTag | n);
    };
    for (DlNodeId child : view.IsAChildren(node)) {
      push(key_of(child), score);  // downward, factor 1
    }
    for (DlNodeId parent : view.IsAParents(node)) {
      size_t fanout = view.IsAChildren(parent).size();
      push(key_of(parent),
           score / static_cast<double>(fanout == 0 ? 1 : fanout));
    }
    for (DlNodeId dotted : view.DottedNeighbors(node)) {
      push(key_of(dotted), score * options.decay);
    }
  };
  return ConceptsOnly(Settle(index.Match(keyword), options.threshold, expand,
                             options.max_concepts_per_keyword));
}

OntoScoreMap ComputeGraphScoresIndependent(const OntologyIndex& index,
                                           const Keyword& keyword,
                                           const ScoreOptions& options) {
  const Ontology& onto = index.ontology();
  OntoScoreMap combined;
  for (const ScoredConcept& seed : index.Match(keyword)) {
    auto expand = [&](StateKey key, double score, const auto& push) {
      ConceptId c = TargetOfKey(key);
      double next = score * options.decay;
      for (ConceptId p : onto.Parents(c)) push(ConceptKey(p), next);
      for (ConceptId ch : onto.Children(c)) push(ConceptKey(ch), next);
      for (const ConceptRelationship& rel : onto.OutRelationships(c)) {
        push(ConceptKey(rel.target), next);
      }
      for (const ConceptRelationship& rel : onto.InRelationships(c)) {
        push(ConceptKey(rel.source), next);
      }
    };
    OntoScoreMap one =
        ConceptsOnly(Settle({seed}, options.threshold, expand));
    for (const auto& [c, score] : one) {
      auto [it, inserted] = combined.emplace(c, score);
      if (!inserted && score > it->second) it->second = score;
    }
  }
  return combined;
}

}  // namespace xontorank
