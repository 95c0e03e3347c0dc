#include "core/onto_score.h"

#include <cstdint>
#include <queue>
#include <span>
#include <unordered_set>
#include <utility>
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

/// What Settle leaves: every settled concept's score at its id (kUnsettled
/// for the rest), and the settled concepts in settle order.
struct SettledConcepts {
  std::vector<double> scores;
  std::vector<ConceptId> order;
};

constexpr double kUnsettled = -1.0;  // scores are never negative

/// Generic merged multi-source best-first expansion over an implicit graph
/// of `concept_count` concepts plus restriction states. `expand(key, score,
/// push)` must push every neighbor with its transferred score. Every
/// transfer factor must be ≤ 1, which makes best-first settlement correct
/// for the max-product semiring: the first time a state pops it carries its
/// maximum attainable score. Concepts are marked settled in a dense array;
/// restriction states, which only relay scores, in a hash set.
template <typename ExpandFn>
SettledConcepts Settle(const std::vector<ScoredConcept>& seeds,
                       size_t concept_count, double threshold,
                       const ExpandFn& expand,
                       size_t max_settled_concepts = 0) {
  std::priority_queue<QueueEntry> queue;
  for (const ScoredConcept& seed : seeds) {
    if (seed.irs >= threshold) queue.push({seed.irs, ConceptKey(seed.concept_id)});
  }
  if (queue.empty()) return {};
  SettledConcepts settled{std::vector<double>(concept_count, kUnsettled), {}};
  std::unordered_set<StateKey> settled_restrictions;
  auto is_settled = [&](StateKey key) {
    if (IsRestriction(key)) return settled_restrictions.count(key) > 0;
    XO_DCHECK_LT(key, concept_count);
    return settled.scores[key] != kUnsettled;
  };
  while (!queue.empty()) {
    QueueEntry top = queue.top();
    queue.pop();
    if (is_settled(top.key)) continue;  // Observation 1: merge & halt
    if (IsRestriction(top.key)) {
      settled_restrictions.insert(top.key);
    } else {
      // §IX approximation: nodes settle in descending score order, so
      // stopping after N concepts keeps exactly the top-N of the exact map.
      if (max_settled_concepts > 0 &&
          settled.order.size() >= max_settled_concepts) {
        break;
      }
      settled.scores[top.key] = top.score;
      settled.order.push_back(TargetOfKey(top.key));
    }
    auto push = [&](StateKey key, double score) {
      if (score >= threshold && !is_settled(key)) queue.push({score, key});
    };
    expand(top.key, top.score, push);
  }
  return settled;
}

/// The settled concepts as a hash-map row.
OntoScoreMap ToMap(const SettledConcepts& settled) {
  OntoScoreMap out;
  out.reserve(settled.order.size());
  for (ConceptId c : settled.order) out.emplace(c, settled.scores[c]);
  return out;
}

/// The settled concepts as a dense row (empty when none settled).
OntoScoreRow ToRow(SettledConcepts settled) {
  if (settled.order.empty()) return {};
  for (double& score : settled.scores) {
    if (score == kUnsettled) score = 0.0;
  }
  return std::move(settled.scores);
}

SettledConcepts SettleGraph(const OntologyIndex& index, const Keyword& keyword,
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
  return Settle(index.Match(keyword), index.ontology().concept_count(),
                options.threshold, expand, options.max_concepts_per_keyword);
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

SettledConcepts SettleTaxonomy(const OntologyIndex& index,
                               const Keyword& keyword,
                               const ScoreOptions& options) {
  const Ontology& onto = index.ontology();
  auto expand = [&](StateKey key, double score, const auto& push) {
    ExpandTaxonomic(onto, TargetOfKey(key), score, push);
  };
  return Settle(index.Match(keyword), index.ontology().concept_count(),
                options.threshold, expand, options.max_concepts_per_keyword);
}

SettledConcepts SettleRelationships(const OntologyIndex& index,
                                    const Keyword& keyword,
                                    const ScoreOptions& options) {
  const Ontology& onto = index.ontology();
  auto expand = [&](StateKey key, double score, const auto& push) {
    if (IsRestriction(key)) {
      // ∃r.t — dotted link to the filler, is-a down to every source of r.
      RelationTypeId role = RoleOfKey(key);
      ConceptId target = TargetOfKey(key);
      push(ConceptKey(target), score * options.decay);  // dotted link
      for (ConceptId source : index.RelationSources(target, role)) {
        push(ConceptKey(source), score);  // factor 1
      }
      return;
    }
    ConceptId c = TargetOfKey(key);
    ExpandTaxonomic(onto, c, score, push);
    // Is-a up into each restriction c belongs to: c ⊑ ∃r.t for r(c, t),
    // damped by the restriction's in-degree (at least 1: r(c, t) itself).
    const std::vector<ConceptRelationship>& out = onto.OutRelationships(c);
    const std::span<const uint32_t> indegrees = index.OutRelationInDegrees(c);
    for (size_t i = 0; i < out.size(); ++i) {
      push(RestrictionKey(out[i].type, out[i].target),
           score / static_cast<double>(indegrees[i]));
    }
    // Dotted link from c into each restriction ∃r.c over c.
    for (const ConceptRelationship& rel : onto.InRelationships(c)) {
      push(RestrictionKey(rel.type, c), score * options.decay);
    }
  };
  return Settle(index.Match(keyword), index.ontology().concept_count(),
                options.threshold, expand, options.max_concepts_per_keyword);
}

/// The keyword's expansion under `strategy`; nothing settles under XRANK.
SettledConcepts SettleKeyword(const OntologyIndex& index,
                              const Keyword& keyword, Strategy strategy,
                              const ScoreOptions& options) {
  switch (strategy) {
    case Strategy::kXRank:
      return {};
    case Strategy::kGraph:
      return SettleGraph(index, keyword, options);
    case Strategy::kTaxonomy:
      return SettleTaxonomy(index, keyword, options);
    case Strategy::kRelationships:
      return SettleRelationships(index, keyword, options);
  }
  return {};
}

}  // namespace

OntoScoreMap ComputeOntoScores(const OntologyIndex& index,
                               const Keyword& keyword, Strategy strategy,
                               const ScoreOptions& options) {
  return ToMap(SettleKeyword(index, keyword, strategy, options));
}

OntoScoreRow ComputeDenseOntoScores(const OntologyIndex& index,
                                    const Keyword& keyword, Strategy strategy,
                                    const ScoreOptions& options) {
  return ToRow(SettleKeyword(index, keyword, strategy, options));
}

OntoScoreMap ComputeRelationshipScoresOnDlView(const DlView& view,
                                               const OntologyIndex& index,
                                               const Keyword& keyword,
                                               const ScoreOptions& options) {
  // States are DlNodeIds; reuse the generic settle loop with keys = node id
  // (atomic node ids coincide with concept ids, so concept states settle as
  // concepts if we tag restriction ids).
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
  return ToMap(Settle(index.Match(keyword), index.ontology().concept_count(),
                      options.threshold, expand,
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
    OntoScoreMap one = ToMap(Settle({seed}, onto.concept_count(),
                                    options.threshold, expand));
    for (const auto& [c, score] : one) {
      auto [it, inserted] = combined.emplace(c, score);
      if (!inserted && score > it->second) it->second = score;
    }
  }
  return combined;
}

}  // namespace xontorank
