#include "core/onto_score.h"

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"

namespace xontorank {

namespace {

/// A state of the expansion's dense state space: a concept c is state c,
/// anything else (a restriction ∃r.t) a state >= the concept count.
using State = uint32_t;

struct QueueEntry {
  double score;
  State state;
  State from;  ///< the state whose expansion pushed it (a seed: itself)
  bool operator<(const QueueEntry& other) const {
    return score < other.score;  // max-heap on score
  }
};
static_assert(sizeof(QueueEntry) == 16, "the heap holds 16-byte entries");

/// What Settle leaves: every settled concept's score at its id (kUnsettled
/// for the rest), and the settled concepts in settle order.
struct SettledConcepts {
  std::vector<double> scores;
  std::vector<ConceptId> order;
};

constexpr double kUnsettled = -1.0;  // scores are never negative

/// Generic merged multi-source best-first expansion over an implicit graph
/// of `state_count` dense states, the first `concept_count` of which are
/// the concepts. `expand(state, score, push)` must push every neighbor
/// with its transferred score. Every transfer factor must be ≤ 1, which
/// makes best-first settlement correct for the max-product semiring: the
/// first time a state pops it carries its maximum attainable score.
/// Concepts are marked settled by their score, the other states (which
/// only relay scores) in a flag array. The heap compares scores only, so
/// the same pushes in the same order settle the same concepts in the same
/// order, ties included. With `predecessors`, every state that settles
/// records there the state whose expansion pushed it (a seed, itself).
template <typename ExpandFn>
SettledConcepts Settle(const std::vector<ScoredConcept>& seeds,
                       size_t concept_count, size_t state_count,
                       double threshold, const ExpandFn& expand,
                       size_t max_settled_concepts,
                       std::vector<State>* predecessors) {
  if (predecessors != nullptr) {
    predecessors->assign(state_count, std::numeric_limits<State>::max());
  }
  std::vector<QueueEntry> heap;
  heap.reserve(state_count);
  std::priority_queue<QueueEntry> queue(std::less<QueueEntry>(),
                                        std::move(heap));
  for (const ScoredConcept& seed : seeds) {
    if (seed.irs >= threshold) {
      queue.push({seed.irs, seed.concept_id, seed.concept_id});
    }
  }
  if (queue.empty()) return {};
  SettledConcepts settled{std::vector<double>(concept_count, kUnsettled), {}};
  std::vector<uint8_t> settled_relays(state_count - concept_count, 0);
  auto is_settled = [&](State state) {
    XO_DCHECK_LT(state, state_count);
    return state < concept_count
               ? settled.scores[state] != kUnsettled
               : settled_relays[state - concept_count] != 0;
  };
  State from = 0;  // the state being expanded
  auto push = [&](State state, double score) {
    if (score >= threshold && !is_settled(state)) {
      queue.push({score, state, from});
    }
  };
  while (!queue.empty()) {
    const QueueEntry top = queue.top();
    queue.pop();
    if (is_settled(top.state)) continue;  // Observation 1: merge & halt
    if (top.state >= concept_count) {
      settled_relays[top.state - concept_count] = 1;
    } else {
      // §IX approximation: nodes settle in descending score order, so
      // stopping after N concepts keeps exactly the top-N of the exact map.
      if (max_settled_concepts > 0 &&
          settled.order.size() >= max_settled_concepts) {
        break;
      }
      settled.scores[top.state] = top.score;
      settled.order.push_back(top.state);
    }
    if (predecessors != nullptr) (*predecessors)[top.state] = top.from;
    from = top.state;
    expand(top.state, top.score, push);
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

/// Graph transfer: every edge, either direction, costs `decay`.
template <typename PushFn>
void ExpandGraph(const Ontology& onto, ConceptId c, double score,
                 double decay, const PushFn& push) {
  const double next = score * decay;
  for (ConceptId p : onto.Parents(c)) push(p, next);
  for (ConceptId ch : onto.Children(c)) push(ch, next);
  for (const ConceptRelationship& rel : onto.OutRelationships(c)) {
    push(rel.target, next);
  }
  for (const ConceptRelationship& rel : onto.InRelationships(c)) {
    push(rel.source, next);
  }
}

SettledConcepts SettleGraph(const OntologyIndex& index, const Keyword& keyword,
                            const ScoreOptions& options,
                            std::vector<State>* predecessors) {
  const Ontology& onto = index.ontology();
  auto expand = [&](State c, double score, const auto& push) {
    ExpandGraph(onto, c, score, options.decay, push);
  };
  return Settle(index.Match(keyword), onto.concept_count(),
                onto.concept_count(), options.threshold, expand,
                options.max_concepts_per_keyword, predecessors);
}

/// Taxonomy transfer: downward (super→sub) full, upward damped by the
/// parent's subclass fan-out.
template <typename PushFn>
void ExpandTaxonomic(const Ontology& onto, ConceptId c, double score,
                     const PushFn& push) {
  for (ConceptId ch : onto.Children(c)) {
    push(ch, score);  // factor 1
  }
  for (ConceptId p : onto.Parents(c)) {
    size_t fanout = onto.Children(p).size();
    push(p, score / static_cast<double>(fanout == 0 ? 1 : fanout));
  }
}

SettledConcepts SettleTaxonomy(const OntologyIndex& index,
                               const Keyword& keyword,
                               const ScoreOptions& options,
                               std::vector<State>* predecessors) {
  const Ontology& onto = index.ontology();
  auto expand = [&](State c, double score, const auto& push) {
    ExpandTaxonomic(onto, c, score, push);
  };
  return Settle(index.Match(keyword), onto.concept_count(),
                onto.concept_count(), options.threshold, expand,
                options.max_concepts_per_keyword, predecessors);
}

/// States: the concepts, then restriction ∃r.t (OntologyIndex's dense id
/// q) at concept_count + q.
SettledConcepts SettleRelationships(const OntologyIndex& index,
                                    const Keyword& keyword,
                                    const ScoreOptions& options,
                                    std::vector<State>* predecessors) {
  const Ontology& onto = index.ontology();
  const auto concepts = static_cast<State>(onto.concept_count());
  auto expand = [&](State state, double score, const auto& push) {
    if (state >= concepts) {
      // ∃r.t — dotted link to the filler, is-a down to every source of r.
      const uint32_t restriction = state - concepts;
      push(index.RestrictionTarget(restriction),
           score * options.decay);  // dotted link
      for (ConceptId source : index.RestrictionSources(restriction)) {
        push(source, score);  // factor 1
      }
      return;
    }
    ExpandTaxonomic(onto, state, score, push);
    // Is-a up into each restriction c belongs to: c ⊑ ∃r.t for r(c, t),
    // damped by the restriction's in-degree (at least 1: r(c, t) itself).
    const std::span<const uint32_t> out = index.OutRestrictions(state);
    const std::span<const uint32_t> indegrees =
        index.OutRelationInDegrees(state);
    for (size_t i = 0; i < out.size(); ++i) {
      push(concepts + out[i], score / static_cast<double>(indegrees[i]));
    }
    // Dotted link from c into each restriction ∃r.c over c.
    for (uint32_t restriction : index.InRestrictions(state)) {
      push(concepts + restriction, score * options.decay);
    }
  };
  return Settle(index.Match(keyword), concepts,
                concepts + index.restriction_count(), options.threshold,
                expand, options.max_concepts_per_keyword, predecessors);
}

/// The keyword's expansion under `strategy`; nothing settles under XRANK.
SettledConcepts SettleKeyword(const OntologyIndex& index,
                              const Keyword& keyword, Strategy strategy,
                              const ScoreOptions& options,
                              std::vector<State>* predecessors = nullptr) {
  switch (strategy) {
    case Strategy::kXRank:
      if (predecessors != nullptr) predecessors->clear();
      return {};
    case Strategy::kGraph:
      return SettleGraph(index, keyword, options, predecessors);
    case Strategy::kTaxonomy:
      return SettleTaxonomy(index, keyword, options, predecessors);
    case Strategy::kRelationships:
      return SettleRelationships(index, keyword, options, predecessors);
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
                                    const ScoreOptions& options,
                                    std::vector<uint32_t>* predecessors) {
  return ToRow(SettleKeyword(index, keyword, strategy, options, predecessors));
}

}  // namespace xontorank
