#include "core/explain.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_map>

#include "common/string_util.h"

namespace xontorank {

namespace {

/// State keys mirror core/onto_score.cc: concepts keep their id,
/// existential role restrictions ∃r.t get a tagged composite key.
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

struct Settled {
  double score;
  StateKey predecessor;  ///< == self for seeds
};

struct QueueEntry {
  double score;
  StateKey key;
  StateKey predecessor;
  bool operator<(const QueueEntry& other) const {
    return score < other.score;
  }
};

/// Provenance-recording variant of the merged best-first expansion. The
/// scores it settles are asserted (by tests) to equal ComputeOntoScores.
std::unordered_map<StateKey, Settled> SettleWithProvenance(
    const OntologyIndex& index, const Keyword& keyword, Strategy strategy,
    const ScoreOptions& options) {
  const Ontology& onto = index.ontology();
  std::priority_queue<QueueEntry> queue;
  for (const ScoredConcept& seed : index.Match(keyword)) {
    if (seed.irs >= options.threshold) {
      StateKey key = ConceptKey(seed.concept_id);
      queue.push({seed.irs, key, key});
    }
  }
  std::unordered_map<StateKey, Settled> settled;
  while (!queue.empty()) {
    QueueEntry top = queue.top();
    queue.pop();
    if (settled.count(top.key) > 0) continue;
    settled.emplace(top.key, Settled{top.score, top.predecessor});
    auto push = [&](StateKey key, double score) {
      if (score >= options.threshold && settled.count(key) == 0) {
        queue.push({score, key, top.key});
      }
    };
    const double score = top.score;

    if (strategy == Strategy::kGraph) {
      ConceptId c = TargetOfKey(top.key);
      double next = score * options.decay;
      for (ConceptId p : onto.Parents(c)) push(ConceptKey(p), next);
      for (ConceptId ch : onto.Children(c)) push(ConceptKey(ch), next);
      for (const ConceptRelationship& rel : onto.OutRelationships(c)) {
        push(ConceptKey(rel.target), next);
      }
      for (const ConceptRelationship& rel : onto.InRelationships(c)) {
        push(ConceptKey(rel.source), next);
      }
      continue;
    }

    if (IsRestriction(top.key)) {
      RelationTypeId role = RoleOfKey(top.key);
      ConceptId target = TargetOfKey(top.key);
      push(ConceptKey(target), score * options.decay);
      for (const ConceptRelationship& rel : onto.InRelationships(target)) {
        if (rel.type == role) push(ConceptKey(rel.source), score);
      }
      continue;
    }

    ConceptId c = TargetOfKey(top.key);
    for (ConceptId ch : onto.Children(c)) push(ConceptKey(ch), score);
    for (ConceptId p : onto.Parents(c)) {
      size_t fanout = onto.Children(p).size();
      push(ConceptKey(p), score / static_cast<double>(fanout == 0 ? 1 : fanout));
    }
    if (strategy == Strategy::kRelationships) {
      for (const ConceptRelationship& rel : onto.OutRelationships(c)) {
        size_t indeg = onto.RelationInDegree(rel.target, rel.type);
        push(RestrictionKey(rel.type, rel.target),
             score / static_cast<double>(indeg == 0 ? 1 : indeg));
      }
      for (const ConceptRelationship& rel : onto.InRelationships(c)) {
        push(RestrictionKey(rel.type, c), score * options.decay);
      }
    }
  }
  return settled;
}

}  // namespace

Result<OntoExplanation> ExplainOntoScore(const OntologyIndex& index,
                                         const Keyword& keyword,
                                         Strategy strategy,
                                         const ScoreOptions& options,
                                         ConceptId target) {
  if (strategy == Strategy::kXRank) {
    return Status::InvalidArgument("the XRANK baseline has no OntoScores");
  }
  auto settled = SettleWithProvenance(index, keyword, strategy, options);
  auto target_it = settled.find(ConceptKey(target));
  if (target_it == settled.end()) {
    return Status::NotFound("concept has no OntoScore above the threshold");
  }

  // Walk predecessors back to the seed.
  std::vector<StateKey> reversed;
  StateKey cursor = ConceptKey(target);
  while (true) {
    reversed.push_back(cursor);
    const Settled& s = settled.at(cursor);
    if (s.predecessor == cursor) break;  // seed
    cursor = s.predecessor;
  }
  std::reverse(reversed.begin(), reversed.end());

  const Ontology& onto = index.ontology();
  OntoExplanation explanation;
  explanation.target = target;
  explanation.score = target_it->second.score;

  for (size_t i = 0; i < reversed.size(); ++i) {
    StateKey key = reversed[i];
    if (IsRestriction(key)) continue;  // folded into the next concept step
    OntoPathStep step;
    step.concept_id = TargetOfKey(key);
    step.score = settled.at(key).score;
    if (i == 0) {
      step.kind = OntoPathStep::Kind::kSeed;
    } else {
      StateKey prev = reversed[i - 1];
      if (IsRestriction(prev)) {
        RelationTypeId role = RoleOfKey(prev);
        ConceptId filler = TargetOfKey(prev);
        step.via = onto.RelationTypeName(role);
        if (step.concept_id == filler) {
          step.kind = OntoPathStep::Kind::kRelationForward;
        } else {
          // The restriction was entered either from the filler (reverse
          // traversal) or from a sibling source.
          StateKey before = i >= 2 ? reversed[i - 2] : prev;
          if (!IsRestriction(before) && TargetOfKey(before) == filler) {
            step.kind = OntoPathStep::Kind::kRelationReverse;
          } else {
            step.kind = OntoPathStep::Kind::kRelationForward;
            step.via += " (shared restriction)";
          }
        }
      } else if (strategy == Strategy::kGraph) {
        step.kind = OntoPathStep::Kind::kGraphEdge;
      } else {
        ConceptId prev_concept = TargetOfKey(prev);
        const auto& children = onto.Children(prev_concept);
        bool down = std::find(children.begin(), children.end(),
                              step.concept_id) != children.end();
        step.kind = down ? OntoPathStep::Kind::kIsADown
                         : OntoPathStep::Kind::kIsAUp;
      }
    }
    explanation.path.push_back(std::move(step));
  }
  return explanation;
}

std::string FormatExplanation(const Ontology& ontology,
                              const OntoExplanation& explanation) {
  std::string out;
  for (size_t i = 0; i < explanation.path.size(); ++i) {
    const OntoPathStep& step = explanation.path[i];
    if (i > 0) {
      switch (step.kind) {
        case OntoPathStep::Kind::kIsADown:
          out += " →(subclass)→ ";
          break;
        case OntoPathStep::Kind::kIsAUp:
          out += " →(superclass)→ ";
          break;
        case OntoPathStep::Kind::kRelationForward:
          out += " →(∃" + step.via + ")→ ";
          break;
        case OntoPathStep::Kind::kRelationReverse:
          out += " →(∃" + step.via + " ⁻¹)→ ";
          break;
        case OntoPathStep::Kind::kGraphEdge:
          out += " —— ";
          break;
        case OntoPathStep::Kind::kSeed:
          break;
      }
    }
    out += ontology.GetConcept(step.concept_id).preferred_term;
    out += StringPrintf(" [%.3f]", step.score);
  }
  return out;
}

Result<std::vector<KeywordEvidence>> ExplainResult(const CorpusIndex& index,
                                                   const KeywordQuery& query,
                                                   const QueryResult& result) {
  std::vector<KeywordEvidence> evidence;
  const double decay = index.options().score.decay;
  const double omega = index.options().score.ontology_weight;

  const DeweyRef element(result.element);
  for (const Keyword& keyword : query.keywords) {
    // Find the Eq. 3 witness: posting under the result with max decayed NS,
    // read from the very list the query was served from.
    KeywordEvidence item;
    bool found = false;
    for (DilCursor cursor = index.GetListRef(keyword).OpenCursor();
         !cursor.AtEnd(); cursor.Next()) {
      DeweyRef posting = cursor.dewey();
      if (CommonPrefixLength(element, posting) != element.size()) continue;
      double decayed =
          cursor.score() *
          std::pow(decay, static_cast<double>(posting.size() - element.size()));
      if (!found || decayed > item.decayed) {
        found = true;
        item.witness = posting.ToDeweyId();
        item.node_score = cursor.score();
        item.decayed = decayed;
      }
    }
    if (!found) {
      return Status::NotFound("result does not cover keyword '" +
                              keyword.Canonical() + "'");
    }
    item.keyword = keyword;

    CorpusIndex::NodeSupport support =
        index.ComputeNodeSupport(item.witness, keyword);
    item.ontological =
        support.is_code_node && omega * support.onto_score > support.textual_irs;
    if (item.ontological) {
      item.system = support.system;
      auto explanation = ExplainOntoScore(
          index.ontology_index(support.system), keyword,
          index.options().strategy, index.options().score, support.concept_id);
      if (explanation.ok()) item.onto_path = std::move(explanation).value();
    }
    evidence.push_back(std::move(item));
  }
  return evidence;
}

std::string FormatEvidence(const CorpusIndex& index,
                           const std::vector<KeywordEvidence>& evidence) {
  std::string out;
  for (const KeywordEvidence& item : evidence) {
    out += StringPrintf("keyword \"%s\": witness %s  NS=%.3f (decayed %.3f)",
                        item.keyword.Canonical().c_str(),
                        item.witness.ToString().c_str(), item.node_score,
                        item.decayed);
    if (item.ontological) {
      out += "\n    via ontology: ";
      out += FormatExplanation(index.systems().system(item.system),
                               item.onto_path);
    } else {
      out += "\n    via text";
    }
    out += "\n";
  }
  return out;
}

}  // namespace xontorank
