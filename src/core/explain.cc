#include "core/explain.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/string_util.h"
#include "core/onto_score.h"

namespace xontorank {

Result<OntoExplanation> ExplainOntoScore(const OntologyIndex& index,
                                         const Keyword& keyword,
                                         Strategy strategy,
                                         const ScoreOptions& options,
                                         ConceptId target) {
  if (strategy == Strategy::kXRank) {
    return Status::InvalidArgument("the XRANK baseline has no OntoScores");
  }
  std::vector<uint32_t> predecessors;
  const OntoScoreRow row = ComputeDenseOntoScores(index, keyword, strategy,
                                                  options, &predecessors);
  if (target >= predecessors.size() ||
      predecessors[target] == std::numeric_limits<uint32_t>::max()) {
    return Status::NotFound("concept has no OntoScore above the threshold");
  }

  // Walk predecessors back to the seed (the state that is its own).
  const Ontology& onto = index.ontology();
  const auto concepts = static_cast<uint32_t>(onto.concept_count());
  std::vector<uint32_t> states = {target};
  while (predecessors[states.back()] != states.back()) {
    states.push_back(predecessors[states.back()]);
  }
  std::reverse(states.begin(), states.end());

  OntoExplanation explanation;
  explanation.target = target;
  explanation.score = row[target];
  for (size_t i = 0; i < states.size(); ++i) {
    // A restriction ∃r.t (state concepts + q) folds into the next step.
    if (states[i] >= concepts) continue;
    OntoPathStep step;
    step.concept_id = states[i];
    step.score = row[step.concept_id];
    if (i == 0) {
      step.kind = OntoPathStep::Kind::kSeed;
    } else if (const uint32_t prev = states[i - 1]; prev >= concepts) {
      const ConceptId filler = index.RestrictionTarget(prev - concepts);
      step.via = onto.RelationTypeName(index.RestrictionRole(prev - concepts));
      if (step.concept_id == filler) {
        step.kind = OntoPathStep::Kind::kRelationForward;
      } else if (i >= 2 && states[i - 2] == filler) {
        // The restriction was entered from its filler (reverse traversal).
        step.kind = OntoPathStep::Kind::kRelationReverse;
      } else {
        // ... or from a sibling source of the same restriction.
        step.kind = OntoPathStep::Kind::kRelationForward;
        step.via += " (shared restriction)";
      }
    } else if (strategy == Strategy::kGraph) {
      step.kind = OntoPathStep::Kind::kGraphEdge;
    } else {
      const auto& children = onto.Children(prev);
      bool down = std::find(children.begin(), children.end(),
                            step.concept_id) != children.end();
      step.kind =
          down ? OntoPathStep::Kind::kIsADown : OntoPathStep::Kind::kIsAUp;
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
  if (element.size() == 0) {
    return Status::InvalidArgument("result has no element");
  }
  const uint32_t doc = element[0];
  for (const Keyword& keyword : query.keywords) {
    // Find the Eq. 3 witness: posting under the result with max decayed NS,
    // read from the result's document in the very list the query was
    // served from.
    KeywordEvidence item;
    bool found = false;
    DilCursor cursor = index.GetListRef(keyword).OpenCursor();
    for (cursor.SeekDoc(doc); !cursor.AtEnd() && cursor.doc() == doc;
         cursor.Next()) {
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
