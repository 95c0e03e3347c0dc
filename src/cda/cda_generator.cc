#include "cda/cda_generator.h"

#include <algorithm>
#include <deque>

#include "common/random.h"
#include "common/string_util.h"
#include "onto/snomed_fragment.h"
#include "xml/xml_writer.h"

namespace xontorank {

namespace {

constexpr const char* kGivenNames[] = {
    "James", "Maria", "Robert", "Linda", "Michael", "Elena",  "David",
    "Sarah", "Carlos", "Emily", "Daniel", "Sofia",  "Kevin",  "Laura",
    "Brian", "Nadia",  "Jason", "Priya", "Andre",   "Grace"};
constexpr const char* kFamilyNames[] = {
    "Smith", "Garcia", "Johnson", "Chen",   "Williams", "Patel", "Brown",
    "Nguyen", "Jones", "Torres",  "Miller", "Kim",      "Davis", "Lopez",
    "Wilson", "Singh", "Moore",   "Ali",    "Taylor",   "Rivera"};

constexpr const char* kProblemPhrases[] = {
    "Patient presented with", "Admitted for evaluation of",
    "History significant for", "Follow-up visit for",
    "Readmitted with worsening", "Newly diagnosed"};

constexpr const char* kCourseSentences[] = {
    "Clinical course was uneventful and the patient remained stable.",
    "Symptoms improved on the current regimen.",
    "Family counseled regarding findings and follow-up plan.",
    "Repeat evaluation scheduled in outpatient clinic.",
    "Oxygen saturation remained within normal limits overnight.",
    "No acute events during this hospitalization."};

/// Descendant closure of the concept with the given preferred term; empty if
/// the term is absent from the ontology.
std::vector<ConceptId> DescendantsOfTerm(const Ontology& onto,
                                         std::string_view term) {
  ConceptId root = onto.FindByPreferredTerm(term);
  std::vector<ConceptId> out;
  if (root == kInvalidConcept) return out;
  std::vector<bool> seen(onto.concept_count(), false);
  std::deque<ConceptId> frontier{root};
  seen[root] = true;
  while (!frontier.empty()) {
    ConceptId cur = frontier.front();
    frontier.pop_front();
    out.push_back(cur);
    for (ConceptId child : onto.Children(cur)) {
      if (!seen[child]) {
        seen[child] = true;
        frontier.push_back(child);
      }
    }
  }
  return out;
}

/// Leaf-biased filter: drop the first element (the category root itself).
std::vector<ConceptId> WithoutRoot(std::vector<ConceptId> ids) {
  if (!ids.empty()) ids.erase(ids.begin());
  return ids;
}

/// Shorthand cast for StringPrintf's %llu arguments.
unsigned long long Llu(uint64_t v) { return v; }

size_t PoissonLike(Rng& rng, size_t mean) {
  // Mean +- ~sqrt(mean) without the full Knuth loop: sum of two uniforms.
  if (mean == 0) return 0;
  size_t lo = mean - std::min(mean, mean / 2 + 1);
  size_t hi = mean + mean / 2 + 1;
  return static_cast<size_t>(rng.NextInt(static_cast<int64_t>(lo),
                                         static_cast<int64_t>(hi)));
}

}  // namespace

CdaGenerator::CdaGenerator(const Ontology& ontology,
                           CdaGeneratorOptions options)
    : ontology_(&ontology), options_(options) {
  disorders_ = WithoutRoot(DescendantsOfTerm(ontology, "Clinical finding"));
  drugs_ = WithoutRoot(
      DescendantsOfTerm(ontology, "Pharmaceutical / biologic product"));
  procedures_ = WithoutRoot(DescendantsOfTerm(ontology, "Procedure"));

  // Synthetic ontologies have no curated category roots: partition all
  // concepts deterministically instead so the generator still works.
  if (disorders_.empty()) {
    for (ConceptId c = 0; c < ontology.concept_count(); ++c) {
      switch (c % 3) {
        case 0: disorders_.push_back(c); break;
        case 1: drugs_.push_back(c); break;
        default: procedures_.push_back(c); break;
      }
    }
  }

  // A fixed Zipf popularity ranking: shuffle once with the corpus seed so
  // rank order is stable across documents.
  Rng rank_rng(options_.seed ^ 0x5eedULL);
  rank_rng.Shuffle(disorders_);

  // Specialty focus: descendants of the focus category (e.g. "Disease of
  // heart" for the paper's cardiac clinic), same stable popularity order.
  if (!options_.focus_category.empty()) {
    focus_disorders_ =
        WithoutRoot(DescendantsOfTerm(ontology, options_.focus_category));
    rank_rng.Shuffle(focus_disorders_);
  }

  if (auto id = ontology.FindRelationType(kRelMayTreat)) {
    may_treat_ = *id;
    has_may_treat_ = true;
  }
}

ConceptId CdaGenerator::PickDisorder(Rng& rng) const {
  if (!focus_disorders_.empty() && rng.NextBool(options_.focus_probability)) {
    return focus_disorders_[rng.NextZipf(focus_disorders_.size(),
                                         options_.zipf_exponent)];
  }
  return disorders_[rng.NextZipf(disorders_.size(), options_.zipf_exponent)];
}

ConceptId CdaGenerator::PickDrugFor(ConceptId disorder, Rng& rng) const {
  if (has_may_treat_) {
    // Walk up the is-a chain looking for a drug with a may_treat edge into
    // the disorder (or an ancestor), so medication lists stay clinically
    // coherent with the problem list.
    ConceptId cursor = disorder;
    for (int hops = 0; hops < 4; ++hops) {
      std::vector<ConceptId> treaters;
      for (const ConceptRelationship& rel :
           ontology_->InRelationships(cursor)) {
        if (rel.type == may_treat_) treaters.push_back(rel.source);
      }
      if (!treaters.empty()) return rng.Choose(treaters);
      const std::vector<ConceptId>& parents = ontology_->Parents(cursor);
      if (parents.empty()) break;
      cursor = parents[rng.NextBelow(parents.size())];
    }
  }
  return drugs_.empty() ? disorder : rng.Choose(drugs_);
}

ConceptId CdaGenerator::PickProcedureFor(ConceptId disorder, Rng& rng) const {
  if (has_may_treat_) {
    for (const ConceptRelationship& rel :
         ontology_->InRelationships(disorder)) {
      if (rel.type != may_treat_) continue;
      // Procedures also carry may_treat edges; prefer one if present.
      if (std::find(procedures_.begin(), procedures_.end(), rel.source) !=
          procedures_.end()) {
        return rel.source;
      }
    }
  }
  return procedures_.empty() ? disorder : rng.Choose(procedures_);
}

CdaCodedValue CdaGenerator::CodedValueFor(ConceptId concept_id) const {
  const Concept& c = ontology_->GetConcept(concept_id);
  return CdaCodedValue{c.code, ontology_->system_id(), ontology_->name(),
                       c.preferred_term};
}

CdaDocument CdaGenerator::GenerateDocument(uint32_t index) const {
  Rng rng(options_.seed * 0x9e3779b97f4a7c15ULL + index);
  CdaDocument doc;
  doc.id_extension = StringPrintf("c%05u", index);

  doc.author.id_extension =
      StringPrintf("kp%05u", static_cast<uint32_t>(rng.NextBelow(40)));
  doc.author.given_name = kGivenNames[rng.NextBelow(std::size(kGivenNames))];
  doc.author.family_name = kFamilyNames[rng.NextBelow(std::size(kFamilyNames))];
  doc.author.suffix = "MD";
  doc.author.time = StringPrintf("200%llu%02llu%02llu",
                                 Llu(rng.NextBelow(9)),
                                 Llu(1 + rng.NextBelow(12)),
                                 Llu(1 + rng.NextBelow(28)));

  doc.patient.id_extension = StringPrintf("%05u", 10000 + index);
  doc.patient.given_name = kGivenNames[rng.NextBelow(std::size(kGivenNames))];
  doc.patient.family_name =
      kFamilyNames[rng.NextBelow(std::size(kFamilyNames))];
  doc.patient.gender_code = rng.NextBool(0.5) ? "M" : "F";
  doc.patient.birth_time = StringPrintf("19%02llu%02llu%02llu",
                                        Llu(85 + rng.NextBelow(15)),
                                        Llu(1 + rng.NextBelow(12)),
                                        Llu(1 + rng.NextBelow(28)));
  doc.patient.provider_org_id =
      StringPrintf("M%03u", static_cast<uint32_t>(rng.NextBelow(20)));

  size_t num_encounters =
      std::max<size_t>(1, PoissonLike(rng, options_.mean_encounters));
  for (size_t e = 0; e < num_encounters; ++e) {
    CdaSection encounter;
    encounter.code = CdaCodedValue{"34133-9", kLoincSystemId, "LOINC",
                                   "Summarization of episode note"};
    encounter.title = StringPrintf("Hospitalization %zu", e + 1);

    // --- Problems subsection ---
    CdaSection problems;
    problems.code = CdaCodedValue{"11450-4", kLoincSystemId, "LOINC",
                                  "Problem list"};
    problems.title = "Problems";
    std::vector<ConceptId> encounter_disorders;
    size_t num_problems =
        std::max<size_t>(1, PoissonLike(rng, options_.mean_problems));
    std::string narrative;
    for (size_t p = 0; p < num_problems; ++p) {
      ConceptId disorder = PickDisorder(rng);
      encounter_disorders.push_back(disorder);
      CdaEntry entry;
      entry.kind = CdaEntry::Kind::kObservation;
      entry.observation.code = CdaCodedValue{
          "404684003", ontology_->system_id(), ontology_->name(), "Finding"};
      entry.observation.values.push_back(CodedValueFor(disorder));
      // Occasionally nest an associated finding (Fig. 1 lines 45-46 style).
      if (rng.NextBool(0.25)) {
        entry.observation.values.push_back(CodedValueFor(PickDisorder(rng)));
      }
      problems.entries.push_back(std::move(entry));
      narrative += kProblemPhrases[rng.NextBelow(std::size(kProblemPhrases))];
      narrative.push_back(' ');
      narrative += ontology_->GetConcept(disorder).preferred_term;
      narrative += ". ";
    }
    narrative += kCourseSentences[rng.NextBelow(std::size(kCourseSentences))];
    problems.narrative_text = std::move(narrative);

    // --- Medications subsection ---
    CdaSection medications;
    medications.code = CdaCodedValue{"10160-0", kLoincSystemId, "LOINC",
                                     "History of medication use"};
    medications.title = "Medications";
    size_t num_meds =
        std::max<size_t>(1, PoissonLike(rng, options_.mean_medications));
    for (size_t m = 0; m < num_meds; ++m) {
      ConceptId disorder =
          encounter_disorders[rng.NextBelow(encounter_disorders.size())];
      ConceptId drug = PickDrugFor(disorder, rng);
      CdaEntry entry;
      entry.kind = CdaEntry::Kind::kSubstanceAdministration;
      entry.substance_administration.content_id =
          StringPrintf("m%zu_%zu", e, m);
      entry.substance_administration.drug_name =
          ontology_->GetConcept(drug).preferred_term;
      entry.substance_administration.instructions = StringPrintf(
          " %llu mg every %llu hours. %s",
          Llu(5 * (1 + rng.NextBelow(20))),
          Llu(4 * (1 + rng.NextBelow(5))),
          rng.NextBool(0.3) ? "Hold if systolic pressure is below 90."
                            : "Continue until follow-up.");
      entry.substance_administration.drug_code = CodedValueFor(drug);
      medications.entries.push_back(std::move(entry));
    }

    // --- Procedures subsection ---
    CdaSection procedures;
    procedures.code = CdaCodedValue{"47519-4", kLoincSystemId, "LOINC",
                                    "History of procedures"};
    procedures.title = "Procedures";
    size_t num_procs = PoissonLike(rng, options_.mean_procedures);
    for (size_t p = 0; p < num_procs; ++p) {
      ConceptId disorder =
          encounter_disorders[rng.NextBelow(encounter_disorders.size())];
      ConceptId procedure = PickProcedureFor(disorder, rng);
      CdaEntry entry;
      entry.kind = CdaEntry::Kind::kObservation;
      entry.observation.code = CodedValueFor(procedure);
      entry.observation.effective_time = doc.author.time;
      procedures.entries.push_back(std::move(entry));
    }

    // --- Vital signs subsection (narrative table, Fig. 1 lines 62-81) ---
    CdaSection vitals;
    vitals.code = CdaCodedValue{"8716-3", kLoincSystemId, "LOINC",
                                "Vital signs"};
    vitals.title = "Vital Signs";
    vitals.vitals = {
        {"Temperature", StringPrintf("%.1f C", 36.0 + rng.NextDouble() * 3.0)},
        {"Pulse", StringPrintf("%llu / minute",
                               Llu(60 + rng.NextBelow(90)))},
        {"Respiratory rate",
         StringPrintf("%llu / minute", Llu(12 + rng.NextBelow(28)))},
        {"Blood pressure",
         StringPrintf("%llu/%llu mmHg", Llu(85 + rng.NextBelow(50)),
                      Llu(45 + rng.NextBelow(40)))},
    };
    CdaEntry height;
    height.kind = CdaEntry::Kind::kObservation;
    height.observation.code = CdaCodedValue{"50373000", ontology_->system_id(),
                                            ontology_->name(), "Body height"};
    height.observation.effective_time = doc.author.time;
    vitals.entries.push_back(std::move(height));
    if (options_.loinc_vital_codes) {
      static constexpr struct {
        const char* code;
        const char* display;
      } kLoincVitals[] = {
          {"8867-4", "Heart rate measurement"},
          {"8310-5", "Body temperature measurement"},
          {"9279-1", "Respiratory rate measurement"},
      };
      for (const auto& vital_code : kLoincVitals) {
        CdaEntry coded;
        coded.kind = CdaEntry::Kind::kObservation;
        coded.observation.code = CdaCodedValue{vital_code.code, kLoincSystemId,
                                               "LOINC", vital_code.display};
        coded.observation.effective_time = doc.author.time;
        vitals.entries.push_back(std::move(coded));
      }
    }

    encounter.subsections.push_back(std::move(problems));
    encounter.subsections.push_back(std::move(medications));
    if (!procedures.entries.empty()) {
      encounter.subsections.push_back(std::move(procedures));
    }
    encounter.subsections.push_back(std::move(vitals));
    doc.sections.push_back(std::move(encounter));
  }
  return doc;
}

std::vector<XmlDocument> CdaGenerator::GenerateCorpus() const {
  std::vector<XmlDocument> corpus;
  corpus.reserve(options_.num_documents);
  for (uint32_t i = 0; i < options_.num_documents; ++i) {
    corpus.push_back(CdaToXml(GenerateDocument(i), i));
  }
  return corpus;
}

CdaCorpusStats CdaGenerator::ComputeStats(const Corpus& corpus) {
  CdaCorpusStats stats;
  stats.documents = corpus.size();
  for (const XmlDocument& doc : corpus) {
    stats.total_elements += doc.NodeCount();
    stats.total_bytes += WriteXml(doc).size();
    doc.root().Visit([&stats](const XmlNode& node) {
      if (node.onto_ref().has_value()) ++stats.total_onto_refs;
    });
  }
  return stats;
}

}  // namespace xontorank
