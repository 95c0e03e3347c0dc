// The paper's §VII corpus pipeline, end to end: a relational EMR database
// (patients / encounters / diagnoses / medications / vitals tables) is
// converted into one CDA document per patient, validated, indexed, and
// queried — with grouped results and evidence explanations.
//
// Run: ./build/examples/emr_pipeline

#include <cstdio>

#include "cda/cda_validator.h"
#include "core/explain.h"
#include "core/result_grouping.h"
#include "core/xontorank.h"
#include "emr/emr_generator.h"
#include "emr/emr_to_cda.h"
#include "onto/snomed_fragment.h"

using namespace xontorank;

int main() {
  Ontology ontology = BuildSnomedCardiologyFragment();

  // 1. The hospital's relational database (synthetic stand-in).
  EmrGeneratorOptions options;
  options.num_patients = 20;
  options.seed = 42;
  EmrDatabase db = GenerateEmrDatabase(ontology, options);
  std::printf("Relational EMR DB: %zu patients, %zu encounters, %zu "
              "diagnoses, %zu medications, %zu vitals\n",
              db.patient_count(), db.encounter_count(), db.diagnosis_count(),
              db.medication_count(), db.vital_count());

  // 2. Convert to CDA, one document per patient (§VII).
  auto cda_docs = ConvertEmrToCda(db, ontology);
  if (!cda_docs.ok()) {
    std::printf("conversion failed: %s\n", cda_docs.status().ToString().c_str());
    return 1;
  }
  std::vector<XmlDocument> corpus;
  size_t warnings = 0;
  for (size_t i = 0; i < cda_docs->size(); ++i) {
    XmlDocument doc = CdaToXml((*cda_docs)[i], static_cast<uint32_t>(i));
    for (const CdaDiagnostic& d : ValidateCda(doc)) {
      if (d.is_error()) {
        std::printf("CDA error in doc %zu: %s\n", i, d.message.c_str());
        return 1;
      }
      ++warnings;
    }
    corpus.push_back(std::move(doc));
  }
  std::printf("Converted to %zu CDA documents (0 validation errors, %zu "
              "warnings)\n\n",
              corpus.size(), warnings);

  // 3. Index and query.
  IndexBuildOptions build;
  build.strategy = Strategy::kRelationships;
  build.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
  XOntoRank engine(std::move(corpus), ontology, build);

  const char* query_text = "\"bronchial structure\" theophylline";
  KeywordQuery query = ParseQuery(query_text);
  // Pin one snapshot for the whole request (search + grouping + explain),
  // so a concurrent writer could never swap the index mid-request.
  auto snap = engine.snapshot();
  SearchOptions search;
  search.top_k = 10;
  auto results = snap->Search(query, search).results;
  std::printf("Query [%s]: %zu results\n", query_text, results.size());

  // 4. Group structurally similar results.
  auto groups = GroupResultsByPath(results, snap->corpus());
  for (const ResultGroup& group : groups) {
    std::printf("  %zux %s (best %.3f)\n", group.results.size(),
                group.signature.c_str(), group.best_score());
  }

  // 5. Explain the best result.
  // The segment holding the result's document carries its serving scores.
  if (!results.empty()) {
    const CorpusIndex* index =
        snap->SegmentIndexForDoc(results[0].element.doc_id());
    auto evidence = ExplainResult(*index, query, results[0]);
    if (evidence.ok()) {
      std::printf("\nWhy the top result matches:\n%s",
                  FormatEvidence(*index, *evidence).c_str());
    }
  }
  return 0;
}
