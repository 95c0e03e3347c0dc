// The paper's §I motivating scenario, end to end.
//
// The CDA document below (a condensed Fig. 1) mentions an Asthma concept
// code and a Theophylline medication, but never the phrase "Bronchial
// Structure". A query [bronchial structure, theophylline] therefore returns
// nothing under plain XML keyword search (XRANK) — yet SNOMED defines
// finding-site-of(Asthma, Bronchial structure), so the ontology-aware
// strategies find and rank the connecting fragment (Fig. 4).
//
// Run: ./build/examples/asthma_search

#include <cstdio>
#include <string>

#include "core/xontorank.h"
#include "onto/snomed_fragment.h"
#include "xml/xml_parser.h"

using namespace xontorank;

namespace {

// A condensed Figure 1: header, a Medications section with an Asthma
// observation and a Theophylline SubstanceAdministration, and a vitals
// section. Concept codes are the fragment's real SNOMED codes.
constexpr const char* kCdaDocument = R"(<?xml version="1.0"?>
<ClinicalDocument xmlns="urn:hl7-org:v3" templateId="2.16.840.1.113883.3.27.1776">
  <id extension="c266" root="2.16.840.1.113883.3.933"/>
  <author>
    <time value="20040407"/>
    <assignedAuthor>
      <id extension="KP00017" root="2.16.840.1.113883.19.5"/>
      <assignedPerson><name><given>Juan</given><family>Woodblack</family><suffix>MD</suffix></name></assignedPerson>
    </assignedAuthor>
  </author>
  <recordTarget>
    <patientRole>
      <id extension="49912" root="2.16.840.1.113883.19.5"/>
      <patientPatient>
        <name><given>Firstname</given><family>Lastname</family><suffix>Jr.</suffix></name>
        <administrativeGenderCode code="M" codeSystem="2.16.840.1.113883.5.1"/>
        <birthTime value="19541125"/>
      </patientPatient>
    </patientRole>
  </recordTarget>
  <component>
    <StructuredBody>
      <component>
        <section>
          <code code="10160-0" codeSystem="2.16.840.1.113883.6.1" codeSystemName="LOINC"/>
          <title>Medications</title>
          <entry>
            <Observation>
              <code code="404684003" codeSystem="2.16.840.1.113883.6.96" codeSystemName="SNOMED CT" displayName="Finding"/>
              <value xsi:type="CD" code="195967001" codeSystem="2.16.840.1.113883.6.96" codeSystemName="SNOMED CT" displayName="Asthma">
                <originalText><reference value="m1"/></originalText>
              </value>
            </Observation>
          </entry>
          <entry>
            <SubstanceAdministration>
              <text><content ID="m1">Theophylline</content> 20 mg every other day, alternating with 18 mg every other day. Stop if temperature is above 103F.</text>
              <consumable>
                <manufacturedProduct>
                  <manufacturedLabeledDrug>
                    <code code="66493003" codeSystem="2.16.840.1.113883.6.96" codeSystemName="SNOMED CT" displayName="Theophylline"/>
                  </manufacturedLabeledDrug>
                </manufacturedProduct>
              </consumable>
            </SubstanceAdministration>
          </entry>
        </section>
      </component>
      <component>
        <section>
          <code code="8716-3" codeSystem="2.16.840.1.113883.6.1" codeSystemName="LOINC"/>
          <title>Vital Signs</title>
          <text><table><tr><th>Temperature</th><td>36.9 C (98.5 F)</td></tr><tr><th>Pulse</th><td>86 / minute</td></tr></table></text>
        </section>
      </component>
    </StructuredBody>
  </component>
</ClinicalDocument>)";

void RunStrategy(Strategy strategy, const Ontology& ontology) {
  auto parsed = ParseXml(kCdaDocument);
  if (!parsed.ok()) {
    std::printf("parse error: %s\n", parsed.status().ToString().c_str());
    return;
  }
  std::vector<XmlDocument> corpus;
  corpus.push_back(std::move(parsed).value());

  IndexBuildOptions options;
  options.strategy = strategy;
  XOntoRank engine(std::move(corpus), ontology, options);

  const char* query = "\"bronchial structure\" theophylline";
  SearchOptions search;
  search.top_k = 3;
  auto results = engine.Search(query, search).results;
  std::printf("--- %s: %zu result(s)\n",
              std::string(StrategyName(strategy)).c_str(), results.size());
  for (const QueryResult& r : results) {
    XmlNode node = engine.ResolveResult(r);
    std::printf("    <%s> at %s, score %.3f\n",
                node ? std::string(node.tag()).c_str() : "?",
                r.element.ToString().c_str(), r.score);
  }
  if (strategy == Strategy::kRelationships && !results.empty()) {
    std::printf("\nConnecting fragment (cf. paper Fig. 4):\n%s\n\n",
                engine.ResultFragmentXml(results[0]).c_str());
  }
}

/// Prints Dewey ids of the document's elements (paper Fig. 9) and an
/// XOnto-DIL excerpt (paper Fig. 10).
void ShowDeweyAndDil(const Ontology& ontology) {
  auto parsed = ParseXml(kCdaDocument);
  if (!parsed.ok()) return;
  Corpus corpus;
  corpus.Add(std::move(parsed).value());

  std::printf("--- Dewey IDs (cf. paper Fig. 9; first component = doc id)\n");
  size_t shown = 0;
  const XmlDocument& doc = corpus[0];
  doc.root().Visit([&](const XmlNode& node) {
    if (!node.is_element() || shown >= 12) return;
    DeweyId id = doc.DeweyIdOf(node);
    std::printf("  %-16s %*s<%s>\n", id.ToString().c_str(),
                static_cast<int>(2 * id.depth()), "",
                std::string(node.tag()).c_str());
    ++shown;
  });

  IndexBuildOptions options;
  options.strategy = Strategy::kRelationships;
  options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
  CorpusIndex index(corpus, ontology, options);
  std::printf("\n--- XOnto-DIL excerpt (cf. paper Fig. 10; scores are Eq. 5 "
              "NS values)\n");
  for (const char* word : {"asthma", "theophylline", "bronchial"}) {
    std::printf("  %-14s:", word);
    for (DilCursor c = index.GetListRef(MakeKeyword(word)).OpenCursor();
         !c.AtEnd(); c.Next()) {
      std::printf(" (%s, %.3f)", c.dewey().ToDeweyId().ToString().c_str(),
                  c.score());
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  Ontology ontology = BuildSnomedCardiologyFragment();
  std::printf("Query: \"bronchial structure\" theophylline\n");
  std::printf("(the phrase 'Bronchial Structure' does not occur in the "
              "document; the Asthma code node connects through SNOMED's "
              "finding-site-of relationship)\n\n");
  ShowDeweyAndDil(ontology);
  for (Strategy strategy : kAllStrategies) {
    RunStrategy(strategy, ontology);
  }
  return 0;
}
