#ifndef XONTORANK_TESTS_TEST_UTIL_H_
#define XONTORANK_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "core/search_api.h"
#include "onto/ontology.h"
#include "xml/xml_node.h"
#include "xml/xml_parser.h"

#include "gtest/gtest.h"

namespace xontorank {
namespace testing_util {

/// Top-k search through the finalized Search(query, SearchOptions) entry
/// point, returning just the results: serial and uncached (every call
/// computes), but with the default pruning mode — so the whole test suite
/// exercises the block-max path wherever the index supports it. Works for
/// any engine with that entry point (XOntoRank, IndexSnapshot) and any
/// query form it accepts (KeywordQuery, string).
template <typename Engine, typename Query>
std::vector<QueryResult> SearchTop(const Engine& engine, const Query& query,
                                   size_t top_k) {
  SearchOptions options;
  options.top_k = top_k;
  options.parallelism = 1;
  options.use_cache = false;
  return engine.Search(query, options).results;
}

/// Parses XML or fails the test.
inline XmlDocument MustParse(std::string_view xml, uint32_t doc_id = 0) {
  auto result = ParseXml(xml);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  XmlDocument doc = std::move(result).value();
  doc.set_doc_id(doc_id);
  return doc;
}

/// `node`'s children as a vector, for indexed access in assertions.
inline std::vector<XmlNode> Children(const XmlNode& node) {
  std::vector<XmlNode> kids;
  for (XmlNode child : node.children()) kids.push_back(child);
  return kids;
}

/// A minimal ontology exercising every structural feature:
///
///          Root
///         |- Disease  -- Asthma -- AsthmaAttack
///         |            `- Flu
///         |- Structure -- Bronchus
///         `- Drug
///
/// relationships: finding_site_of(Asthma, Bronchus),
///                finding_site_of(AsthmaAttack, Bronchus),
///                treats(Drug, Asthma); Drug is-a Root.
inline Ontology BuildTinyOntology() {
  Ontology onto("test.sys", "TestOnto");
  ConceptId root = onto.AddConcept("1", "Root concept");
  ConceptId disease = onto.AddConcept("2", "Disease");
  ConceptId structure = onto.AddConcept("3", "Structure");
  ConceptId asthma = onto.AddConcept("4", "Asthma");
  ConceptId flu = onto.AddConcept("5", "Flu");
  ConceptId bronchus = onto.AddConcept("6", "Bronchus");
  ConceptId attack = onto.AddConcept("7", "AsthmaAttack");
  ConceptId drug = onto.AddConcept("8", "Drug");
  EXPECT_TRUE(onto.AddIsA(disease, root).ok());
  EXPECT_TRUE(onto.AddIsA(structure, root).ok());
  EXPECT_TRUE(onto.AddIsA(asthma, disease).ok());
  EXPECT_TRUE(onto.AddIsA(flu, disease).ok());
  EXPECT_TRUE(onto.AddIsA(bronchus, structure).ok());
  EXPECT_TRUE(onto.AddIsA(attack, asthma).ok());
  EXPECT_TRUE(onto.AddIsA(drug, root).ok());
  EXPECT_TRUE(onto.AddRelationship(asthma, "finding_site_of", bronchus).ok());
  EXPECT_TRUE(onto.AddRelationship(attack, "finding_site_of", bronchus).ok());
  EXPECT_TRUE(onto.AddRelationship(drug, "treats", asthma).ok());
  EXPECT_TRUE(onto.Validate().ok());
  return onto;
}

/// A small CDA-ish document with two code nodes (Asthma, Drug of the tiny
/// ontology) and free text.
inline std::string TinyCdaXml() {
  return R"(<?xml version="1.0"?>
<ClinicalDocument>
  <section>
    <title>Problems</title>
    <entry>
      <Observation>
        <value code="4" codeSystem="test.sys" displayName="Asthma"/>
      </Observation>
    </entry>
    <entry>
      <SubstanceAdministration>
        <text>Theophylline 20 mg daily</text>
        <code code="8" codeSystem="test.sys" displayName="Drug"/>
      </SubstanceAdministration>
    </entry>
  </section>
  <section>
    <title>Vitals</title>
    <text>Pulse 86 per minute</text>
  </section>
</ClinicalDocument>)";
}

/// Bit-identical result lists: the same elements in the same order with
/// exactly equal doubles (score and every keyword score). `where` labels
/// failures.
inline void ExpectSameResults(const std::vector<QueryResult>& got,
                              const std::vector<QueryResult>& want,
                              const std::string& where = "") {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].element, want[i].element) << where << " i=" << i;
    EXPECT_EQ(got[i].score, want[i].score) << where << " i=" << i;
    EXPECT_EQ(got[i].keyword_scores, want[i].keyword_scores)
        << where << " i=" << i;
  }
}

}  // namespace testing_util
}  // namespace xontorank

#endif  // XONTORANK_TESTS_TEST_UTIL_H_
