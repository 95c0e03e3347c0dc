#include "cda/cda_generator.h"
#include "core/xontorank.h"
#include "gtest/gtest.h"
#include "onto/loinc_fragment.h"
#include "onto/ontology_set.h"
#include "onto/snomed_fragment.h"
#include "tests/reference_eval.h"
#include "tests/test_util.h"

namespace xontorank {
namespace {

using testing_util::MustParse;
using testing_util::SearchTop;

TEST(OntologySetTest, LookupBySystemId) {
  Ontology snomed = BuildSnomedCardiologyFragment();
  Ontology loinc = BuildLoincDocumentFragment();
  OntologySet systems;
  systems.Add(snomed);
  systems.Add(loinc);
  ASSERT_EQ(systems.size(), 2u);
  EXPECT_EQ(systems.FindSystem(kSnomedSystemId), 0u);
  EXPECT_EQ(systems.FindSystem(kLoincSystemId), 1u);
  EXPECT_EQ(systems.FindSystem("no.such.system"), OntologySet::npos);
  EXPECT_EQ(&systems.system(1), &loinc);
}

TEST(OntologySetTest, ImplicitSingleSystem) {
  Ontology snomed = BuildSnomedCardiologyFragment();
  OntologySet systems = snomed;
  EXPECT_EQ(systems.size(), 1u);
}

TEST(LoincFragmentTest, SectionCodesResolvable) {
  Ontology loinc = BuildLoincDocumentFragment();
  EXPECT_TRUE(loinc.Validate().ok());
  for (const char* code : {"11450-4", "10160-0", "47519-4", "8716-3",
                           "34133-9"}) {
    EXPECT_NE(loinc.FindByCode(code), kInvalidConcept) << code;
  }
  ConceptId vitals = loinc.FindByCode("8716-3");
  EXPECT_EQ(loinc.GetConcept(vitals).preferred_term, "Vital signs");
}

class MultiSystemFixture : public ::testing::Test {
 protected:
  MultiSystemFixture()
      : snomed_(BuildSnomedCardiologyFragment()),
        loinc_(BuildLoincDocumentFragment()) {}

  /// Document with one SNOMED code node and one LOINC section code, and no
  /// section title text.
  std::string DocXml() {
    return std::string(R"(<ClinicalDocument><section>)") +
           R"(<code code="8716-3" codeSystem=")" + kLoincSystemId + R"("/>)" +
           R"(<entry><value code="195967001" codeSystem=")" + kSnomedSystemId +
           R"(" displayName="Asthma"/></entry>)" +
           R"(<text>pulse 92 per minute</text></section></ClinicalDocument>)";
  }

  XOntoRank MakeEngine(bool with_loinc) {
    std::vector<XmlDocument> corpus;
    corpus.push_back(MustParse(DocXml(), 0));
    OntologySet systems;
    systems.Add(snomed_);
    if (with_loinc) systems.Add(loinc_);
    IndexBuildOptions options;
    options.strategy = Strategy::kRelationships;
    return XOntoRank(std::move(corpus), systems, options);
  }

  Ontology snomed_;
  Ontology loinc_;
};

TEST_F(MultiSystemFixture, CodeNodesResolvedPerSystem) {
  XOntoRank engine = MakeEngine(true);
  // Both the LOINC section code and the SNOMED value resolve.
  EXPECT_EQ(engine.build_stats().code_nodes, 2u);
  XOntoRank snomed_only = MakeEngine(false);
  EXPECT_EQ(snomed_only.build_stats().code_nodes, 1u);
}

TEST_F(MultiSystemFixture, LoincKeywordReachesSectionCode) {
  // "vital" never appears textually (no <title>); only the LOINC concept
  // "Vital signs" can supply it.
  XOntoRank with_loinc = MakeEngine(true);
  auto results = SearchTop(with_loinc, "vital pulse", 5);
  EXPECT_FALSE(results.empty());

  XOntoRank without = MakeEngine(false);
  EXPECT_TRUE(SearchTop(without, "vital pulse", 5).empty());
}

TEST_F(MultiSystemFixture, CrossSystemQueryCombinesBothOntologies) {
  // "bronchial" routes through SNOMED (finding-site of the Asthma code);
  // "vital" routes through LOINC. Both legs are ontological.
  XOntoRank engine = MakeEngine(true);
  auto results = SearchTop(engine, "bronchial vital", 5);
  ASSERT_FALSE(results.empty());
  // The most specific covering element is the section.
  XmlNode node = engine.ResolveResult(results[0]);
  ASSERT_TRUE(node);
  EXPECT_EQ(node.tag(), "section");
}

TEST_F(MultiSystemFixture, SystemsDoNotCrossTalk) {
  // A SNOMED keyword must not score LOINC code nodes: concept ids are only
  // meaningful within their own system (a classic aliasing bug this test
  // pins down).
  XOntoRank engine = MakeEngine(true);
  KeywordQuery query = ParseQuery("asthma");
  auto results = SearchTop(engine, query, 0);
  for (const QueryResult& r : results) {
    XmlNode node = engine.ResolveResult(r);
    ASSERT_TRUE(node);
    if (node.onto_ref().has_value()) {
      EXPECT_NE(node.onto_ref()->system, kLoincSystemId)
          << "LOINC node scored for a SNOMED-only keyword at "
          << r.element.ToString();
    }
  }
}

TEST_F(MultiSystemFixture, DenseRowsSizedAndReadPerSystem) {
  // Each system's OntoScore row is laid out over that system's own
  // concepts and indexed only with that system's code nodes; the two
  // fragments differ in size, so reading one system's row with the other
  // system's concept ids would run past it (ASan reports that).
  Corpus corpus;
  corpus.Add(MustParse(DocXml(), 0));
  OntologySet systems;
  systems.Add(snomed_);
  systems.Add(loinc_);
  IndexBuildOptions options;
  options.strategy = Strategy::kRelationships;
  CorpusIndex index(corpus, systems, options);
  ASSERT_NE(snomed_.concept_count(), loinc_.concept_count());
  const std::vector<CodeUnit>& code_units = index.documents()[0]->code_units();
  ASSERT_EQ(code_units.size(), 2u);
  for (const CodeUnit& code_unit : code_units) {
    EXPECT_LT(code_unit.concept_id,
              systems.system(code_unit.system).concept_count());
  }
  const double w = options.score.ontology_weight;
  std::vector<size_t> reached(systems.size(), 0);
  for (const char* word : {"asthma", "bronchial", "vital", "pulse"}) {
    Keyword keyword = MakeKeyword(word);
    for (size_t s = 0; s < systems.size(); ++s) {
      OntoScoreRowCache::Row row = index.context()->GetRow(s, keyword);
      if (row->empty()) continue;
      ++reached[s];
      EXPECT_EQ(row->size(), systems.system(s).concept_count())
          << word << " system " << s;
    }
    // Every code node's posting takes its ontological half from its own
    // system's row.
    DilListRef ref = index.GetListRef(keyword);
    std::vector<reference::Posting> postings =
        reference::ReadList(*ref.flat, ref.list);
    for (const CodeUnit& code_unit : code_units) {
      OntoScoreRowCache::Row row =
          index.context()->GetRow(code_unit.system, keyword);
      double os = row->empty() ? 0.0 : (*row)[code_unit.concept_id];
      DeweyId dewey = index.documents()[0]->dewey(code_unit.unit).ToDeweyId();
      CorpusIndex::NodeSupport support =
          index.ComputeNodeSupport(dewey, keyword);
      EXPECT_EQ(support.system, code_unit.system) << word;
      EXPECT_EQ(support.onto_score, os) << word;
      double expected = std::max(support.textual_irs, w * os);
      double got = 0.0;
      for (const reference::Posting& p : postings) {
        if (p.dewey == dewey) got = p.score;
      }
      EXPECT_EQ(got, expected) << word << " system " << code_unit.system;
    }
  }
  // Both systems' rows were exercised.
  EXPECT_GT(reached[0], 0u);
  EXPECT_GT(reached[1], 0u);
}

TEST(MultiSystemGeneratorTest, LoincVitalCodesResolveWhenEnabled) {
  Ontology snomed = BuildSnomedCardiologyFragment();
  Ontology loinc = BuildLoincDocumentFragment();
  CdaGeneratorOptions gen_options;
  gen_options.num_documents = 3;
  gen_options.loinc_vital_codes = true;
  CdaGenerator generator(snomed, gen_options);
  OntologySet systems;
  systems.Add(snomed);
  systems.Add(loinc);
  IndexBuildOptions options;
  options.strategy = Strategy::kRelationships;
  options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
  XOntoRank engine(generator.GenerateCorpus(), systems, options);
  // A "pulse" query reaches LOINC's Heart rate measurement (synonym
  // "Pulse reading") through the coded vitals.
  EXPECT_FALSE(SearchTop(engine, "pulse", 5).empty());

  // Without the LOINC system the same corpus has fewer resolvable code
  // nodes.
  XOntoRank snomed_only(generator.GenerateCorpus(), snomed, options);
  EXPECT_LT(snomed_only.build_stats().code_nodes,
            engine.build_stats().code_nodes);
}

}  // namespace
}  // namespace xontorank
