#include "core/xontorank.h"

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace xontorank {
namespace {

using testing_util::BuildTinyOntology;
using testing_util::MustParse;
using testing_util::TinyCdaXml;
using testing_util::SearchTop;

class XOntoRankFixture : public ::testing::Test {
 protected:
  XOntoRankFixture() : onto_(BuildTinyOntology()) {}

  XOntoRank MakeEngine(Strategy strategy) {
    std::vector<XmlDocument> corpus;
    corpus.push_back(MustParse(TinyCdaXml(), 0));
    IndexBuildOptions options;
    options.strategy = strategy;
    return XOntoRank(std::move(corpus), onto_, options);
  }

  Ontology onto_;
};

TEST_F(XOntoRankFixture, TextualQueryWorksUnderAllStrategies) {
  for (Strategy strategy : kAllStrategies) {
    XOntoRank engine = MakeEngine(strategy);
    auto results = SearchTop(engine, "theophylline", 10);
    EXPECT_FALSE(results.empty()) << StrategyName(strategy);
  }
}

TEST_F(XOntoRankFixture, OntologyOnlyKeywordFailsUnderXRank) {
  // "bronchus" never occurs in the document text.
  XOntoRank baseline = MakeEngine(Strategy::kXRank);
  EXPECT_TRUE(SearchTop(baseline, "bronchus theophylline", 10).empty());

  XOntoRank graph = MakeEngine(Strategy::kGraph);
  EXPECT_FALSE(SearchTop(graph, "bronchus theophylline", 10).empty());

  XOntoRank relationships = MakeEngine(Strategy::kRelationships);
  EXPECT_FALSE(SearchTop(relationships, "bronchus theophylline", 10).empty());
}

TEST_F(XOntoRankFixture, TaxonomyMissesRelationshipOnlyConnections) {
  // Bronchus connects to the document's Asthma code only via
  // finding_site_of; Taxonomy reaches it only through the weak root path,
  // whose OS (1/6 of 1/1... well below relationship strength) still yields
  // a posting. What must hold: the Relationships score strictly exceeds the
  // Taxonomy score for the same result.
  XOntoRank taxonomy = MakeEngine(Strategy::kTaxonomy);
  XOntoRank relationships = MakeEngine(Strategy::kRelationships);
  auto tax_results = SearchTop(taxonomy, "bronchus", 1);
  auto rel_results = SearchTop(relationships, "bronchus", 1);
  ASSERT_FALSE(rel_results.empty());
  if (!tax_results.empty()) {
    EXPECT_GT(rel_results[0].score, tax_results[0].score);
  }
}

TEST_F(XOntoRankFixture, ResolveResultReturnsElement) {
  XOntoRank engine = MakeEngine(Strategy::kRelationships);
  auto results = SearchTop(engine, "asthma", 1);
  ASSERT_FALSE(results.empty());
  XmlNode node = engine.ResolveResult(results[0]);
  ASSERT_TRUE(node);
  EXPECT_TRUE(node.is_element());
  std::string fragment = engine.ResultFragmentXml(results[0]);
  EXPECT_NE(fragment.find("<"), std::string::npos);
}

TEST_F(XOntoRankFixture, ResolveRejectsBogusResult) {
  XOntoRank engine = MakeEngine(Strategy::kXRank);
  QueryResult bogus;
  bogus.element = DeweyId({99, 0});
  EXPECT_FALSE(engine.ResolveResult(bogus));
  EXPECT_EQ(engine.ResultFragmentXml(bogus), "");
}

TEST_F(XOntoRankFixture, EmptyQueryYieldsNothing) {
  XOntoRank engine = MakeEngine(Strategy::kRelationships);
  EXPECT_TRUE(SearchTop(engine, "", 10).empty());
  EXPECT_TRUE(SearchTop(engine, KeywordQuery{}, 10).empty());
}

TEST_F(XOntoRankFixture, SearchIsDeterministic) {
  XOntoRank engine = MakeEngine(Strategy::kRelationships);
  auto a = SearchTop(engine, "asthma theophylline", 10);
  auto b = SearchTop(engine, "asthma theophylline", 10);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].element, b[i].element);
    EXPECT_EQ(a[i].score, b[i].score);
  }
}

TEST_F(XOntoRankFixture, TopKTruncates) {
  XOntoRank engine = MakeEngine(Strategy::kRelationships);
  auto all = SearchTop(engine, "asthma", 0);
  auto top1 = SearchTop(engine, "asthma", 1);
  EXPECT_GE(all.size(), top1.size());
  if (!all.empty()) {
    ASSERT_EQ(top1.size(), 1u);
    EXPECT_EQ(top1[0].element, all[0].element);
  }
}

TEST_F(XOntoRankFixture, PhraseKeywordMatchesOnlyAdjacent) {
  XOntoRank engine = MakeEngine(Strategy::kXRank);
  // "theophylline 20 mg daily": "theophylline daily" is not adjacent.
  EXPECT_FALSE(SearchTop(engine, "\"theophylline\"", 10).empty());
  EXPECT_TRUE(SearchTop(engine, "\"daily theophylline\"", 10).empty());
}

TEST_F(XOntoRankFixture, ScoresMonotoneNonIncreasing) {
  XOntoRank engine = MakeEngine(Strategy::kGraph);
  auto results = SearchTop(engine, "asthma drug", 0);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_LE(results[i].score, results[i - 1].score);
  }
}


TEST_F(XOntoRankFixture, DuplicateKeywordsAreWellDefined) {
  // [asthma asthma] — both conjuncts met by the same postings; per-keyword
  // scores repeat and sum (Eq. 4 over two identical keywords).
  XOntoRank engine = MakeEngine(Strategy::kRelationships);
  auto once = SearchTop(engine, "asthma", 0);
  auto twice = SearchTop(engine, "asthma asthma", 0);
  ASSERT_EQ(once.size(), twice.size());
  for (size_t i = 0; i < once.size(); ++i) {
    EXPECT_EQ(once[i].element, twice[i].element);
    EXPECT_NEAR(twice[i].score, 2.0 * once[i].score, 1e-9);
  }
}

}  // namespace
}  // namespace xontorank
