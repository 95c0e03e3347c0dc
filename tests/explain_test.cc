#include "core/explain.h"

#include "core/onto_score.h"
#include "core/xontorank.h"
#include "gtest/gtest.h"
#include "onto/snomed_fragment.h"
#include "tests/test_util.h"

namespace xontorank {
namespace {

using testing_util::BuildTinyOntology;
using testing_util::MustParse;
using testing_util::TinyCdaXml;
using testing_util::SearchTop;

class ExplainFixture : public ::testing::Test {
 protected:
  ExplainFixture() : onto_(BuildTinyOntology()), index_(onto_) {}

  Ontology onto_;
  OntologyIndex index_;
  ScoreOptions options_;
};

TEST_F(ExplainFixture, SeedOnlyPathForDirectMatch) {
  ConceptId asthma = onto_.FindByPreferredTerm("Asthma");
  auto explanation =
      ExplainOntoScore(index_, MakeKeyword("asthma"),
                       Strategy::kRelationships, options_, asthma);
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  ASSERT_EQ(explanation->path.size(), 1u);
  EXPECT_EQ(explanation->path[0].kind, OntoPathStep::Kind::kSeed);
  EXPECT_EQ(explanation->path[0].concept_id, asthma);
  EXPECT_NEAR(explanation->score, 1.0, 1e-9);
}

TEST_F(ExplainFixture, ReverseRelationPath) {
  // bronchus → Asthma is the dotted-link route: ∃finding_site_of⁻¹.
  ConceptId asthma = onto_.FindByPreferredTerm("Asthma");
  auto explanation =
      ExplainOntoScore(index_, MakeKeyword("bronchus"),
                       Strategy::kRelationships, options_, asthma);
  ASSERT_TRUE(explanation.ok());
  EXPECT_NEAR(explanation->score, 0.5, 1e-9);
  ASSERT_EQ(explanation->path.size(), 2u);
  EXPECT_EQ(explanation->path[0].kind, OntoPathStep::Kind::kSeed);
  EXPECT_EQ(explanation->path[0].concept_id,
            onto_.FindByPreferredTerm("Bronchus"));
  EXPECT_EQ(explanation->path[1].kind, OntoPathStep::Kind::kRelationReverse);
  EXPECT_EQ(explanation->path[1].via, "finding_site_of");
  EXPECT_EQ(explanation->path[1].concept_id, asthma);
}

TEST_F(ExplainFixture, ForwardRelationPath) {
  // asthma → Bronchus: up into ∃fso.Bronchus (1/2) then dotted (×0.5).
  ConceptId bronchus = onto_.FindByPreferredTerm("Bronchus");
  auto explanation =
      ExplainOntoScore(index_, MakeKeyword("asthma"),
                       Strategy::kRelationships, options_, bronchus);
  ASSERT_TRUE(explanation.ok());
  EXPECT_NEAR(explanation->score, 0.25, 1e-9);
  ASSERT_EQ(explanation->path.size(), 2u);
  EXPECT_EQ(explanation->path[1].kind, OntoPathStep::Kind::kRelationForward);
  EXPECT_EQ(explanation->path[1].via, "finding_site_of");
}

TEST_F(ExplainFixture, TaxonomicPathKinds) {
  // flu → AsthmaAttack: up to Disease (1/2), down to Asthma, down again.
  ConceptId attack = onto_.FindByPreferredTerm("AsthmaAttack");
  auto explanation = ExplainOntoScore(index_, MakeKeyword("flu"),
                                      Strategy::kTaxonomy, options_, attack);
  ASSERT_TRUE(explanation.ok());
  EXPECT_NEAR(explanation->score, 0.5, 1e-9);
  ASSERT_EQ(explanation->path.size(), 4u);
  EXPECT_EQ(explanation->path[1].kind, OntoPathStep::Kind::kIsAUp);
  EXPECT_EQ(explanation->path[2].kind, OntoPathStep::Kind::kIsADown);
  EXPECT_EQ(explanation->path[3].kind, OntoPathStep::Kind::kIsADown);
}

TEST_F(ExplainFixture, GraphPathUsesGraphEdges) {
  ConceptId drug = onto_.FindByPreferredTerm("Drug");
  auto explanation = ExplainOntoScore(index_, MakeKeyword("asthma"),
                                      Strategy::kGraph, options_, drug);
  ASSERT_TRUE(explanation.ok());
  EXPECT_NEAR(explanation->score, 0.5, 1e-9);
  ASSERT_EQ(explanation->path.size(), 2u);
  EXPECT_EQ(explanation->path[1].kind, OntoPathStep::Kind::kGraphEdge);
}

TEST_F(ExplainFixture, UnreachableConceptIsNotFound) {
  auto explanation =
      ExplainOntoScore(index_, MakeKeyword("zebra"),
                       Strategy::kRelationships, options_,
                       onto_.FindByPreferredTerm("Asthma"));
  ASSERT_FALSE(explanation.ok());
  EXPECT_EQ(explanation.status().code(), StatusCode::kNotFound);
}

TEST_F(ExplainFixture, XRankHasNoExplanations) {
  auto explanation =
      ExplainOntoScore(index_, MakeKeyword("asthma"), Strategy::kXRank,
                       options_, onto_.FindByPreferredTerm("Asthma"));
  ASSERT_FALSE(explanation.ok());
  EXPECT_EQ(explanation.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ExplainFixture, ExplainedScoresMatchComputeOntoScores) {
  // The provenance-recording expansion must settle identical scores to the
  // production expansion, for every reachable concept and strategy.
  for (Strategy strategy : {Strategy::kGraph, Strategy::kTaxonomy,
                            Strategy::kRelationships}) {
    for (const char* word : {"asthma", "flu", "bronchus", "disease"}) {
      Keyword keyword = MakeKeyword(word);
      OntoScoreMap expected =
          ComputeOntoScores(index_, keyword, strategy, options_);
      for (const auto& [concept_id, score] : expected) {
        auto explanation =
            ExplainOntoScore(index_, keyword, strategy, options_, concept_id);
        ASSERT_TRUE(explanation.ok())
            << word << " " << onto_.GetConcept(concept_id).preferred_term;
        EXPECT_NEAR(explanation->score, score, 1e-9)
            << word << " " << StrategyName(strategy);
      }
    }
  }
}

TEST_F(ExplainFixture, PathScoresAreMonotoneNonIncreasing) {
  for (const char* word : {"asthma", "bronchus", "disease"}) {
    OntoScoreMap map = ComputeOntoScores(index_, MakeKeyword(word),
                                         Strategy::kRelationships, options_);
    for (const auto& [concept_id, score] : map) {
      auto explanation =
          ExplainOntoScore(index_, MakeKeyword(word),
                           Strategy::kRelationships, options_, concept_id);
      ASSERT_TRUE(explanation.ok());
      for (size_t i = 1; i < explanation->path.size(); ++i) {
        EXPECT_LE(explanation->path[i].score,
                  explanation->path[i - 1].score + 1e-9);
      }
    }
  }
}

TEST_F(ExplainFixture, FormatExplanationReadable) {
  auto explanation =
      ExplainOntoScore(index_, MakeKeyword("bronchus"),
                       Strategy::kRelationships, options_,
                       onto_.FindByPreferredTerm("Asthma"));
  ASSERT_TRUE(explanation.ok());
  std::string text = FormatExplanation(onto_, *explanation);
  EXPECT_NE(text.find("Bronchus"), std::string::npos);
  EXPECT_NE(text.find("finding_site_of"), std::string::npos);
  EXPECT_NE(text.find("Asthma"), std::string::npos);
}

// ---- Result-level evidence ----

class ExplainResultFixture : public ::testing::Test {
 protected:
  ExplainResultFixture() : onto_(BuildTinyOntology()) {
    std::vector<XmlDocument> corpus;
    corpus.push_back(MustParse(TinyCdaXml(), 0));
    IndexBuildOptions options;
    options.strategy = Strategy::kRelationships;
    engine_ = std::make_unique<XOntoRank>(std::move(corpus), onto_, options);
  }

  /// The index of the segment holding document 0 (the only one).
  const CorpusIndex& index() const {
    return *engine_->snapshot()->SegmentIndexForDoc(0);
  }

  Ontology onto_;
  std::unique_ptr<XOntoRank> engine_;
};

TEST_F(ExplainResultFixture, DistinguishesTextualFromOntological) {
  KeywordQuery query = ParseQuery("bronchus theophylline");
  auto results = SearchTop(*engine_, query, 1);
  ASSERT_FALSE(results.empty());
  auto evidence = ExplainResult(index(), query, results[0]);
  ASSERT_TRUE(evidence.ok()) << evidence.status().ToString();
  ASSERT_EQ(evidence->size(), 2u);
  // "bronchus" never occurs textually: must be ontological with a path.
  EXPECT_TRUE((*evidence)[0].ontological);
  EXPECT_FALSE((*evidence)[0].onto_path.path.empty());
  // "theophylline" occurs in the narrative: textual.
  EXPECT_FALSE((*evidence)[1].ontological);
  // Decayed values sum to the result score (Eq. 4).
  EXPECT_NEAR((*evidence)[0].decayed + (*evidence)[1].decayed,
              results[0].score, 1e-9);
}

TEST_F(ExplainResultFixture, FailsForUncoveredKeyword) {
  KeywordQuery query = ParseQuery("bronchus zebra");
  QueryResult fake;
  fake.element = DeweyId({0});
  auto evidence = ExplainResult(index(), query, fake);
  ASSERT_FALSE(evidence.ok());
  EXPECT_EQ(evidence.status().code(), StatusCode::kNotFound);
}

TEST_F(ExplainResultFixture, FormatEvidenceMentionsSources) {
  KeywordQuery query = ParseQuery("bronchus theophylline");
  auto results = SearchTop(*engine_, query, 1);
  ASSERT_FALSE(results.empty());
  auto evidence = ExplainResult(index(), query, results[0]);
  ASSERT_TRUE(evidence.ok());
  std::string text = FormatEvidence(index(), *evidence);
  EXPECT_NE(text.find("via ontology"), std::string::npos);
  EXPECT_NE(text.find("via text"), std::string::npos);
}

}  // namespace
}  // namespace xontorank
