#include "core/explain.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/onto_score.h"
#include "core/xontorank.h"
#include "gtest/gtest.h"
#include "onto/ontology_generator.h"
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

TEST_F(ExplainFixture, CappedOutConceptsAreNotFound) {
  // §IX: under max_concepts_per_keyword the engine scores only the first
  // N concepts to settle; a concept it leaves at 0 has no explanation.
  for (Strategy strategy : {Strategy::kGraph, Strategy::kTaxonomy,
                            Strategy::kRelationships}) {
    for (const char* word : {"asthma", "flu", "bronchus", "disease"}) {
      Keyword keyword = MakeKeyword(word);
      ScoreOptions capped = options_;
      capped.max_concepts_per_keyword = 2;
      OntoScoreMap exact =
          ComputeOntoScores(index_, keyword, strategy, options_);
      OntoScoreMap kept = ComputeOntoScores(index_, keyword, strategy, capped);
      ASSERT_LE(kept.size(), 2u);
      for (const auto& [concept_id, score] : exact) {
        auto explanation =
            ExplainOntoScore(index_, keyword, strategy, capped, concept_id);
        const std::string where =
            std::string(word) + " " + std::string(StrategyName(strategy)) +
            " " + onto_.GetConcept(concept_id).preferred_term;
        if (kept.count(concept_id) == 0) {
          ASSERT_FALSE(explanation.ok()) << where;
          EXPECT_EQ(explanation.status().code(), StatusCode::kNotFound)
              << where;
        } else {
          ASSERT_TRUE(explanation.ok()) << where;
          EXPECT_EQ(explanation->score, kept.at(concept_id)) << where;
        }
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

// Bit-identity guard for explanations over the fragment plus 3,000
// generated concepts (seed 13, the Fig. 11 ontology). For every 13th
// vocabulary keyword, under each ontology-aware strategy, uncapped and
// under the §IX cap, it explains a concept of the lowest score (among the
// last to settle) and one in the middle of the score order, and, under
// the cap, looks up the best-scoring concept the cap cut off, which must
// be NotFound. Every explained path starts at a Match() seed whose IRS is its
// score, its step scores never increase and equal the dense row bit for
// bit, and a digest of (kind, concept id, via, score bits) over all of
// them is pinned. The expected values were recorded from the separate
// provenance-recording expansion the engine's settle replaced.
TEST(ExplainFig11Test, ExplanationsOverFig11OntologyArePinned) {
  Ontology onto = BuildSnomedCardiologyFragment(false);
  OntologyGeneratorOptions gen;
  gen.num_concepts = 3000;
  gen.seed = 13;
  ExtendOntology(onto, gen);
  OntologyIndex index(onto);
  const std::vector<std::string> vocabulary = index.Vocabulary();
  ASSERT_GT(vocabulary.size(), 1000u);

  struct Case {
    Strategy strategy;
    size_t cap;
    uint64_t digest;
  };
  const Case cases[] = {
      {Strategy::kGraph, 0, 0x6f81580746a1b2efULL},
      {Strategy::kGraph, 50, 0x59c92c9571cceadcULL},
      {Strategy::kTaxonomy, 0, 0x5642bed6301fa565ULL},
      {Strategy::kTaxonomy, 50, 0x52fe906f1bc0c41eULL},
      {Strategy::kRelationships, 0, 0xf61ece2523487c3aULL},
      {Strategy::kRelationships, 50, 0x61f079825bd317abULL},
  };
  size_t explained = 0;
  size_t cut_off = 0;
  for (const Case& c : cases) {
    ScoreOptions options;
    options.max_concepts_per_keyword = c.cap;
    ScoreOptions uncapped;
    uint64_t digest = 14695981039346656037ULL;  // FNV-1a over 64-bit words
    auto mix = [&digest](uint64_t word) {
      for (int byte = 0; byte < 8; ++byte) {
        digest ^= (word >> (8 * byte)) & 0xff;
        digest *= 1099511628211ULL;
      }
    };
    for (size_t w = 0; w < vocabulary.size(); w += 13) {
      const Keyword keyword = MakeKeyword(vocabulary[w]);
      const std::string where = std::string(StrategyName(c.strategy)) +
                                " cap " + std::to_string(c.cap) + " " +
                                vocabulary[w];
      const OntoScoreRow row =
          ComputeDenseOntoScores(index, keyword, c.strategy, options);
      if (row.empty()) continue;
      // Reached concepts by score, descending (ties by id).
      std::vector<ConceptId> reached;
      for (ConceptId id = 0; id < row.size(); ++id) {
        if (row[id] != 0.0) reached.push_back(id);
      }
      std::stable_sort(reached.begin(), reached.end(),
                       [&row](ConceptId a, ConceptId b) {
                         return row[a] > row[b];
                       });
      for (ConceptId target : {reached[reached.size() / 2], reached.back()}) {
        auto explanation =
            ExplainOntoScore(index, keyword, c.strategy, options, target);
        ASSERT_TRUE(explanation.ok()) << where << " concept " << target;
        const std::vector<OntoPathStep>& path = explanation->path;
        ASSERT_FALSE(path.empty()) << where;
        EXPECT_EQ(explanation->target, target) << where;
        EXPECT_EQ(path.back().concept_id, target) << where;
        EXPECT_EQ(std::bit_cast<uint64_t>(explanation->score),
                  std::bit_cast<uint64_t>(row[target]))
            << where;
        ASSERT_EQ(path[0].kind, OntoPathStep::Kind::kSeed) << where;
        bool seed_matches = false;
        for (const ScoredConcept& seed : index.Match(keyword)) {
          if (seed.concept_id == path[0].concept_id) {
            seed_matches = std::bit_cast<uint64_t>(seed.irs) ==
                           std::bit_cast<uint64_t>(path[0].score);
          }
        }
        EXPECT_TRUE(seed_matches) << where << " seed " << path[0].concept_id;
        mix(path.size());
        for (size_t i = 0; i < path.size(); ++i) {
          const OntoPathStep& step = path[i];
          EXPECT_EQ(std::bit_cast<uint64_t>(step.score),
                    std::bit_cast<uint64_t>(row[step.concept_id]))
              << where << " step " << i;
          if (i > 0) {
            EXPECT_LE(step.score, path[i - 1].score) << where;
          }
          mix(static_cast<uint64_t>(step.kind));
          mix(step.concept_id);
          mix(step.via.size());
          for (char ch : step.via) mix(static_cast<unsigned char>(ch));
          mix(std::bit_cast<uint64_t>(step.score));
        }
        ++explained;
      }
      if (c.cap == 0) continue;
      // The best concept the cap cut off: reached only without the cap.
      const OntoScoreRow exact =
          ComputeDenseOntoScores(index, keyword, c.strategy, uncapped);
      ConceptId cut = kInvalidConcept;
      for (ConceptId id = 0; id < exact.size(); ++id) {
        if (row[id] == 0.0 && exact[id] != 0.0 &&
            (cut == kInvalidConcept || exact[id] > exact[cut])) {
          cut = id;
        }
      }
      if (cut == kInvalidConcept) continue;
      auto explanation =
          ExplainOntoScore(index, keyword, c.strategy, options, cut);
      EXPECT_EQ(explanation.status().code(), StatusCode::kNotFound)
          << where << " concept " << cut;
      ++cut_off;
    }
    EXPECT_EQ(digest, c.digest)
        << StrategyName(c.strategy) << " cap " << c.cap << " digest 0x"
        << std::hex << digest;
  }
  EXPECT_GT(explained, 500u);
  EXPECT_GT(cut_off, 100u);
}

// ---- Result-level evidence ----

class ExplainResultFixture : public ::testing::Test {
 protected:
  /// Documents 0 and 2 are the tiny CDA record; document 1 between them
  /// mentions "theophylline" in text only and has no code node.
  ExplainResultFixture() : onto_(BuildTinyOntology()) {
    std::vector<XmlDocument> corpus;
    corpus.push_back(MustParse(TinyCdaXml(), 0));
    corpus.push_back(MustParse(
        "<ClinicalDocument><text>theophylline</text></ClinicalDocument>", 1));
    corpus.push_back(MustParse(TinyCdaXml(), 2));
    IndexBuildOptions options;
    options.strategy = Strategy::kRelationships;
    engine_ = std::make_unique<XOntoRank>(std::move(corpus), onto_, options);
  }

  /// The index of the segment holding document `doc`.
  const CorpusIndex& index(uint32_t doc = 0) const {
    return *engine_->snapshot()->SegmentIndexForDoc(doc);
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

TEST_F(ExplainResultFixture, WitnessComesFromTheResultsDocument) {
  KeywordQuery query = ParseQuery("bronchus theophylline");
  auto results = SearchTop(*engine_, query, 0);
  // Each witness is read from the result's own document: the lists hold
  // the same postings in documents 0 and 2, and document 1's between them.
  ASSERT_EQ(results.size(), 2u);  // document 1 has no code node
  EXPECT_EQ(results[0].element[0], 0u);
  EXPECT_EQ(results[1].element[0], 2u);
  for (const QueryResult& result : results) {
    const uint32_t doc = result.element[0];
    auto evidence = ExplainResult(index(doc), query, result);
    ASSERT_TRUE(evidence.ok()) << evidence.status().ToString();
    ASSERT_EQ(evidence->size(), 2u);
    for (size_t w = 0; w < evidence->size(); ++w) {
      const KeywordEvidence& item = (*evidence)[w];
      EXPECT_EQ(item.witness[0], doc) << "doc " << doc << " keyword " << w;
      EXPECT_EQ(item.decayed, result.keyword_scores[w])
          << "doc " << doc << " keyword " << w;
    }
  }
}

TEST_F(ExplainResultFixture, FailsForUncoveredKeyword) {
  KeywordQuery query = ParseQuery("bronchus zebra");
  QueryResult fake;
  fake.element = DeweyId({0});
  auto evidence = ExplainResult(index(), query, fake);
  ASSERT_FALSE(evidence.ok());
  EXPECT_EQ(evidence.status().code(), StatusCode::kNotFound);
  // A result with no element names no document to read.
  EXPECT_EQ(ExplainResult(index(), query, QueryResult{}).status().code(),
            StatusCode::kInvalidArgument);
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
