#include "core/onto_score.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/ontology_context.h"
#include "gtest/gtest.h"
#include "onto/ontology_generator.h"
#include "onto/dl_view.h"
#include "onto/snomed_fragment.h"
#include "tests/reference_eval.h"
#include "tests/test_util.h"

namespace xontorank {
namespace {

using testing_util::BuildTinyOntology;

constexpr double kEps = 1e-9;

double ScoreOf(const OntoScoreMap& map, const Ontology& onto,
               std::string_view term) {
  ConceptId c = onto.FindByPreferredTerm(term);
  EXPECT_NE(c, kInvalidConcept) << term;
  auto it = map.find(c);
  return it == map.end() ? 0.0 : it->second;
}

class OntoScoreFixture : public ::testing::Test {
 protected:
  OntoScoreFixture() : onto_(BuildTinyOntology()), index_(onto_) {}

  OntoScoreMap Compute(std::string_view keyword, Strategy strategy,
                       ScoreOptions options = {}) {
    return ComputeOntoScores(index_, MakeKeyword(keyword), strategy, options);
  }

  Ontology onto_;
  OntologyIndex index_;
};

TEST_F(OntoScoreFixture, XRankStrategyIgnoresOntology) {
  EXPECT_TRUE(Compute("asthma", Strategy::kXRank).empty());
}

TEST_F(OntoScoreFixture, UnmatchedKeywordYieldsEmpty) {
  for (Strategy s : {Strategy::kGraph, Strategy::kTaxonomy,
                     Strategy::kRelationships}) {
    EXPECT_TRUE(Compute("zebra", s).empty());
  }
}

// ---- Graph strategy (§IV-A): uniform decay per undirected edge ----

TEST_F(OntoScoreFixture, GraphDecaysPerEdge) {
  OntoScoreMap map = Compute("asthma", Strategy::kGraph);
  // Seed.
  EXPECT_NEAR(ScoreOf(map, onto_, "Asthma"), 1.0, kEps);
  // Distance 1: parent, child, relationship target, relationship source.
  EXPECT_NEAR(ScoreOf(map, onto_, "Disease"), 0.5, kEps);
  EXPECT_NEAR(ScoreOf(map, onto_, "AsthmaAttack"), 0.5, kEps);
  EXPECT_NEAR(ScoreOf(map, onto_, "Bronchus"), 0.5, kEps);
  EXPECT_NEAR(ScoreOf(map, onto_, "Drug"), 0.5, kEps);
  // Distance 2.
  EXPECT_NEAR(ScoreOf(map, onto_, "Root concept"), 0.25, kEps);
  EXPECT_NEAR(ScoreOf(map, onto_, "Flu"), 0.25, kEps);
  EXPECT_NEAR(ScoreOf(map, onto_, "Structure"), 0.25, kEps);
}

TEST_F(OntoScoreFixture, GraphRespectsDecayParameter) {
  ScoreOptions options;
  options.decay = 0.3;
  options.threshold = 0.01;
  OntoScoreMap map = Compute("asthma", Strategy::kGraph, options);
  EXPECT_NEAR(ScoreOf(map, onto_, "Disease"), 0.3, kEps);
  EXPECT_NEAR(ScoreOf(map, onto_, "Flu"), 0.09, kEps);
}

TEST_F(OntoScoreFixture, ThresholdPrunesExpansion) {
  ScoreOptions options;
  options.threshold = 0.3;
  OntoScoreMap map = Compute("asthma", Strategy::kGraph, options);
  for (const auto& [c, score] : map) {
    EXPECT_GE(score, 0.3) << onto_.GetConcept(c).preferred_term;
  }
  EXPECT_EQ(map.count(onto_.FindByPreferredTerm("Flu")), 0u);
  EXPECT_EQ(map.size(), 5u);  // Asthma + the four distance-1 neighbors
}

// ---- Taxonomy strategy (§IV-B) ----

TEST_F(OntoScoreFixture, TaxonomySubclassesFullySatisfySuperclassQuery) {
  // Paper rule (i): a query for a superclass is completely satisfied by any
  // subclass, with no decay over distance.
  OntoScoreMap map = Compute("disease", Strategy::kTaxonomy);
  EXPECT_NEAR(ScoreOf(map, onto_, "Disease"), 1.0, kEps);
  EXPECT_NEAR(ScoreOf(map, onto_, "Asthma"), 1.0, kEps);
  EXPECT_NEAR(ScoreOf(map, onto_, "Flu"), 1.0, kEps);
  EXPECT_NEAR(ScoreOf(map, onto_, "AsthmaAttack"), 1.0, kEps);  // depth 2
}

TEST_F(OntoScoreFixture, TaxonomySuperclassDampedByFanout) {
  // Paper rule (ii), the 1/26-subclasses example: flowing up into a parent
  // divides by the parent's direct-subclass count. Disease has 2 children.
  OntoScoreMap map = Compute("flu", Strategy::kTaxonomy);
  EXPECT_NEAR(ScoreOf(map, onto_, "Flu"), 1.0, kEps);
  EXPECT_NEAR(ScoreOf(map, onto_, "Disease"), 0.5, kEps);
  // Back down a sibling branch: full transfer from Disease's 0.5.
  EXPECT_NEAR(ScoreOf(map, onto_, "Asthma"), 0.5, kEps);
  EXPECT_NEAR(ScoreOf(map, onto_, "AsthmaAttack"), 0.5, kEps);
  // Root has 3 children: 0.5 / 3.
  EXPECT_NEAR(ScoreOf(map, onto_, "Root concept"), 0.5 / 3.0, kEps);
  EXPECT_NEAR(ScoreOf(map, onto_, "Structure"), 0.5 / 3.0, kEps);
}

TEST_F(OntoScoreFixture, TaxonomyIgnoresRelationships) {
  // Bronchus is reachable from Asthma only through finding_site_of, which
  // Taxonomy must not follow; it still gets a (weaker) purely taxonomic
  // score through Root.
  OntoScoreMap map = Compute("asthma", Strategy::kTaxonomy);
  EXPECT_NEAR(ScoreOf(map, onto_, "Asthma"), 1.0, kEps);
  EXPECT_NEAR(ScoreOf(map, onto_, "AsthmaAttack"), 1.0, kEps);
  EXPECT_NEAR(ScoreOf(map, onto_, "Disease"), 0.5, kEps);
  // Up to Root: 0.5/3, then down to Structure and Bronchus at full factor.
  EXPECT_NEAR(ScoreOf(map, onto_, "Bronchus"), 0.5 / 3.0, kEps);
  // Strictly less than the Relationships value (0.25) below.
}

// ---- Relationships strategy (§IV-C / §VI-C) ----

TEST_F(OntoScoreFixture, RelationshipsTraverseDlView) {
  OntoScoreMap map = Compute("asthma", Strategy::kRelationships);
  EXPECT_NEAR(ScoreOf(map, onto_, "Asthma"), 1.0, kEps);
  EXPECT_NEAR(ScoreOf(map, onto_, "AsthmaAttack"), 1.0, kEps);
  EXPECT_NEAR(ScoreOf(map, onto_, "Disease"), 0.5, kEps);
  EXPECT_NEAR(ScoreOf(map, onto_, "Flu"), 0.5, kEps);
  // Asthma → ∃fso.Bronchus costs 1/indeg(Bronchus, fso) = 1/2 (Asthma and
  // AsthmaAttack both point there), then the dotted link costs decay:
  // Bronchus = 0.5 * 0.5 = 0.25 — stronger than the taxonomic 1/6 route.
  EXPECT_NEAR(ScoreOf(map, onto_, "Bronchus"), 0.25, kEps);
  // Asthma → dotted into ∃treats.Asthma (decay 0.5) → down to Drug (×1).
  EXPECT_NEAR(ScoreOf(map, onto_, "Drug"), 0.5, kEps);
}

TEST_F(OntoScoreFixture, RelationshipsReverseDirectionCostsDecay) {
  // From Bronchus (the filler) back to the disorders: dotted link (decay)
  // then is-a down (free) — the Fig. 7 propagation pattern.
  OntoScoreMap map = Compute("bronchus", Strategy::kRelationships);
  EXPECT_NEAR(ScoreOf(map, onto_, "Bronchus"), 1.0, kEps);
  EXPECT_NEAR(ScoreOf(map, onto_, "Asthma"), 0.5, kEps);
  EXPECT_NEAR(ScoreOf(map, onto_, "AsthmaAttack"), 0.5, kEps);
}

TEST_F(OntoScoreFixture, RelationshipsSubsumeTaxonomyScores) {
  // Every concept reachable by Taxonomy is reachable by Relationships with
  // at least the same score (Relationships extends the edge set).
  for (const char* keyword : {"asthma", "flu", "disease", "bronchus"}) {
    OntoScoreMap tax = Compute(keyword, Strategy::kTaxonomy);
    OntoScoreMap rel = Compute(keyword, Strategy::kRelationships);
    for (const auto& [c, score] : tax) {
      auto it = rel.find(c);
      ASSERT_NE(it, rel.end()) << keyword << " concept "
                               << onto_.GetConcept(c).preferred_term;
      EXPECT_GE(it->second + kEps, score)
          << keyword << " concept " << onto_.GetConcept(c).preferred_term;
    }
  }
}

TEST_F(OntoScoreFixture, AllScoresInUnitInterval) {
  for (Strategy s : {Strategy::kGraph, Strategy::kTaxonomy,
                     Strategy::kRelationships}) {
    for (const char* keyword : {"asthma", "disease", "drug", "structure"}) {
      for (const auto& [c, score] : Compute(keyword, s)) {
        EXPECT_GT(score, 0.0);
        EXPECT_LE(score, 1.0 + kEps);
      }
    }
  }
}

// ---- Observation 1: merged expansion == independent BFS + max ----

class ObservationOneTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ObservationOneTest, MergedEqualsIndependentOnGeneratedOntology) {
  OntologyGeneratorOptions gen;
  gen.num_concepts = 300;
  gen.seed = GetParam();
  Ontology onto = GenerateOntology(gen);
  OntologyIndex index(onto);
  ScoreOptions options;
  options.threshold = 0.05;

  // Pick keywords that hit multiple concepts: sample from actual terms.
  std::vector<std::string> keywords;
  for (ConceptId c = 0; c < onto.concept_count() && keywords.size() < 6;
       c += 37) {
    auto tokens = Tokenize(onto.GetConcept(c).preferred_term);
    if (!tokens.empty()) keywords.push_back(tokens[0]);
  }
  ASSERT_FALSE(keywords.empty());

  for (const std::string& kw : keywords) {
    Keyword keyword = MakeKeyword(kw);
    OntoScoreMap merged =
        ComputeOntoScores(index, keyword, Strategy::kGraph, options);
    OntoScoreMap independent =
        reference::ComputeGraphScoresIndependent(index, keyword, options);
    // Same support, same values, bit for bit: both sides combine the same
    // products by max, and every factor is <= 1, so a path's scores never
    // rise and the threshold prunes the same paths.
    ASSERT_EQ(merged.size(), independent.size()) << kw;
    for (const auto& [c, score] : merged) {
      auto it = independent.find(c);
      ASSERT_NE(it, independent.end()) << kw;
      EXPECT_EQ(it->second, score) << kw;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObservationOneTest,
                         ::testing::Values(1, 7, 99, 2024));

// ---- Implicit DL traversal == materialized DL view ----

class DlEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DlEquivalenceTest, ImplicitMatchesMaterialized) {
  Ontology onto = GetParam() == 0
                      ? BuildSnomedCardiologyFragment()
                      : [&] {
                          OntologyGeneratorOptions gen;
                          gen.num_concepts = 250;
                          gen.seed = GetParam();
                          return GenerateOntology(gen);
                        }();
  OntologyIndex index(onto);
  DlView view(onto);
  ScoreOptions options;
  options.threshold = 0.05;

  std::vector<std::string> keywords = {"asthma", "cardiac", "structure"};
  for (ConceptId c = 0; c < onto.concept_count() && keywords.size() < 8;
       c += 41) {
    auto tokens = Tokenize(onto.GetConcept(c).preferred_term);
    if (!tokens.empty()) keywords.push_back(tokens.back());
  }

  for (const std::string& kw : keywords) {
    Keyword keyword = MakeKeyword(kw);
    OntoScoreMap implicit_map =
        ComputeOntoScores(index, keyword, Strategy::kRelationships, options);
    OntoScoreMap materialized = reference::ComputeRelationshipScoresOnDlView(
        view, index, keyword, options);
    ASSERT_EQ(implicit_map.size(), materialized.size()) << kw;
    for (const auto& [c, score] : implicit_map) {
      auto it = materialized.find(c);
      ASSERT_NE(it, materialized.end())
          << kw << " " << onto.GetConcept(c).preferred_term;
      EXPECT_EQ(it->second, score)
          << kw << " " << onto.GetConcept(c).preferred_term;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ontologies, DlEquivalenceTest,
                         ::testing::Values(0, 3, 55, 777));

// ---- Fragment-level scenario: the paper's motivating example ----

TEST(OntoScoreFragmentTest, BronchialStructureReachesAsthmaOnlyWithRelationships) {
  Ontology onto = BuildSnomedCardiologyFragment();
  OntologyIndex index(onto);
  Keyword keyword = MakeKeyword("bronchial structure");
  ScoreOptions options;
  ConceptId asthma = onto.FindByPreferredTerm("Asthma");

  OntoScoreMap rel =
      ComputeOntoScores(index, keyword, Strategy::kRelationships, options);
  ASSERT_NE(rel.find(asthma), rel.end());
  EXPECT_GE(rel.at(asthma), 0.25);

  OntoScoreMap tax =
      ComputeOntoScores(index, keyword, Strategy::kTaxonomy, options);
  EXPECT_EQ(tax.count(asthma), 0u);

  OntoScoreMap graph =
      ComputeOntoScores(index, keyword, Strategy::kGraph, options);
  EXPECT_NE(graph.count(asthma), 0u);
}

TEST(OntoScoreFragmentTest, AcetaminophenReachesAspirin) {
  // The paper's q10 failure mode: acetaminophen maps to aspirin through the
  // shared pain-relief context; the ontology-aware strategies cannot tell
  // the cardiology context apart. Verify the mapping exists (the oracle
  // then vetoes it).
  Ontology onto = BuildSnomedCardiologyFragment();
  OntologyIndex index(onto);
  ScoreOptions options;
  ConceptId aspirin = onto.FindByPreferredTerm("Aspirin");
  for (Strategy s : {Strategy::kGraph, Strategy::kRelationships}) {
    OntoScoreMap map =
        ComputeOntoScores(index, MakeKeyword("acetaminophen"), s, options);
    EXPECT_NE(map.count(aspirin), 0u) << StrategyName(s);
  }
}


TEST_F(OntoScoreFixture, ApproximationCapKeepsTopScores) {
  // §IX approximation: a cap of N yields exactly the N highest-scoring
  // concepts of the exact map (best-first settlement order).
  for (Strategy strategy : {Strategy::kGraph, Strategy::kTaxonomy,
                            Strategy::kRelationships}) {
    ScoreOptions exact_options;
    exact_options.threshold = 0.05;
    OntoScoreMap exact = Compute("asthma", strategy, exact_options);
    std::vector<double> scores;
    for (const auto& [c, score] : exact) scores.push_back(score);
    std::sort(scores.begin(), scores.end(), std::greater<double>());

    for (size_t cap : {size_t{1}, size_t{3}, size_t{5}}) {
      if (cap > exact.size()) continue;
      ScoreOptions capped_options = exact_options;
      capped_options.max_concepts_per_keyword = cap;
      OntoScoreMap capped = Compute("asthma", strategy, capped_options);
      ASSERT_EQ(capped.size(), cap) << StrategyName(strategy);
      double cutoff = scores[cap - 1];
      for (const auto& [c, score] : capped) {
        // Every kept concept scores at least the exact N-th score, and its
        // value matches the exact computation.
        EXPECT_GE(score + 1e-12, cutoff) << StrategyName(strategy);
        EXPECT_NEAR(exact.at(c), score, 1e-12) << StrategyName(strategy);
      }
    }
  }
}

TEST_F(OntoScoreFixture, ApproximationCapZeroMeansUnlimited) {
  ScoreOptions unlimited;
  unlimited.max_concepts_per_keyword = 0;
  ScoreOptions defaulted;
  OntoScoreMap a = Compute("asthma", Strategy::kRelationships, unlimited);
  OntoScoreMap b = Compute("asthma", Strategy::kRelationships, defaulted);
  EXPECT_EQ(a.size(), b.size());
}

// The row cache stores rows densely (one double per concept); the map that
// Algorithm 1 produces stays the reference. Every strategy, cached or not,
// must read back exactly: 0.0 for a concept the keyword does not reach, the
// map's value bit for bit otherwise, and an empty row when nothing is
// reached.
TEST(OntoScoreRowTest, DenseRowMatchesMapAtEveryConcept) {
  Ontology onto = BuildSnomedCardiologyFragment();
  for (Strategy strategy : {Strategy::kXRank, Strategy::kGraph,
                            Strategy::kTaxonomy, Strategy::kRelationships}) {
    for (bool cached : {true, false}) {
      IndexBuildOptions options;
      options.strategy = strategy;
      options.cache_onto_score_rows = cached;
      auto context = OntologyContext::Create(onto, options);
      for (const char* word :
           {"asthma", "bronchial structure", "theophylline", "zebra"}) {
        Keyword keyword = MakeKeyword(word);
        OntoScoreMap map = ComputeOntoScores(context->index(0), keyword,
                                             strategy, options.score);
        OntoScoreRowCache::Row row = context->GetRow(0, keyword);
        ASSERT_NE(row, nullptr);
        EXPECT_EQ(context->GetRow(0, keyword) == row, cached) << word;
        if (map.empty()) {
          EXPECT_TRUE(row->empty()) << word;
          continue;
        }
        ASSERT_EQ(row->size(), onto.concept_count()) << word;
        for (ConceptId c = 0; c < onto.concept_count(); ++c) {
          auto it = map.find(c);
          double expected = it == map.end() ? 0.0 : it->second;
          EXPECT_EQ(std::bit_cast<uint64_t>((*row)[c]),
                    std::bit_cast<uint64_t>(expected))
              << StrategyName(strategy) << " " << word << " concept " << c;
        }
      }
      // A keyword that reaches nothing stores an empty row.
      EXPECT_TRUE(context->GetRow(0, MakeKeyword("zebra"))->empty());
      if (strategy == Strategy::kXRank) {
        EXPECT_TRUE(context->GetRow(0, MakeKeyword("asthma"))->empty());
      } else {
        EXPECT_FALSE(context->GetRow(0, MakeKeyword("asthma"))->empty());
      }
    }
  }
}

// The Relationships expansion reads the adjacency OntologyIndex computes
// once; it must agree with the ontology's own scans, in the same order:
// one restriction per (role, target) with an incoming relationship, its
// sources in InRelationships(target) order, and every relationship slot
// naming its own restriction.
TEST(OntologyIndexTest, PrecomputedRelationshipAdjacencyMatchesOntology) {
  OntologyGeneratorOptions gen;
  gen.num_concepts = 400;
  gen.relationships_per_concept = 3.0;
  gen.seed = 11;
  Ontology onto = GenerateOntology(gen);
  OntologyIndex index(onto);
  size_t multi_role_targets = 0;
  size_t restrictions = 0;
  auto sources_of = [&onto](ConceptId target, RelationTypeId role) {
    std::vector<ConceptId> sources;
    for (const ConceptRelationship& rel : onto.InRelationships(target)) {
      if (rel.type == role) sources.push_back(rel.source);
    }
    return sources;
  };
  for (ConceptId c = 0; c < onto.concept_count(); ++c) {
    const std::vector<ConceptRelationship>& out = onto.OutRelationships(c);
    std::span<const uint32_t> indegrees = index.OutRelationInDegrees(c);
    std::span<const uint32_t> out_restrictions = index.OutRestrictions(c);
    ASSERT_EQ(indegrees.size(), out.size());
    ASSERT_EQ(out_restrictions.size(), out.size());
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(indegrees[i],
                onto.RelationInDegree(out[i].target, out[i].type));
      ASSERT_LT(out_restrictions[i], index.restriction_count());
      EXPECT_EQ(index.RestrictionRole(out_restrictions[i]), out[i].type);
      EXPECT_EQ(index.RestrictionTarget(out_restrictions[i]), out[i].target);
    }
    const std::vector<ConceptRelationship>& in = onto.InRelationships(c);
    std::span<const uint32_t> in_restrictions = index.InRestrictions(c);
    ASSERT_EQ(in_restrictions.size(), in.size());
    std::set<RelationTypeId> roles;
    std::set<uint32_t> ids;
    for (size_t j = 0; j < in.size(); ++j) {
      roles.insert(in[j].type);
      ids.insert(in_restrictions[j]);
      const uint32_t r = in_restrictions[j];
      ASSERT_LT(r, index.restriction_count());
      EXPECT_EQ(index.RestrictionRole(r), in[j].type);
      EXPECT_EQ(index.RestrictionTarget(r), c);
      std::span<const ConceptId> sources = index.RestrictionSources(r);
      EXPECT_EQ(std::vector<ConceptId>(sources.begin(), sources.end()),
                sources_of(c, in[j].type))
          << "target " << c << " role " << in[j].type;
    }
    EXPECT_EQ(ids.size(), roles.size()) << "target " << c;
    restrictions += roles.size();
    multi_role_targets += roles.size() > 1 ? 1 : 0;
  }
  EXPECT_EQ(index.restriction_count(), restrictions);
  EXPECT_GT(multi_role_targets, 0u);
}

// The dense row is read straight off the expansion; it must equal the map
// at every concept, bit for bit (0.0 where the map has no entry, and an
// empty row for an empty map), for every strategy, including under the
// §IX cap (which stops the expansion part way).
TEST(OntoScoreRowTest, ComputeDenseOntoScoresEqualsDenseMap) {
  OntologyGeneratorOptions gen;
  gen.num_concepts = 500;
  gen.seed = 5;
  Ontology onto = GenerateOntology(gen);
  OntologyIndex index(onto);
  std::vector<std::string> vocabulary = index.Vocabulary();
  ASSERT_GT(vocabulary.size(), 50u);
  for (size_t cap : {size_t{0}, size_t{7}}) {
    ScoreOptions options;
    options.max_concepts_per_keyword = cap;
    for (Strategy strategy : {Strategy::kXRank, Strategy::kGraph,
                              Strategy::kTaxonomy, Strategy::kRelationships}) {
      for (size_t w = 0; w < vocabulary.size(); w += 5) {
        Keyword keyword = MakeKeyword(vocabulary[w]);
        OntoScoreMap map =
            ComputeOntoScores(index, keyword, strategy, options);
        OntoScoreRow row =
            ComputeDenseOntoScores(index, keyword, strategy, options);
        ASSERT_EQ(row.size(), map.empty() ? 0 : onto.concept_count())
            << vocabulary[w];
        for (ConceptId c = 0; c < row.size(); ++c) {
          auto it = map.find(c);
          double expected = it == map.end() ? 0.0 : it->second;
          EXPECT_EQ(std::bit_cast<uint64_t>(row[c]),
                    std::bit_cast<uint64_t>(expected))
              << StrategyName(strategy) << " " << vocabulary[w];
        }
      }
    }
  }
}

// Bit-identity guard for the settle: a digest of every ontology-vocabulary
// keyword's dense row (concept id and score bits of every reached concept,
// in concept order) over the fragment plus 3,000 generated concepts (seed
// 13, the Fig. 11 ontology), for each ontology-aware strategy, uncapped and
// under the §IX cap. The expected values were recorded from the hash-set
// settle the dense state space replaced; a change to push order, tie order
// or the cap's cut shows up here.
TEST(OntoScoreRowTest, SettleDigestsOverFig11OntologyArePinned) {
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
      {Strategy::kGraph, 0, 0x437678781c02700cULL},
      {Strategy::kGraph, 50, 0x726405791cc9e14fULL},
      {Strategy::kTaxonomy, 0, 0x654f302d82e3a0c6ULL},
      {Strategy::kTaxonomy, 50, 0xae797e2ab2a38292ULL},
      {Strategy::kRelationships, 0, 0x51d58174b1235993ULL},
      {Strategy::kRelationships, 50, 0x4a0fa3ff7470d2d5ULL},
  };
  for (const Case& c : cases) {
    ScoreOptions options;
    options.max_concepts_per_keyword = c.cap;
    uint64_t digest = 14695981039346656037ULL;  // FNV-1a over 64-bit words
    auto mix = [&digest](uint64_t word) {
      for (int byte = 0; byte < 8; ++byte) {
        digest ^= (word >> (8 * byte)) & 0xff;
        digest *= 1099511628211ULL;
      }
    };
    for (const std::string& word : vocabulary) {
      const OntoScoreRow row = ComputeDenseOntoScores(
          index, MakeKeyword(word), c.strategy, options);
      mix(row.size());
      for (ConceptId concept_id = 0; concept_id < row.size(); ++concept_id) {
        if (row[concept_id] == 0.0) continue;
        mix(concept_id);
        mix(std::bit_cast<uint64_t>(row[concept_id]));
      }
    }
    EXPECT_EQ(digest, c.digest)
        << StrategyName(c.strategy) << " cap " << c.cap << " digest 0x"
        << std::hex << digest;
  }
}

}  // namespace
}  // namespace xontorank
