// Cross-cutting randomized property tests: invariants that must hold for
// every seed, exercised over generated ontologies, corpora and byte noise.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "cda/cda_generator.h"
#include "common/random.h"
#include "core/onto_score.h"
#include "core/ranked_query_processor.h"
#include "core/xontorank.h"
#include "gtest/gtest.h"
#include "onto/ontology_generator.h"
#include "onto/snomed_fragment.h"
#include "storage/segment_file.h"
#include "storage/segment_writer.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace xontorank {
namespace {

constexpr double kEps = 1e-9;

class OntoScoreProperties : public ::testing::TestWithParam<uint64_t> {
 protected:
  Ontology MakeOntology() {
    if (GetParam() == 0) return BuildSnomedCardiologyFragment();
    OntologyGeneratorOptions options;
    options.num_concepts = 400;
    options.seed = GetParam();
    return GenerateOntology(options);
  }

  std::vector<Keyword> SampleKeywords(const Ontology& onto) {
    std::vector<Keyword> keywords;
    for (ConceptId c = 0; c < onto.concept_count() && keywords.size() < 5;
         c += 53) {
      auto tokens = Tokenize(onto.GetConcept(c).preferred_term);
      if (!tokens.empty()) keywords.push_back(MakeKeyword(tokens[0]));
    }
    return keywords;
  }
};

TEST_P(OntoScoreProperties, ScoresInUnitIntervalForAllStrategies) {
  Ontology onto = MakeOntology();
  OntologyIndex index(onto);
  ScoreOptions options;
  for (Strategy strategy : {Strategy::kGraph, Strategy::kTaxonomy,
                            Strategy::kRelationships}) {
    for (const Keyword& kw : SampleKeywords(onto)) {
      for (const auto& [c, score] :
           ComputeOntoScores(index, kw, strategy, options)) {
        EXPECT_GT(score, 0.0);
        EXPECT_LE(score, 1.0 + kEps);
      }
    }
  }
}

TEST_P(OntoScoreProperties, ThresholdActsAsPureFilter) {
  // Raising the threshold must neither change surviving scores nor keep
  // any node below it: every prefix of a maximal path scores at least the
  // path's final value (all transfer factors ≤ 1), so a surviving node's
  // best path survives whole.
  Ontology onto = MakeOntology();
  OntologyIndex index(onto);
  ScoreOptions low;
  low.threshold = 0.05;
  ScoreOptions high;
  high.threshold = 0.2;
  for (Strategy strategy : {Strategy::kGraph, Strategy::kTaxonomy,
                            Strategy::kRelationships}) {
    for (const Keyword& kw : SampleKeywords(onto)) {
      OntoScoreMap fine = ComputeOntoScores(index, kw, strategy, low);
      OntoScoreMap coarse = ComputeOntoScores(index, kw, strategy, high);
      for (const auto& [c, score] : coarse) {
        EXPECT_GE(score, high.threshold - kEps);
        auto it = fine.find(c);
        ASSERT_NE(it, fine.end());
        EXPECT_NEAR(it->second, score, kEps);
      }
      for (const auto& [c, score] : fine) {
        if (score >= high.threshold + kEps) {
          EXPECT_NE(coarse.find(c), coarse.end())
              << onto.GetConcept(c).preferred_term;
        }
      }
    }
  }
}

TEST_P(OntoScoreProperties, GraphScoresMonotoneInDecay) {
  Ontology onto = MakeOntology();
  OntologyIndex index(onto);
  ScoreOptions slow;
  slow.decay = 0.3;
  slow.threshold = 0.05;
  ScoreOptions fast;
  fast.decay = 0.7;
  fast.threshold = 0.05;
  for (const Keyword& kw : SampleKeywords(onto)) {
    OntoScoreMap low = ComputeOntoScores(index, kw, Strategy::kGraph, slow);
    OntoScoreMap high = ComputeOntoScores(index, kw, Strategy::kGraph, fast);
    for (const auto& [c, score] : low) {
      auto it = high.find(c);
      ASSERT_NE(it, high.end());
      EXPECT_GE(it->second + kEps, score);
    }
  }
}

TEST_P(OntoScoreProperties, RelationshipsDominateTaxonomyPointwise) {
  Ontology onto = MakeOntology();
  OntologyIndex index(onto);
  ScoreOptions options;
  for (const Keyword& kw : SampleKeywords(onto)) {
    OntoScoreMap tax = ComputeOntoScores(index, kw, Strategy::kTaxonomy, options);
    OntoScoreMap rel =
        ComputeOntoScores(index, kw, Strategy::kRelationships, options);
    for (const auto& [c, score] : tax) {
      auto it = rel.find(c);
      ASSERT_NE(it, rel.end()) << onto.GetConcept(c).preferred_term;
      EXPECT_GE(it->second + kEps, score);
    }
  }
}

TEST_P(OntoScoreProperties, SeedsScoreAtLeastTheirIrs) {
  Ontology onto = MakeOntology();
  OntologyIndex index(onto);
  ScoreOptions options;
  for (Strategy strategy : {Strategy::kGraph, Strategy::kTaxonomy,
                            Strategy::kRelationships}) {
    for (const Keyword& kw : SampleKeywords(onto)) {
      OntoScoreMap map = ComputeOntoScores(index, kw, strategy, options);
      for (const ScoredConcept& seed : index.Match(kw)) {
        if (seed.irs < options.threshold) continue;
        auto it = map.find(seed.concept_id);
        ASSERT_NE(it, map.end());
        EXPECT_GE(it->second + kEps, seed.irs);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ontologies, OntoScoreProperties,
                         ::testing::Values(0, 11, 222, 3333));

// ---- XML parser robustness ----

class XmlFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(XmlFuzzTest, RandomBytesNeverCrash) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    size_t length = rng.NextBelow(200);
    std::string noise;
    for (size_t i = 0; i < length; ++i) {
      noise.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    auto result = ParseXml(noise);  // must return, never crash
    if (result.ok()) {
      EXPECT_NE(result->root(), nullptr);
    }
  }
}

TEST_P(XmlFuzzTest, MutatedValidDocumentsNeverCrash) {
  Rng rng(GetParam() ^ 0xF00D);
  Ontology onto = BuildSnomedCardiologyFragment();
  CdaGeneratorOptions gen_options;
  gen_options.num_documents = 1;
  gen_options.seed = GetParam();
  CdaGenerator generator(onto, gen_options);
  std::string xml = WriteXml(CdaToXml(generator.GenerateDocument(0), 0));
  for (int trial = 0; trial < 100; ++trial) {
    std::string mutated = xml;
    size_t mutations = 1 + rng.NextBelow(8);
    for (size_t m = 0; m < mutations; ++m) {
      size_t pos = rng.NextBelow(mutated.size());
      switch (rng.NextBelow(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.NextBelow(256));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>(rng.NextBelow(256)));
      }
    }
    auto result = ParseXml(mutated);
    (void)result;  // either outcome is fine; crashing is not
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlFuzzTest, ::testing::Values(1, 77, 900));

// ---- Index / engine invariants over generated corpora ----

class EngineInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineInvariantTest, RankedAgreesWithExhaustiveOnRealCorpus) {
  Ontology onto = BuildSnomedCardiologyFragment();
  CdaGeneratorOptions gen_options;
  gen_options.num_documents = 10;
  gen_options.seed = GetParam();
  CdaGenerator generator(onto, gen_options);
  IndexBuildOptions options;
  options.strategy = Strategy::kRelationships;
  options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
  XOntoRank engine(generator.GenerateCorpus(), onto, options);

  // The engine was built over its whole corpus, so it serves one segment.
  auto snap = engine.snapshot();
  const CorpusIndex& index = snap->segments().front()->index();
  QueryProcessor exhaustive(options.score);
  RankedQueryProcessor ranked(options.score);
  for (const char* text :
       {"cardiac arrest", "asthma theophylline", "\"pericardial effusion\"",
        "amiodarone arrhythmia"}) {
    KeywordQuery query = ParseQuery(text);
    std::vector<const DilEntry*> lists;
    for (const Keyword& kw : query.keywords) {
      lists.push_back(index.GetEntry(kw));
    }
    auto a = exhaustive.Execute(lists, 5);
    auto b = ranked.Execute(lists, 5);
    ASSERT_EQ(a.size(), b.size()) << text;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].element, b[i].element) << text;
      EXPECT_NEAR(a[i].score, b[i].score, kEps) << text;
    }
  }
}

TEST_P(EngineInvariantTest, PostingScoresBounded) {
  // NS ≤ 1 always: IRS is normalized and ω·OS ≤ ω ≤ 1 (Eq. 5).
  Ontology onto = BuildSnomedCardiologyFragment();
  CdaGeneratorOptions gen_options;
  gen_options.num_documents = 6;
  gen_options.seed = GetParam();
  CdaGenerator generator(onto, gen_options);
  Corpus corpus = generator.GenerateCorpus();
  IndexBuildOptions options;
  options.strategy = Strategy::kRelationships;
  options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
  CorpusIndex index(corpus, onto, options);
  for (const char* word : {"asthma", "cardiac", "bronchial", "furosemide"}) {
    for (const DilPosting& p : index.BuildPostings(MakeKeyword(word))) {
      EXPECT_GT(p.score, 0.0);
      EXPECT_LE(p.score, 1.0 + kEps);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineInvariantTest,
                         ::testing::Values(3, 42, 777));

// ---- Storage round-trip over random indexes ----

class StorageFuzzTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  std::string TempPath() const {
    return (std::filesystem::temp_directory_path() /
            ("xontorank_storage_fuzz_" + std::to_string(::getpid()) + "_" +
             std::to_string(GetParam()) + ".xoseg"))
        .string();
  }
};

TEST_P(StorageFuzzTest, RandomIndexesRoundTrip) {
  Rng rng(GetParam());
  const std::string path = TempPath();
  for (int trial = 0; trial < 20; ++trial) {
    XOntoDil dil;
    size_t num_keywords = rng.NextBelow(8);
    for (size_t k = 0; k < num_keywords; ++k) {
      std::vector<DilPosting> postings;
      std::set<std::vector<uint32_t>> used;
      size_t n = rng.NextBelow(40);
      for (size_t i = 0; i < n; ++i) {
        std::vector<uint32_t> comps{
            static_cast<uint32_t>(rng.NextBelow(1000))};
        size_t depth = rng.NextBelow(10);
        for (size_t d = 0; d < depth; ++d) {
          comps.push_back(static_cast<uint32_t>(rng.NextBelow(100000)));
        }
        if (!used.insert(comps).second) continue;
        postings.push_back({DeweyId(comps), rng.NextDouble()});
      }
      dil.Put("kw" + std::to_string(k), std::move(postings));
    }
    ASSERT_TRUE(SaveSegment(dil.Freeze(), path).ok());
    auto segment = SegmentFile::Open(path);
    ASSERT_TRUE(segment.ok()) << segment.status().ToString();
    XOntoDil decoded = (*segment)->MakeView().ThawAll();
    ASSERT_EQ(decoded.keyword_count(), dil.keyword_count());
    EXPECT_EQ(decoded.TotalPostings(), dil.TotalPostings());
  }
  std::filesystem::remove(path);
}

TEST_P(StorageFuzzTest, RandomTruncationsNeverCrashOrSucceedWrongly) {
  Rng rng(GetParam() ^ 0xBEEF);
  XOntoDil dil;
  dil.Put("asthma", {{DeweyId({0, 1, 2}), 0.5}, {DeweyId({3}), 0.25}});
  const std::string blob = EncodeSegment(dil.Freeze());
  const std::string path = TempPath();
  for (int trial = 0; trial < 100; ++trial) {
    size_t keep = rng.NextBelow(blob.size());
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(blob.data(), static_cast<std::streamsize>(keep));
    }
    auto segment = SegmentFile::Open(path);
    EXPECT_FALSE(segment.ok()) << keep;  // size or CRC checks must reject
  }
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageFuzzTest,
                         ::testing::Values(9, 99, 999));

}  // namespace
}  // namespace xontorank
