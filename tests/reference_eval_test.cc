// The differential test: the engine's Search against the naive Eq. 1-5
// reference evaluator (tests/reference_eval.h), bit for bit — the same
// elements in the same order with exactly equal doubles — over generated
// CDA corpora, under every execution configuration that must not change
// an answer: segmentation, parallelism, pruning mode, top_k, persistence
// to an mmap'd engine dir, and compaction.

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "cda/cda_document.h"
#include "cda/cda_generator.h"
#include "core/xontorank.h"
#include "eval/workload.h"
#include "gtest/gtest.h"
#include "onto/snomed_fragment.h"
#include "storage/engine_store.h"
#include "tests/reference_eval.h"

namespace xontorank {
namespace {

using VocabularyMode = IndexBuildOptions::VocabularyMode;

constexpr uint32_t kNumDocs = 16;

/// One index configuration of the matrix; each runs as its own test.
struct Config {
  Strategy strategy;
  VocabularyMode mode;
  bool elem_rank;
  uint64_t seed;
};

std::string Name(const Config& c) {
  std::string name = std::string(StrategyName(c.strategy)) +
                     (c.mode == VocabularyMode::kNone ? "_Lazy" : "_Eager");
  if (c.elem_rank) name += "_ElemRank";
  return name + "_" + std::to_string(c.seed);
}

std::string ConfigName(const ::testing::TestParamInfo<Config>& info) {
  return Name(info.param);
}

void PrintTo(const Config& c, std::ostream* os) { *os << Name(c); }

/// Table I's first queries (phrases included), single keywords, a phrase
/// that never occurs textually, and an out-of-vocabulary term.
std::vector<KeywordQuery> Queries() {
  std::vector<KeywordQuery> queries;
  std::vector<WorkloadQuery> table_one = TableOneQueries();
  for (size_t i = 0; i < 5 && i < table_one.size(); ++i) {
    queries.push_back(ParseQuery(table_one[i].text));
  }
  for (const char* text : {"mg", "furosemide mg", "asthma theophylline",
                           "theophylline",
                           "\"bronchial structure\" theophylline",
                           "asthma xylophonist"}) {
    queries.push_back(ParseQuery(text));
  }
  return queries;
}

std::vector<QueryResult> Truncated(const std::vector<QueryResult>& all,
                                   size_t top_k) {
  if (top_k == 0 || all.size() <= top_k) return all;
  return std::vector<QueryResult>(all.begin(), all.begin() + top_k);
}

class ReferenceEvalTest : public ::testing::TestWithParam<Config> {
 protected:
  ReferenceEvalTest() : onto_(BuildSnomedCardiologyFragment()) {
    CdaGeneratorOptions gen;
    gen.num_documents = kNumDocs;
    gen.seed = GetParam().seed;
    generator_ = std::make_unique<CdaGenerator>(onto_, gen);
    options_.strategy = GetParam().strategy;
    options_.vocabulary_mode = GetParam().mode;
    options_.use_elem_rank = GetParam().elem_rank;
    options_.lsm.auto_compact = false;
    options_.lsm.compaction_fanin = 4;
  }

  XmlDocument Doc(uint32_t i) {
    return CdaToXml(generator_->GenerateDocument(i), i);
  }

  /// The reference answers (all results) of every query.
  std::vector<std::vector<QueryResult>> Expected() {
    Corpus corpus;
    for (uint32_t i = 0; i < kNumDocs; ++i) corpus.Add(Doc(i));
    reference::TreeEvaluator evaluator(corpus, OntologySet(onto_), options_);
    std::vector<std::vector<QueryResult>> expected;
    size_t answered = 0;
    for (const KeywordQuery& query : queries_) {
      expected.push_back(evaluator.Evaluate(query, 0));
      if (!expected.back().empty()) ++answered;
    }
    // The comparison must have something to compare.
    EXPECT_GE(answered, 3u);
    return expected;
  }

  /// An engine over the documents committed in batches of `group`.
  std::unique_ptr<XOntoRank> BuildGrouped(uint32_t group) {
    auto engine =
        std::make_unique<XOntoRank>(Corpus(), OntologySet(onto_), options_);
    for (uint32_t i = 0; i < kNumDocs; ++i) {
      engine->StageDocument(Doc(i));
      if ((i + 1) % group == 0 || i + 1 == kNumDocs) engine->Commit();
    }
    return engine;
  }

  /// Every query x top_k x pruning mode x parallelism equals the
  /// reference.
  void ExpectMatchesReference(
      const XOntoRank& engine,
      const std::vector<std::vector<QueryResult>>& expected,
      const std::string& label) {
    for (size_t q = 0; q < queries_.size(); ++q) {
      for (size_t top_k : {size_t{0}, size_t{1}, size_t{10}}) {
        std::vector<QueryResult> want = Truncated(expected[q], top_k);
        for (PruningMode pruning : {PruningMode::kExact, PruningMode::kBlockMax}) {
          for (size_t parallelism : {size_t{1}, size_t{2}, size_t{4}}) {
            SearchOptions options;
            options.top_k = top_k;
            options.pruning = pruning;
            options.parallelism = parallelism;
            options.use_cache = false;
            std::vector<QueryResult> got =
                engine.Search(queries_[q], options).results;
            std::string where = label + " query=" + queries_[q].ToString() +
                                " k=" + std::to_string(top_k) + " " +
                                std::string(PruningModeName(pruning)) +
                                " parallelism=" + std::to_string(parallelism);
            ASSERT_EQ(got.size(), want.size()) << where;
            for (size_t i = 0; i < got.size(); ++i) {
              EXPECT_EQ(got[i].element, want[i].element) << where << " i=" << i;
              EXPECT_EQ(got[i].score, want[i].score) << where << " i=" << i;
              EXPECT_EQ(got[i].keyword_scores, want[i].keyword_scores)
                  << where << " i=" << i;
            }
          }
        }
      }
    }
  }

  std::string TempDir() const {
    return (std::filesystem::temp_directory_path() /
            ("xontorank_reference_eval_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
        .string();
  }

  Ontology onto_;
  std::unique_ptr<CdaGenerator> generator_;
  IndexBuildOptions options_;
  std::vector<KeywordQuery> queries_ = Queries();
};

TEST_P(ReferenceEvalTest, SearchMatchesReferenceBitForBit) {
  const std::vector<std::vector<QueryResult>> expected = Expected();
  for (uint32_t segments : {1u, 2u, 4u, 8u}) {
    std::unique_ptr<XOntoRank> engine = BuildGrouped(kNumDocs / segments);
    ASSERT_EQ(engine->snapshot()->segments().size(), segments);
    std::string label = "segments=" + std::to_string(segments);
    ExpectMatchesReference(*engine, expected, label);
    if (segments == 4) {
      // Persisted and reloaded: every list now reads from mmap'd
      // segment files.
      std::string dir = TempDir();
      std::filesystem::remove_all(dir);
      ASSERT_TRUE(SaveEngineDir(*engine, dir).ok());
      auto loaded = LoadEngineDir(dir);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      ExpectMatchesReference((*loaded)->engine(), expected, label + " mmap");
      loaded->reset();
      std::filesystem::remove_all(dir);
    }
    if (segments == 8) {
      engine->CompactNow();
      ASSERT_LT(engine->snapshot()->segments().size(), segments);
      ExpectMatchesReference(*engine, expected, label + " compacted");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ReferenceEvalTest,
    ::testing::ValuesIn([] {
      std::vector<Config> configs;
      for (uint64_t seed : {1234u, 77u}) {
        configs.push_back({Strategy::kXRank, VocabularyMode::kNone, false, seed});
        configs.push_back(
            {Strategy::kXRank, VocabularyMode::kCorpusAndOntology, false, seed});
        configs.push_back(
            {Strategy::kRelationships, VocabularyMode::kNone, false, seed});
        configs.push_back({Strategy::kRelationships,
                           VocabularyMode::kCorpusAndOntology, false, seed});
        configs.push_back(
            {Strategy::kRelationships, VocabularyMode::kNone, true, seed});
      }
      return configs;
    }()),
    ConfigName);

// ---- The list-level evaluator on hand-built inputs --------------------

reference::Posting P(std::vector<uint32_t> comps, double score) {
  return {DeweyId(std::move(comps)), score};
}

TEST(ReferenceListsTest, LcaAndMinimality) {
  // A at 0.0.0 and 0.0.1, B at 0.0.1: only 0.0.1 (which holds both) is a
  // result; its ancestor 0.0 is not (Eq. 1 minimality).
  auto results = reference::EvaluateLists(
      {{P({0, 0, 0}, 0.2), P({0, 0, 1}, 1.0)}, {P({0, 0, 1}, 0.9)}}, 0.5, 0);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].element.ToString(), "0.0.1");
  EXPECT_EQ(results[0].score, 1.0 + 0.9);
}

TEST(ReferenceListsTest, DecayIsRepeatedMultiplication) {
  auto results = reference::EvaluateLists(
      {{P({0, 0, 0, 0, 0}, 0.7)}, {P({0, 1}, 0.3)}}, 0.3, 0);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].element.ToString(), "0");
  EXPECT_EQ(results[0].keyword_scores[0], 0.7 * 0.3 * 0.3 * 0.3 * 0.3);
  EXPECT_EQ(results[0].keyword_scores[1], 0.3 * 0.3);
}

TEST(ReferenceListsTest, EmptyListOrNoListsYieldNothing) {
  EXPECT_TRUE(reference::EvaluateLists({}, 0.5, 0).empty());
  EXPECT_TRUE(
      reference::EvaluateLists({{P({0, 1}, 1.0)}, {}}, 0.5, 0).empty());
}

TEST(ReferenceListsTest, OrdersByScoreThenDeweyAndTruncates) {
  auto results = reference::EvaluateLists(
      {{P({3, 0}, 0.5), P({1, 0}, 0.5), P({2, 0}, 0.9)}}, 0.5, 2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].element.ToString(), "2.0");
  EXPECT_EQ(results[1].element.ToString(), "1.0");
}

// ---- Table III's Size definition ----

TEST(ReferenceListsTest, ApproxSizeReportsEncodedFootprint) {
  // Posting 1: shared(1) + fresh(1) + 3 component varints + 4-byte score
  //          = 9 bytes.
  // Posting 2: shares {0} with its predecessor — shared(1) + fresh(1) + no
  //            components + 4-byte score = 6 bytes.
  EXPECT_EQ(reference::ApproxSizeBytes({P({0, 1, 2}, 0.5), P({0}, 0.2)}),
            15u);
}

TEST(ReferenceListsTest, ApproxSizeElidesSharedPrefixes) {
  // 100 deep siblings: the common 7-component prefix is paid once, every
  // later posting stores only its fresh last component.
  std::vector<reference::Posting> postings;
  for (uint32_t i = 0; i < 100; ++i) {
    postings.push_back(P({0, 3, 0, 2, 0, 5, 1, i}, 0.5));
  }
  size_t uncompressed = 0;
  for (const reference::Posting& p : postings) {
    uncompressed += p.dewey.size() * sizeof(uint32_t) + sizeof(float);
  }
  EXPECT_LT(reference::ApproxSizeBytes(postings), uncompressed / 4);
}

}  // namespace
}  // namespace xontorank
