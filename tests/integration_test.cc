// Cross-module integration tests: generator → engine → query → storage,
// over the curated fragment, for every strategy.

#include <unistd.h>

#include <filesystem>
#include <memory>

#include "cda/cda_generator.h"
#include "core/xontorank.h"
#include "eval/relevance_oracle.h"
#include "eval/workload.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "onto/snomed_fragment.h"
#include "storage/segment_file.h"
#include "storage/segment_writer.h"

namespace xontorank {
namespace {

using testing_util::SearchTop;

class IntegrationFixture : public ::testing::Test {
 protected:
  IntegrationFixture() : onto_(BuildSnomedCardiologyFragment()) {
    CdaGeneratorOptions gen_options;
    gen_options.num_documents = 12;
    gen_options.seed = 321;
    generator_ = std::make_unique<CdaGenerator>(onto_, gen_options);
  }

  XOntoRank MakeEngine(Strategy strategy) {
    IndexBuildOptions options;
    options.strategy = strategy;
    return XOntoRank(generator_->GenerateCorpus(), onto_, options);
  }

  Ontology onto_;
  std::unique_ptr<CdaGenerator> generator_;
};

TEST_F(IntegrationFixture, ResultsAreAntichainsUnderEveryStrategy) {
  for (Strategy strategy : kAllStrategies) {
    XOntoRank engine = MakeEngine(strategy);
    for (const WorkloadQuery& wq : TableOneQueries()) {
      auto results = SearchTop(engine, wq.text, 0);
      for (size_t i = 0; i < results.size(); ++i) {
        for (size_t j = 0; j < results.size(); ++j) {
          if (i == j) continue;
          EXPECT_FALSE(
              results[i].element.IsStrictAncestorOf(results[j].element))
              << StrategyName(strategy) << " " << wq.id;
        }
      }
    }
  }
}

TEST_F(IntegrationFixture, EveryResultResolvesToARealElement) {
  XOntoRank engine = MakeEngine(Strategy::kRelationships);
  for (const WorkloadQuery& wq : TableOneQueries()) {
    for (const QueryResult& r : SearchTop(engine, wq.text, 10)) {
      const XmlNode* node = engine.ResolveResult(r);
      ASSERT_NE(node, nullptr) << wq.id;
      EXPECT_TRUE(node->is_element());
    }
  }
}

TEST_F(IntegrationFixture, KeywordScoresPositiveAndSumToTotal) {
  XOntoRank engine = MakeEngine(Strategy::kGraph);
  for (const WorkloadQuery& wq : TableOneQueries()) {
    KeywordQuery query = ParseQuery(wq.text);
    for (const QueryResult& r : SearchTop(engine, query, 10)) {
      ASSERT_EQ(r.keyword_scores.size(), query.size());
      double sum = 0.0;
      for (double s : r.keyword_scores) {
        EXPECT_GT(s, 0.0);
        sum += s;
      }
      EXPECT_NEAR(sum, r.score, 1e-9);
    }
  }
}

TEST_F(IntegrationFixture, OntologyStrategiesFindAtLeastXRankQueries) {
  // Any query answerable by XRANK (pure text) is answerable by every
  // ontology-aware strategy: NS only grows (Eq. 5 max).
  XOntoRank baseline = MakeEngine(Strategy::kXRank);
  XOntoRank graph = MakeEngine(Strategy::kGraph);
  XOntoRank relationships = MakeEngine(Strategy::kRelationships);
  for (const WorkloadQuery& wq : TableOneQueries()) {
    size_t base_count = SearchTop(baseline, wq.text, 0).size();
    if (base_count > 0) {
      EXPECT_FALSE(SearchTop(graph, wq.text, 0).empty()) << wq.id;
      EXPECT_FALSE(SearchTop(relationships, wq.text, 0).empty()) << wq.id;
    }
  }
}

TEST_F(IntegrationFixture, MotivatingQueriesAnsweredOnlyWithOntology) {
  // At least one Table I query must separate XRANK (no results) from the
  // Relationships strategy (results found) on this corpus — the paper's
  // central claim.
  XOntoRank baseline = MakeEngine(Strategy::kXRank);
  XOntoRank relationships = MakeEngine(Strategy::kRelationships);
  size_t separations = 0;
  for (const WorkloadQuery& wq : TableOneQueries()) {
    if (SearchTop(baseline, wq.text, 5).empty() &&
        !SearchTop(relationships, wq.text, 5).empty()) {
      ++separations;
    }
  }
  EXPECT_GE(separations, 1u);
}

TEST_F(IntegrationFixture, IndexSurvivesStorageRoundTrip) {
  XOntoRank engine = MakeEngine(Strategy::kRelationships);
  // The engine was built over its whole corpus, so it serves one segment.
  auto snap = engine.snapshot();
  const CorpusIndex& index = snap->segments().front()->index();
  // Materialize the workload keywords into the DIL, then persist them as
  // a segment file.
  std::vector<KeywordQuery> queries;
  for (const WorkloadQuery& wq : TableOneQueries()) {
    queries.push_back(ParseQuery(wq.text));
    SearchTop(engine, queries.back(), 5);
  }
  XOntoDil lists;
  for (const KeywordQuery& q : queries) {
    for (const Keyword& kw : q.keywords) {
      lists.Put(kw.Canonical(), index.GetEntry(kw)->postings);
    }
  }
  std::string path =
      (std::filesystem::temp_directory_path() /
       ("xontorank_integration_" + std::to_string(::getpid()) + ".xoseg"))
          .string();
  ASSERT_TRUE(SaveSegment(lists.Freeze(), path).ok());
  auto segment = SegmentFile::Open(path);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  FlatDil mapped = (*segment)->MakeView();

  // Queries over the mapped lists give the same results.
  QueryProcessor processor((ScoreOptions()));
  for (const KeywordQuery& q : queries) {
    std::vector<const DilEntry*> live;
    std::vector<DilCursor> loaded;
    for (const Keyword& kw : q.keywords) {
      live.push_back(index.GetEntry(kw));
      uint32_t list = mapped.FindList(kw.Canonical());
      ASSERT_NE(list, FlatDil::kNoList) << kw.Canonical();
      loaded.push_back(DilListRef::OverFlat(mapped, list).OpenCursor());
    }
    auto live_results = processor.Execute(live, 10);
    auto loaded_results = processor.Execute(std::move(loaded), 10);
    ASSERT_EQ(live_results.size(), loaded_results.size()) << q.ToString();
    for (size_t i = 0; i < live_results.size(); ++i) {
      EXPECT_EQ(live_results[i].element, loaded_results[i].element);
      EXPECT_EQ(live_results[i].score, loaded_results[i].score);
    }
  }
  std::filesystem::remove(path);
}

TEST_F(IntegrationFixture, OracleJudgesTextualResultsRelevant) {
  // XRANK results match keywords textually, so the oracle's textual rule
  // must accept them.
  XOntoRank baseline = MakeEngine(Strategy::kXRank);
  RelevanceOracle oracle(onto_);
  const Corpus& corpus = baseline.snapshot()->corpus();
  for (const WorkloadQuery& wq : TableOneQueries()) {
    KeywordQuery query = ParseQuery(wq.text);
    auto results = SearchTop(baseline, query, 5);
    if (results.empty()) continue;
    EXPECT_EQ(oracle.CountRelevant(query, corpus, results), results.size())
        << wq.id;
  }
}

TEST_F(IntegrationFixture, GeneratedQueriesAreWellFormed) {
  for (const WorkloadQuery& wq : GeneratedQueries(onto_, 10, 5)) {
    KeywordQuery q = ParseQuery(wq.text);
    EXPECT_EQ(q.size(), 2u) << wq.text;
  }
  for (size_t k = 1; k <= 4; ++k) {
    for (const WorkloadQuery& wq : FixedLengthQueries(onto_, k, 5, 7)) {
      EXPECT_EQ(ParseQuery(wq.text).size(), k) << wq.text;
    }
  }
}

}  // namespace
}  // namespace xontorank
