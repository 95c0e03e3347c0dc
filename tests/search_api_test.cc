// The unified Search(query, SearchOptions) entry point: stats reporting,
// caching, and equivalence of execution hints (parallelism, pruning
// mode). This is the ONLY query surface — the old Search(query, top_k) and
// SearchRanked wrappers are gone (xo_lint rejects reintroductions).

#include "core/search_api.h"

#include "cda/cda_generator.h"
#include "core/xontorank.h"
#include "gtest/gtest.h"
#include "onto/snomed_fragment.h"
#include "tests/test_util.h"

namespace xontorank {
namespace {

using testing_util::BuildTinyOntology;
using testing_util::ExpectSameResults;
using testing_util::MustParse;
using testing_util::TinyCdaXml;
using testing_util::SearchTop;

TEST(SearchOptionsTest, PruningModeNames) {
  EXPECT_EQ(PruningModeName(PruningMode::kExact), "exact");
  EXPECT_EQ(PruningModeName(PruningMode::kBlockMax), "blockmax");
}

TEST(SearchOptionsTest, DefaultPruningIsBlockMax) {
  EXPECT_EQ(SearchOptions{}.pruning, PruningMode::kBlockMax);
}

class SearchApiFixture : public ::testing::Test {
 protected:
  SearchApiFixture() : onto_(BuildTinyOntology()) {
    std::vector<XmlDocument> corpus;
    corpus.push_back(MustParse(TinyCdaXml(), 0));
    IndexBuildOptions options;
    options.strategy = Strategy::kRelationships;
    engine_ = std::make_unique<XOntoRank>(std::move(corpus), onto_, options);
  }

  Ontology onto_;
  std::unique_ptr<XOntoRank> engine_;
};

TEST_F(SearchApiFixture, PruningIsAnExecutionHintOnly) {
  KeywordQuery query = ParseQuery("bronchus theophylline");
  SearchOptions exact;
  exact.top_k = 10;
  exact.use_cache = false;
  exact.pruning = PruningMode::kExact;
  SearchOptions blockmax = exact;
  blockmax.pruning = PruningMode::kBlockMax;
  SearchResponse a = engine_->Search(query, exact);
  SearchResponse b = engine_->Search(query, blockmax);
  EXPECT_FALSE(a.results.empty());
  ExpectSameResults(a.results, b.results);
  // The exact path never skips and never tracks block work.
  EXPECT_EQ(a.stats.blocks_skipped, 0u);
  EXPECT_EQ(a.stats.blocks_scored, 0u);
  EXPECT_EQ(a.stats.threshold_updates, 0u);
}

TEST_F(SearchApiFixture, TopKZeroForcesExactScoring) {
  // There is no k-th score to prune against, so the blockmax hint is
  // silently ignored — all results, none skipped.
  SearchOptions all;
  all.top_k = 0;
  all.use_cache = false;
  all.pruning = PruningMode::kBlockMax;
  SearchResponse response = engine_->Search("theophylline", all);
  EXPECT_FALSE(response.results.empty());
  EXPECT_EQ(response.stats.blocks_skipped, 0u);
  EXPECT_EQ(response.stats.threshold_updates, 0u);
}

TEST_F(SearchApiFixture, TopKZeroMeansAllResults) {
  KeywordQuery query = ParseQuery("theophylline");
  SearchOptions all;
  all.top_k = 0;
  SearchOptions plenty;
  plenty.top_k = 1000;
  ExpectSameResults(engine_->Search(query, all).results,
                    engine_->Search(query, plenty).results);
}

TEST_F(SearchApiFixture, StatsReportExecutionWork) {
  SearchOptions options;
  options.top_k = 10;
  options.use_cache = false;
  SearchResponse response = engine_->Search("theophylline", options);
  EXPECT_FALSE(response.results.empty());
  EXPECT_GT(response.stats.postings_scanned, 0u);
  EXPECT_EQ(response.stats.shards, 1u);
  EXPECT_FALSE(response.stats.cache_hit);
  EXPECT_GE(response.stats.wall_micros, 0.0);
}

TEST_F(SearchApiFixture, CacheHitOnRepeatAndStatsSaySo) {
  KeywordQuery query = ParseQuery("bronchus theophylline");
  SearchOptions options;
  options.top_k = 10;
  SearchResponse first = engine_->Search(query, options);
  EXPECT_FALSE(first.stats.cache_hit);
  SearchResponse second = engine_->Search(query, options);
  EXPECT_TRUE(second.stats.cache_hit);
  EXPECT_EQ(second.stats.shards, 0u);  // nothing executed
  EXPECT_EQ(second.stats.postings_scanned, 0u);
  ExpectSameResults(first.results, second.results);
}

TEST_F(SearchApiFixture, UseCacheFalseAlwaysExecutes) {
  KeywordQuery query = ParseQuery("theophylline");
  SearchOptions options;
  options.top_k = 10;
  options.use_cache = false;
  engine_->Search(query, options);
  SearchResponse repeat = engine_->Search(query, options);
  EXPECT_FALSE(repeat.stats.cache_hit);
  EXPECT_GT(repeat.stats.postings_scanned, 0u);
}

TEST_F(SearchApiFixture, CacheKeyDistinguishesTopK) {
  KeywordQuery query = ParseQuery("theophylline");
  SearchOptions top1;
  top1.top_k = 1;
  SearchOptions top2;
  top2.top_k = 2;
  auto first = engine_->Search(query, top1);
  auto second = engine_->Search(query, top2);
  EXPECT_FALSE(second.stats.cache_hit);  // different k, different entry
  EXPECT_LE(first.results.size(), second.results.size());
}

TEST_F(SearchApiFixture, EmptyQueryYieldsEmptyResponse) {
  SearchResponse response = engine_->Search(KeywordQuery{}, SearchOptions{});
  EXPECT_TRUE(response.results.empty());
  EXPECT_FALSE(response.stats.cache_hit);
}

TEST_F(SearchApiFixture, ParallelismIsAnExecutionHintOnly) {
  KeywordQuery query = ParseQuery("bronchus theophylline");
  SearchOptions serial;
  serial.top_k = 0;
  serial.use_cache = false;
  SearchOptions sharded = serial;
  sharded.parallelism = 4;
  SearchOptions automatic = serial;
  automatic.parallelism = 0;  // one shard per hardware core
  auto expected = engine_->Search(query, serial).results;
  ExpectSameResults(expected, engine_->Search(query, sharded).results);
  ExpectSameResults(expected, engine_->Search(query, automatic).results);
}

// The phase split: on a lazy engine the first query demand-builds one
// list per keyword (inside resolve_micros); repeating it builds nothing.
// The phases are disjoint parts of the wall time, and a cache hit or a
// precomputed vocabulary reports no builds.
TEST(SearchApiPhaseStatsTest, ResolveAndMergeSplitWallTime) {
  Ontology onto = BuildTinyOntology();
  std::vector<XmlDocument> corpus;
  corpus.push_back(MustParse(TinyCdaXml(), 0));
  IndexBuildOptions build;
  build.strategy = Strategy::kRelationships;
  build.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
  XOntoRank engine(std::move(corpus), onto, build);
  KeywordQuery query = ParseQuery("bronchus theophylline");
  SearchOptions options;
  options.top_k = 10;
  options.use_cache = false;

  SearchResponse first = engine.Search(query, options);
  EXPECT_FALSE(first.results.empty());
  EXPECT_EQ(first.stats.lists_built, 2u);
  EXPECT_GT(first.stats.resolve_micros, 0.0);
  EXPECT_GE(first.stats.merge_micros, 0.0);
  EXPECT_LE(first.stats.resolve_micros + first.stats.merge_micros,
            first.stats.wall_micros);

  SearchResponse repeat = engine.Search(query, options);
  EXPECT_EQ(repeat.stats.lists_built, 0u);
  EXPECT_LE(repeat.stats.resolve_micros + repeat.stats.merge_micros,
            repeat.stats.wall_micros);
  ExpectSameResults(first.results, repeat.results);

  options.use_cache = true;
  engine.Search(query, options);
  SearchResponse hit = engine.Search(query, options);
  ASSERT_TRUE(hit.stats.cache_hit);
  EXPECT_EQ(hit.stats.lists_built, 0u);
  EXPECT_EQ(hit.stats.resolve_micros, 0.0);
  EXPECT_EQ(hit.stats.merge_micros, 0.0);
}

TEST_F(SearchApiFixture, PrecomputedVocabularyBuildsNoLists) {
  SearchOptions options;
  options.use_cache = false;
  SearchResponse response =
      engine_->Search(ParseQuery("bronchus theophylline"), options);
  EXPECT_FALSE(response.results.empty());
  EXPECT_EQ(response.stats.lists_built, 0u);
}

TEST(SearchApiCacheDisabledTest, ZeroCapacityNeverHits) {
  Ontology onto = BuildTinyOntology();
  std::vector<XmlDocument> corpus;
  corpus.push_back(MustParse(TinyCdaXml(), 0));
  IndexBuildOptions options;
  options.strategy = Strategy::kRelationships;
  options.query_cache_entries = 0;
  XOntoRank engine(std::move(corpus), onto, options);
  KeywordQuery query = ParseQuery("theophylline");
  engine.Search(query, SearchOptions{});
  EXPECT_FALSE(engine.Search(query, SearchOptions{}).stats.cache_hit);
}

}  // namespace
}  // namespace xontorank
