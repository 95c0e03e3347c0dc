// The cursor merge (XRANK's DIL algorithm) on hand-built lists with known
// answers, and on random lists against the reference evaluator of
// Eq. 1-4: every run here is also checked bit for bit against
// reference::EvaluateLists.

#include "core/query_processor.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "common/random.h"
#include "core/flat_dil.h"
#include "gtest/gtest.h"
#include "tests/reference_eval.h"
#include "tests/test_util.h"

namespace xontorank {
namespace {

constexpr double kEps = 1e-9;

using reference::Posting;
/// One keyword's postings, in any order (freezing sorts them).
using List = std::vector<Posting>;

Posting P(std::vector<uint32_t> comps, double score) {
  return {DeweyId(std::move(comps)), score};
}

/// Freezes one list per keyword, runs the cursor merge over them, and
/// checks the answer against the reference evaluator before returning it.
std::vector<QueryResult> RunQuery(const std::vector<List>& lists,
                                  size_t top_k = 0, double decay = 0.5) {
  reference::Lists dil;
  for (size_t w = 0; w < lists.size(); ++w) {
    dil["kw" + std::to_string(w)] = lists[w];
  }
  FlatDil flat = reference::FreezeLists(dil);
  std::vector<DilCursor> cursors;
  for (size_t w = 0; w < lists.size(); ++w) {
    cursors.push_back(flat.OpenCursor(flat.FindList("kw" + std::to_string(w))));
  }
  ScoreOptions options;
  options.decay = decay;
  std::vector<QueryResult> results =
      QueryProcessor(options).Execute(std::move(cursors), top_k);
  testing_util::ExpectSameResults(
      results, reference::EvaluateLists(lists, decay, top_k), "reference");
  return results;
}

TEST(QueryProcessorTest, SingleKeywordReturnsPostingNodes) {
  List a = {P({0, 1}, 0.8), P({0, 2}, 0.4)};
  auto results = RunQuery({a});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].element.ToString(), "0.1");
  EXPECT_NEAR(results[0].score, 0.8, kEps);
  EXPECT_EQ(results[1].element.ToString(), "0.2");
}

TEST(QueryProcessorTest, ConjunctionRequiresAllKeywords) {
  // Keyword A in doc 0 only, keyword B in doc 1 only: no common subtree.
  List a = {P({0, 1}, 1.0)};
  List b = {P({1, 1}, 1.0)};
  EXPECT_TRUE(RunQuery({a, b}).empty());
}

TEST(QueryProcessorTest, LcaBecomesResultWithDecayedScores) {
  // A at 0.0.0, B at 0.0.1 → result is 0.0 with each score decayed once.
  List a = {P({0, 0, 0}, 1.0)};
  List b = {P({0, 0, 1}, 0.6)};
  auto results = RunQuery({a, b});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].element.ToString(), "0.0");
  ASSERT_EQ(results[0].keyword_scores.size(), 2u);
  EXPECT_NEAR(results[0].keyword_scores[0], 0.5, kEps);
  EXPECT_NEAR(results[0].keyword_scores[1], 0.3, kEps);
  EXPECT_NEAR(results[0].score, 0.8, kEps);
}

TEST(QueryProcessorTest, MinimalityExcludesAncestors) {
  // Both keywords inside 0.0.1 AND spread across 0.0: only the deep node
  // (which already has all keywords) is returned; 0.0 is not (Eq. 1).
  List a = {P({0, 0, 1}, 1.0), P({0, 0, 0}, 0.2)};
  List b = {P({0, 0, 1}, 0.9)};
  auto results = RunQuery({a, b});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].element.ToString(), "0.0.1");
  EXPECT_NEAR(results[0].score, 1.9, kEps);
}

TEST(QueryProcessorTest, SameNodeCarriesBothKeywords) {
  List a = {P({0, 3}, 0.7)};
  List b = {P({0, 3}, 0.2)};
  auto results = RunQuery({a, b});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].element.ToString(), "0.3");
  EXPECT_NEAR(results[0].score, 0.9, kEps);
}

TEST(QueryProcessorTest, MultipleResultsAcrossDocuments) {
  List a = {P({0, 0}, 1.0), P({2, 0}, 0.5)};
  List b = {P({0, 1}, 1.0), P({2, 1}, 1.0)};
  auto results = RunQuery({a, b});
  ASSERT_EQ(results.size(), 2u);
  // Doc 0 root scores 0.5+0.5=1.0; doc 2 root scores 0.25+0.5=0.75.
  EXPECT_EQ(results[0].element.ToString(), "0");
  EXPECT_NEAR(results[0].score, 1.0, kEps);
  EXPECT_EQ(results[1].element.ToString(), "2");
  EXPECT_NEAR(results[1].score, 0.75, kEps);
}

TEST(QueryProcessorTest, SiblingSubtreesProduceSeparateResults) {
  // Two independent sections of one document each contain both keywords.
  List a = {P({0, 0, 0}, 1.0), P({0, 1, 0}, 0.8)};
  List b = {P({0, 0, 1}, 1.0), P({0, 1, 1}, 0.8)};
  auto results = RunQuery({a, b});
  ASSERT_EQ(results.size(), 2u);
  std::set<std::string> elems{results[0].element.ToString(),
                              results[1].element.ToString()};
  EXPECT_TRUE(elems.count("0.0"));
  EXPECT_TRUE(elems.count("0.1"));
}

TEST(QueryProcessorTest, DeepPropagationUsesDecayPower) {
  List a = {P({0, 0, 0, 0, 0}, 1.0)};
  List b = {P({0, 1}, 1.0)};
  auto results = RunQuery({a, b});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].element.ToString(), "0");
  // Keyword a travels 4 containment edges: 0.5^4; b travels 1: 0.5.
  EXPECT_NEAR(results[0].keyword_scores[0], std::pow(0.5, 4), kEps);
  EXPECT_NEAR(results[0].keyword_scores[1], 0.5, kEps);
}

TEST(QueryProcessorTest, MaxCombinesMultipleWitnesses) {
  // Keyword a occurs twice below the LCA; Eq. 3 takes the max decayed one.
  List a = {P({0, 0, 0}, 1.0), P({0, 0, 1, 0}, 1.0)};
  List b = {P({0, 1}, 1.0)};
  auto results = RunQuery({a, b});
  ASSERT_EQ(results.size(), 1u);
  // From 0.0.0: 0.5^2 = 0.25; from 0.0.1.0: 0.5^3 = 0.125 → max 0.25.
  EXPECT_NEAR(results[0].keyword_scores[0], 0.25, kEps);
}

TEST(QueryProcessorTest, TopKOrdersByScoreDescending) {
  List a = {P({0, 0}, 0.3), P({1, 0}, 0.9), P({2, 0}, 0.6)};
  auto results = RunQuery({a}, 2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].element.ToString(), "1.0");
  EXPECT_EQ(results[1].element.ToString(), "2.0");
}

TEST(QueryProcessorTest, TiesBrokenByDeweyOrder) {
  List a = {P({3, 0}, 0.5), P({1, 0}, 0.5), P({2, 0}, 0.5)};
  auto results = RunQuery({a});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].element.ToString(), "1.0");
  EXPECT_EQ(results[1].element.ToString(), "2.0");
  EXPECT_EQ(results[2].element.ToString(), "3.0");
}

TEST(QueryProcessorTest, EmptyOrNullListsShortCircuit) {
  List a = {P({0, 0}, 1.0)};
  List empty = {};
  EXPECT_TRUE(RunQuery({a, empty}).empty());
  // A default cursor is an exhausted list: the keyword matches nothing.
  FlatDil flat = reference::FreezeLists({{"a", a}});
  QueryProcessor processor((ScoreOptions()));
  std::vector<DilCursor> with_null;
  with_null.push_back(flat.OpenCursor(flat.FindList("a")));
  with_null.emplace_back();
  EXPECT_TRUE(processor.Execute(std::move(with_null), 0).empty());
  EXPECT_TRUE(processor.Execute(std::vector<DilCursor>{}, 0).empty());
}

TEST(QueryProcessorTest, ResultsFormAntichain) {
  List a = {P({0, 0, 0}, 1.0), P({0, 0}, 0.1), P({0}, 0.1)};
  List b = {P({0, 0, 0}, 1.0), P({0, 1}, 1.0)};
  auto results = RunQuery({a, b});
  for (size_t i = 0; i < results.size(); ++i) {
    for (size_t j = 0; j < results.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(results[i].element.IsStrictAncestorOf(results[j].element));
    }
  }
}

// ---- Reference comparison (randomized property) ----

class QueryProcessorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryProcessorPropertyTest, MatchesBruteForceOnRandomInputs) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    size_t num_keywords = 1 + rng.NextBelow(3);
    std::vector<List> entries;
    for (size_t w = 0; w < num_keywords; ++w) {
      List postings;
      size_t n = 1 + rng.NextBelow(12);
      std::set<std::vector<uint32_t>> used;
      for (size_t i = 0; i < n; ++i) {
        std::vector<uint32_t> comps{static_cast<uint32_t>(rng.NextBelow(3))};
        size_t depth = rng.NextBelow(5);
        for (size_t d = 0; d < depth; ++d) {
          comps.push_back(static_cast<uint32_t>(rng.NextBelow(3)));
        }
        if (!used.insert(comps).second) continue;  // unique deweys per list
        postings.push_back(P(comps, 0.1 + 0.9 * rng.NextDouble()));
      }
      if (postings.empty()) postings.push_back(P({0}, 0.5));
      entries.push_back(std::move(postings));
    }
    double decay = 0.25 + 0.5 * rng.NextDouble();
    size_t top_k = rng.NextBelow(2) == 0 ? 0 : 1 + rng.NextBelow(10);
    SCOPED_TRACE("trial " + std::to_string(trial));
    RunQuery(entries, top_k, decay);  // checks against the reference
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryProcessorPropertyTest,
                         ::testing::Values(11, 29, 101, 4321, 87654));

}  // namespace
}  // namespace xontorank
