// Sharded parallel execution: the document-range partitioner and the
// property that ExecuteSegments is bit-identical to the serial merge and
// to the reference evaluator for every shard count (the DIL stack never
// spans two documents, so a doc-granular partition only redistributes
// work).

#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/flat_dil.h"
#include "core/query_processor.h"
#include "gtest/gtest.h"
#include "tests/reference_eval.h"
#include "tests/test_util.h"

namespace xontorank {
namespace {

using reference::Posting;
using testing_util::ExpectSameResults;

Posting P(std::vector<uint32_t> comps, double score) {
  return {DeweyId(std::move(comps)), score};
}

/// One frozen list per keyword ("kw0", "kw1", ...) and refs to them in
/// keyword order.
struct Lists {
  explicit Lists(const std::vector<std::vector<Posting>>& postings)
      : postings(postings) {
    reference::Lists dil;
    for (size_t w = 0; w < postings.size(); ++w) dil[Key(w)] = postings[w];
    flat = reference::FreezeLists(dil);
    for (size_t w = 0; w < postings.size(); ++w) {
      refs.push_back(DilListRef::OverFlat(flat, flat.FindList(Key(w))));
    }
  }

  static std::string Key(size_t w) { return "kw" + std::to_string(w); }

  std::vector<std::vector<Posting>> postings;
  FlatDil flat;
  std::vector<DilListRef> refs;
};

/// `n` random postings with unique Dewey ids over `docs` documents.
std::vector<Posting> RandomPostings(Rng& rng, size_t n, uint32_t docs,
                                    size_t max_depth) {
  std::vector<Posting> postings;
  std::set<std::vector<uint32_t>> used;
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint32_t> comps{static_cast<uint32_t>(rng.NextBelow(docs))};
    size_t depth = rng.NextBelow(max_depth);
    for (size_t d = 0; d < depth; ++d) {
      comps.push_back(static_cast<uint32_t>(rng.NextBelow(3)));
    }
    if (!used.insert(comps).second) continue;
    postings.push_back(P(comps, 0.1 + 0.9 * rng.NextDouble()));
  }
  return postings;
}

// ---- PartitionListsByDocument ----

TEST(PartitionTest, EmptyInputYieldsOneEmptyRange) {
  auto ranges = PartitionListsByDocument(std::vector<DilListRef>{}, 4);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_TRUE(ranges[0].empty());
}

TEST(PartitionTest, SingleShardCoversEverything) {
  Lists lists({{P({0, 1}, 1.0), P({5, 0}, 0.5)}});
  auto ranges = PartitionListsByDocument(lists.refs, 1);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].begin_doc, 0u);
  EXPECT_EQ(ranges[0].end_doc, 6u);
}

TEST(PartitionTest, SingleDocumentCannotBeSplit) {
  Lists lists({{P({3, 0}, 1.0), P({3, 1}, 1.0), P({3, 2}, 1.0)}});
  auto ranges = PartitionListsByDocument(lists.refs, 8);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].begin_doc, 3u);
  EXPECT_EQ(ranges[0].end_doc, 4u);
}

TEST(PartitionTest, RangesAreDisjointCoveringAndNonEmpty) {
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::vector<Posting>> postings;
    size_t num_lists = 1 + rng.NextBelow(3);
    for (size_t w = 0; w < num_lists; ++w) {
      postings.push_back(RandomPostings(rng, 1 + rng.NextBelow(40), 12, 3));
    }
    Lists lists(postings);
    size_t max_shards = 1 + rng.NextBelow(8);
    auto ranges = PartitionListsByDocument(lists.refs, max_shards);
    ASSERT_FALSE(ranges.empty());
    EXPECT_LE(ranges.size(), max_shards);
    for (size_t i = 0; i < ranges.size(); ++i) {
      EXPECT_LT(ranges[i].begin_doc, ranges[i].end_doc) << "trial " << trial;
      if (i > 0) {
        EXPECT_EQ(ranges[i].begin_doc, ranges[i - 1].end_doc);
      }
    }
    // Every posting of every list lands in exactly one range.
    for (const DilListRef& ref : lists.refs) {
      size_t covered = 0;
      for (const DocRange& r : ranges) {
        auto [lo, hi] = ref.flat->PostingRange(ref.list, r);
        covered += hi - lo;
      }
      EXPECT_EQ(covered, ref.size()) << "trial " << trial;
    }
  }
}

// ---- Parallel == serial == reference (bit-identical, randomized) ----

class ParallelParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelParityTest, ShardedMatchesSerialBitForBit) {
  Rng rng(GetParam());
  ThreadPool pool(4);
  for (int trial = 0; trial < 25; ++trial) {
    // Randomized corpus: up to 16 documents, 1-3 keywords, varied depth.
    size_t num_keywords = 1 + rng.NextBelow(3);
    std::vector<std::vector<Posting>> postings;
    for (size_t w = 0; w < num_keywords; ++w) {
      postings.push_back(RandomPostings(rng, 1 + rng.NextBelow(60), 16, 5));
      if (postings.back().empty()) postings.back().push_back(P({0}, 0.5));
    }
    Lists lists(postings);
    ScoreOptions score;
    score.decay = 0.25 + 0.5 * rng.NextDouble();
    QueryProcessor processor(score);
    size_t top_k = rng.NextBelow(2) == 0 ? 0 : 1 + rng.NextBelow(10);
    auto serial = processor.ExecuteSegments({lists.refs}, top_k, 1, nullptr);
    ExpectSameResults(serial,
                      reference::EvaluateLists(postings, score.decay, top_k),
                      "serial trial=" + std::to_string(trial));
    for (size_t num_shards : {2u, 4u, 8u}) {
      ExecuteStats stats;
      auto sharded = processor.ExecuteSegments({lists.refs}, top_k,
                                               num_shards, &pool, &stats);
      ExpectSameResults(sharded, serial,
                        "shards=" + std::to_string(num_shards) +
                            " trial=" + std::to_string(trial));
      EXPECT_LE(stats.shards, num_shards);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelParityTest,
                         ::testing::Values(7, 41, 1009, 65537));

TEST(ExecuteSegmentsTest, NullPoolFallsBackToSerial) {
  Lists lists({{P({0, 0}, 1.0), P({1, 0}, 0.8), P({2, 0}, 0.6)}});
  QueryProcessor processor((ScoreOptions()));
  ExecuteStats stats;
  auto results =
      processor.ExecuteSegments({lists.refs}, 0, 4, nullptr, &stats);
  ExpectSameResults(results, reference::EvaluateLists(
                                 lists.postings, ScoreOptions().decay, 0));
  EXPECT_EQ(stats.shards, 1u);
  EXPECT_EQ(stats.postings_scanned, 3u);
}

TEST(ExecuteSegmentsTest, EmptyListShortCircuitsConjunction) {
  Lists lists({{P({0, 0}, 1.0)}, {}});
  QueryProcessor processor((ScoreOptions()));
  ThreadPool pool(2);
  ExecuteStats stats;
  auto results =
      processor.ExecuteSegments({lists.refs}, 0, 4, &pool, &stats);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(stats.postings_scanned, 0u);
}

}  // namespace
}  // namespace xontorank
