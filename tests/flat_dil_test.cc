// The flat serving representation: freeze/read-back losslessness, skip-table
// seeks at block boundaries, and the property that the cursor merge is
// bit-identical to the reference evaluator of Eq. 1-4 for every shard
// count.

#include "core/flat_dil.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/query_processor.h"
#include "gtest/gtest.h"
#include "tests/reference_eval.h"
#include "tests/test_util.h"

namespace xontorank {
namespace {

using reference::FreezeLists;
using reference::Lists;
using reference::Posting;
using reference::ReadList;
using reference::ReadLists;

Posting P(std::vector<uint32_t> comps, double score) {
  return {DeweyId(std::move(comps)), score};
}

// A randomized Dewey-sorted index: `num_keywords` lists of up to
// `max_postings` postings each, depth 1..5, scores in (0, 1].
Lists RandomDil(Rng& rng, size_t num_keywords, size_t max_postings) {
  Lists dil;
  for (size_t w = 0; w < num_keywords; ++w) {
    std::vector<Posting> postings;
    std::set<std::vector<uint32_t>> used;
    size_t n = 1 + rng.NextBelow(max_postings);
    for (size_t i = 0; i < n; ++i) {
      std::vector<uint32_t> comps{static_cast<uint32_t>(rng.NextBelow(24))};
      size_t depth = rng.NextBelow(5);
      for (size_t d = 0; d < depth; ++d) {
        comps.push_back(static_cast<uint32_t>(rng.NextBelow(4)));
      }
      if (!used.insert(comps).second) continue;
      postings.push_back(P(comps, 0.05 + 0.95 * rng.NextDouble()));
    }
    std::sort(postings.begin(), postings.end(),
              [](const Posting& a, const Posting& b) {
                return a.dewey < b.dewey;
              });
    dil["kw" + std::to_string(w)] = std::move(postings);
  }
  return dil;
}

// A single list of `n` postings spread over documents 0..n/3 (several
// postings per document) so lists span multiple 128-posting blocks.
std::vector<Posting> DeepList(size_t n) {
  std::vector<Posting> postings;
  for (uint32_t i = 0; i < n; ++i) {
    postings.push_back(P({i / 3, i % 3, 7}, 0.25 + 0.5 * ((i % 11) / 11.0)));
  }
  return postings;
}

Lists DeepDil(size_t n) { return {{"deep", DeepList(n)}}; }

void ExpectDilEqual(const Lists& a, const Lists& b) {
  ASSERT_EQ(a.size(), b.size());
  auto ai = a.begin();
  auto bi = b.begin();
  for (; ai != a.end(); ++ai, ++bi) {
    EXPECT_EQ(ai->first, bi->first);
    ASSERT_EQ(ai->second.size(), bi->second.size()) << ai->first;
    for (size_t i = 0; i < ai->second.size(); ++i) {
      EXPECT_EQ(ai->second[i].dewey, bi->second[i].dewey);
      EXPECT_EQ(ai->second[i].score, bi->second[i].score)
          << ai->first << " posting " << i;
    }
  }
}

// ---- Freeze / read back ----

TEST(FlatDilTest, FreezeThawIsLossless) {
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    Lists dil = RandomDil(rng, 1 + rng.NextBelow(5), 80);
    FlatDil flat = FreezeLists(dil);
    EXPECT_EQ(flat.keyword_count(), dil.size());
    size_t postings = 0;
    for (const auto& [keyword, list] : dil) postings += list.size();
    EXPECT_EQ(flat.total_postings(), postings);
    // Reading back yields the exact lists, full-double scores included.
    ExpectDilEqual(dil, ReadLists(flat));
  }
}

TEST(FlatDilTest, FreezeSortsEachListByDewey) {
  FlatDil flat = FreezeLists(
      {{"zeta", {}},
       {"asthma", {P({1, 2}, 0.5), P({0, 1}, 0.9), P({1}, 0.3)}}});
  ASSERT_EQ(flat.keyword_count(), 2u);
  EXPECT_EQ(flat.KeywordAt(0), "asthma");
  std::vector<Posting> postings = ReadList(flat, 0);
  ASSERT_EQ(postings.size(), 3u);
  EXPECT_EQ(postings[0].dewey.ToString(), "0.1");
  EXPECT_EQ(postings[1].dewey.ToString(), "1");
  EXPECT_EQ(postings[2].dewey.ToString(), "1.2");
  EXPECT_EQ(postings[0].score, 0.9);
  EXPECT_EQ(flat.ListSize(1), 0u);
}

TEST(FlatDilTest, FreezeEmptyIndex) {
  FlatDil flat = FreezeLists({});
  EXPECT_EQ(flat.keyword_count(), 0u);
  EXPECT_EQ(flat.total_postings(), 0u);
  EXPECT_EQ(flat.FindList("anything"), FlatDil::kNoList);
}

// ---- Builder: the ordering check and the presized columns ----

/// A one-list builder whose shape fits `ids` (measured as the callers do).
struct OneListBuild {
  explicit OneListBuild(const std::vector<std::vector<uint32_t>>& ids) {
    shape.keyword = "kw";
    for (size_t i = 0; i < ids.size(); ++i) {
      shape.Add(i == 0 ? DeweyRef() : DeweyRef(ids[i - 1].data(),
                                                ids[i - 1].size()),
                DeweyRef(ids[i].data(), ids[i].size()));
    }
  }
  FlatDil::Builder::ListShape shape;
};

/// Adds `next` after `first` to a list with room for both; the result of
/// the second AddPosting.
bool AcceptsAfter(std::vector<uint32_t> first, std::vector<uint32_t> next) {
  OneListBuild measured({first, first});
  measured.shape.arena_words += next.size();  // room for any second id
  FlatDil::Builder builder(std::span(&measured.shape, 1));
  FlatDil::Builder::ListWriter writer = builder.List(0);
  EXPECT_TRUE(writer.AddPosting(first, 0.5));
  return writer.AddPosting(next, 0.5);
}

TEST(FlatDilBuilderTest, RejectsADecreasingId) {
  EXPECT_FALSE(AcceptsAfter({1, 3}, {1, 2}));        // smaller sibling
  EXPECT_FALSE(AcceptsAfter({2, 0}, {1, 9, 9}));     // earlier document
  EXPECT_FALSE(AcceptsAfter({1, 2, 5}, {1, 2}));     // ancestor after its
                                                     // descendant
  EXPECT_FALSE(AcceptsAfter({1, 2, 5, 7}, {1}));     // the document root
  EXPECT_FALSE(AcceptsAfter({1, 2, 5}, {1, 2, 4, 9}));  // deeper but earlier
}

TEST(FlatDilBuilderTest, AcceptsANonDecreasingId) {
  EXPECT_TRUE(AcceptsAfter({1, 2}, {1, 2}));         // equal
  EXPECT_TRUE(AcceptsAfter({1, 2}, {1, 2, 0}));      // first child
  EXPECT_TRUE(AcceptsAfter({1, 2, 5, 7}, {1, 3}));   // shorter but later
  EXPECT_TRUE(AcceptsAfter({1, 2}, {1, 3, 0, 0}));   // later and deeper
  EXPECT_TRUE(AcceptsAfter({1, 9, 9}, {2}));         // next document
}

TEST(FlatDilBuilderTest, RejectedPostingLeavesTheListIntact) {
  // Past a rejection, the writer still holds the last accepted id: the
  // check is against it, and the list decodes to the accepted postings.
  const std::vector<std::vector<uint32_t>> accepted = {
      {4, 1}, {4, 1, 2}, {4, 1, 2, 3}, {4, 2}, {5}};
  OneListBuild measured(accepted);
  FlatDil::Builder builder(std::span(&measured.shape, 1));
  FlatDil::Builder::ListWriter writer = builder.List(0);
  const std::vector<uint32_t> ancestor = {4, 1};
  const std::vector<uint32_t> later_document = {6};
  const std::vector<double> scores = {0.1, 0.2, 0.3, 0.4, 0.5};
  ASSERT_TRUE(writer.AddPosting(accepted[0], scores[0]));
  ASSERT_TRUE(writer.AddPosting(accepted[1], scores[1]));
  EXPECT_FALSE(writer.AddPosting(ancestor, 0.9));  // of the last posting
  ASSERT_TRUE(writer.AddPosting(accepted[2], scores[2]));
  EXPECT_FALSE(writer.AddPosting(accepted[1], 0.9));
  EXPECT_FALSE(writer.AddPosting({}, 0.9));  // empty id
  ASSERT_TRUE(writer.AddPosting(accepted[3], scores[3]));
  ASSERT_TRUE(writer.AddPosting(accepted[4], scores[4]));
  EXPECT_FALSE(writer.AddPosting(later_document, 0.9));  // the list is full
  FlatDil flat = std::move(builder).Finish();
  std::vector<Posting> thawed = ReadList(flat, 0);
  ASSERT_EQ(thawed.size(), accepted.size());
  for (size_t i = 0; i < accepted.size(); ++i) {
    EXPECT_EQ(thawed[i].dewey, DeweyId(accepted[i])) << i;
    EXPECT_EQ(thawed[i].score, scores[i]) << i;
  }
}

TEST(FlatDilBuilderTest, ListsWrittenInAnyOrderMatchFreeze) {
  // Every list owns its slice of the columns, so writing the lists last
  // to first (or from several threads) builds the same columns as a
  // freeze in list order.
  Rng rng(29);
  Lists dil = RandomDil(rng, 6, 300);
  dil["deep"] = DeepList(700);
  FlatDil frozen = FreezeLists(dil);
  std::vector<FlatDil::Builder::ListShape> shapes;
  for (const auto& [keyword, postings] : dil) {
    FlatDil::Builder::ListShape& shape = shapes.emplace_back();
    shape.keyword = keyword;
    for (size_t i = 0; i < postings.size(); ++i) {
      shape.Add(i == 0 ? DeweyRef() : DeweyRef(postings[i - 1].dewey),
                DeweyRef(postings[i].dewey));
    }
  }
  FlatDil::Builder builder(shapes);
  std::vector<const std::vector<Posting>*> entries;
  for (const auto& [keyword, postings] : dil) entries.push_back(&postings);
  ThreadPool pool(3);
  pool.ParallelFor(entries.size(), [&](size_t i) {
    const size_t list = entries.size() - 1 - i;
    FlatDil::Builder::ListWriter writer = builder.List(list);
    for (const Posting& posting : *entries[list]) {
      ASSERT_TRUE(writer.AddPosting(posting.dewey.components(), posting.score));
    }
  });
  FlatDil built = std::move(builder).Finish();
  const FlatDil::Sections& a = frozen.sections();
  const FlatDil::Sections& b = built.sections();
  EXPECT_EQ(a.keyword_arena, b.keyword_arena);
  EXPECT_TRUE(std::ranges::equal(a.list_begin, b.list_begin));
  EXPECT_TRUE(std::ranges::equal(a.scores, b.scores));
  EXPECT_TRUE(std::ranges::equal(a.shared, b.shared));
  EXPECT_TRUE(std::ranges::equal(a.suffix_offsets, b.suffix_offsets));
  EXPECT_TRUE(std::ranges::equal(a.dewey_arena, b.dewey_arena));
  EXPECT_TRUE(std::ranges::equal(a.skip_first_doc, b.skip_first_doc));
  EXPECT_TRUE(std::ranges::equal(a.skip_begin, b.skip_begin));
  EXPECT_TRUE(std::ranges::equal(a.block_max, b.block_max));
  ExpectDilEqual(dil, ReadLists(built));
}

TEST(FlatDilTest, FindListMatchesDictionary) {
  Rng rng(23);
  Lists dil = RandomDil(rng, 7, 20);
  FlatDil flat = FreezeLists(dil);
  for (const auto& [keyword, postings] : dil) {
    uint32_t list = flat.FindList(keyword);
    ASSERT_NE(list, FlatDil::kNoList) << keyword;
    EXPECT_EQ(flat.KeywordAt(list), keyword);
    EXPECT_EQ(flat.ListSize(list), postings.size());
  }
  EXPECT_EQ(flat.FindList("kw"), FlatDil::kNoList);    // prefix of kw0
  EXPECT_EQ(flat.FindList("zzzz"), FlatDil::kNoList);  // past the end
}

TEST(FlatDilTest, MemoryBytesCountsColumns) {
  FlatDil flat = FreezeLists(DeepDil(1000));
  // Columns alone: scores (8B) + shared (2B) + suffix offset (4B) per
  // posting, plus the arena. MemoryBytes must cover at least that and the
  // arena must be far smaller than un-elided components.
  size_t floor = flat.total_postings() * (8 + 2 + 4) + flat.ArenaBytes();
  EXPECT_GE(flat.MemoryBytes(), floor);
  // Prefix elision keeps the arena below the un-elided component total
  // (DeepDil shares the leading doc component within each document).
  EXPECT_LT(flat.ArenaBytes(), 1000 * 3 * sizeof(uint32_t));
}

// ---- Skip table & PostingRange ----

// The reference: count postings whose doc id falls in [begin, end).
size_t ReferenceCount(const std::vector<Posting>& postings,
                      const DocRange& range) {
  return std::count_if(postings.begin(), postings.end(),
                       [&range](const Posting& p) {
                         return p.dewey.doc_id() >= range.begin_doc &&
                                p.dewey.doc_id() < range.end_doc;
                       });
}

TEST(FlatDilTest, PostingRangeMatchesNaiveCountExhaustively) {
  // 1000 postings over ~334 documents => 8 blocks; sweep every boundary.
  const std::vector<Posting> postings = DeepList(1000);
  FlatDil flat = FreezeLists({{"deep", postings}});
  uint32_t list = flat.FindList("deep");
  ASSERT_NE(list, FlatDil::kNoList);
  EXPECT_GE(flat.BlockCount(list), 7u);
  for (uint32_t begin = 0; begin <= 340; begin += 3) {
    for (uint32_t len : {0u, 1u, 2u, 40u, 127u, 128u, 129u, 340u}) {
      DocRange range{begin, begin + len};
      auto [lo, hi] = flat.PostingRange(list, range);
      EXPECT_EQ(hi - lo, ReferenceCount(postings, range))
          << "range [" << begin << ", " << begin + len << ")";
      // The cursor over the same range visits exactly those postings.
      DilCursor cursor = flat.OpenCursor(list, range);
      size_t visited = 0;
      for (; !cursor.AtEnd(); cursor.Next()) {
        EXPECT_GE(cursor.dewey().doc_id(), range.begin_doc);
        EXPECT_LT(cursor.dewey().doc_id(), range.end_doc);
        ++visited;
      }
      EXPECT_EQ(visited, hi - lo);
    }
  }
}

TEST(FlatDilTest, SeekAtExactBlockBoundary) {
  // Documents 0..999, one posting each: posting p == doc p, so block
  // restarts land exactly on documents 128, 256, ...
  std::vector<Posting> postings;
  for (uint32_t d = 0; d < 1000; ++d) postings.push_back(P({d, 0}, 0.5));
  FlatDil flat = FreezeLists({{"w", std::move(postings)}});
  uint32_t list = flat.FindList("w");
  ASSERT_EQ(flat.BlockCount(list), 8u);  // ceil(1000 / 128)
  for (uint32_t doc : {0u, 127u, 128u, 129u, 255u, 256u, 895u, 896u, 999u}) {
    auto [lo, hi] = flat.PostingRange(list, DocRange{doc, doc + 1});
    EXPECT_EQ(lo, doc) << doc;
    EXPECT_EQ(hi, doc + 1) << doc;
    DilCursor cursor = flat.OpenCursor(list, DocRange{doc, doc + 1});
    ASSERT_FALSE(cursor.AtEnd());
    EXPECT_EQ(cursor.dewey().doc_id(), doc);
    cursor.Next();
    EXPECT_TRUE(cursor.AtEnd());
  }
}

TEST(FlatDilTest, SeekInLastPartialBlock) {
  std::vector<Posting> postings;
  for (uint32_t d = 0; d < 130; ++d) postings.push_back(P({d, 1}, 0.5));
  FlatDil flat = FreezeLists({{"w", std::move(postings)}});
  uint32_t list = flat.FindList("w");
  EXPECT_EQ(flat.BlockCount(list), 2u);
  auto [lo, hi] = flat.PostingRange(list, DocRange{129, 200});
  EXPECT_EQ(lo, 129u);
  EXPECT_EQ(hi, 130u);
}

TEST(FlatDilTest, SingleDocumentList) {
  FlatDil flat =
      FreezeLists({{"w", {P({7, 0}, 0.5), P({7, 1}, 0.6), P({7, 2}, 0.7)}}});
  uint32_t list = flat.FindList("w");
  auto [lo, hi] = flat.PostingRange(list, DocRange{7, 8});
  EXPECT_EQ(hi - lo, 3u);
  EXPECT_TRUE(flat.OpenCursor(list, DocRange{0, 7}).AtEnd());
  EXPECT_TRUE(flat.OpenCursor(list, DocRange{8, 100}).AtEnd());
}

TEST(FlatDilTest, EmptyRangeYieldsExhaustedCursor) {
  FlatDil flat = FreezeLists(DeepDil(300));
  uint32_t list = flat.FindList("deep");
  auto [lo, hi] = flat.PostingRange(list, DocRange{50, 50});
  EXPECT_EQ(lo, hi);
  EXPECT_TRUE(flat.OpenCursor(list, DocRange{50, 50}).AtEnd());
  EXPECT_TRUE(flat.OpenCursor(list, DocRange{0, 0}).AtEnd());
}

TEST(FlatDilTest, CollectDocIdsMatchesThaw) {
  Rng rng(65537);
  FlatDil flat = FreezeLists(RandomDil(rng, 3, 300));
  for (uint32_t list = 0; list < flat.keyword_count(); ++list) {
    std::vector<uint32_t> docs;
    flat.CollectDocIds(list, &docs);
    std::vector<Posting> thawed = ReadList(flat, list);
    ASSERT_EQ(docs.size(), thawed.size());
    for (size_t i = 0; i < docs.size(); ++i) {
      EXPECT_EQ(docs[i], thawed[i].dewey.doc_id());
    }
  }
}

// ---- Cursor merge vs the reference evaluator, bit for bit ----

class FlatParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlatParityTest, CursorExecuteMatchesReferenceBitForBit) {
  Rng rng(GetParam());
  ThreadPool pool(4);
  for (int trial = 0; trial < 15; ++trial) {
    Lists dil = RandomDil(rng, 1 + rng.NextBelow(3), 60);
    FlatDil flat = FreezeLists(dil);
    ScoreOptions score;
    score.decay = 0.25 + 0.5 * rng.NextDouble();
    QueryProcessor processor(score);

    std::vector<std::vector<Posting>> lists;
    std::vector<DilListRef> refs;
    for (const auto& [keyword, postings] : dil) {
      lists.push_back(postings);
      uint32_t list = flat.FindList(keyword);
      ASSERT_NE(list, FlatDil::kNoList);
      refs.push_back(DilListRef::OverFlat(flat, list));
    }

    size_t top_k = rng.NextBelow(2) == 0 ? 0 : 1 + rng.NextBelow(10);
    auto expected = reference::EvaluateLists(lists, score.decay, top_k);
    for (size_t num_shards : {1u, 2u, 4u, 8u}) {
      testing_util::ExpectSameResults(
          processor.ExecuteSegments({refs}, top_k, num_shards, &pool),
          expected,
          "shards=" + std::to_string(num_shards) +
              " trial=" + std::to_string(trial));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatParityTest,
                         ::testing::Values(7, 41, 1009, 65537));

}  // namespace
}  // namespace xontorank
