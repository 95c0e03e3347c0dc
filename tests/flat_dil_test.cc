// The flat serving representation: Freeze/Thaw losslessness, skip-table
// seeks at block boundaries, and the property that the cursor
// merge is bit-identical to the legacy posting-struct merge for every
// shard count.

#include "core/flat_dil.h"

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/query_processor.h"
#include "core/ranked_query_processor.h"
#include "core/xonto_dil.h"
#include "gtest/gtest.h"

namespace xontorank {
namespace {

DilPosting P(std::vector<uint32_t> comps, double score) {
  return {DeweyId(std::move(comps)), score};
}

// A randomized Dewey-sorted index: `num_keywords` lists of up to
// `max_postings` postings each, depth 1..5, scores in (0, 1].
XOntoDil RandomDil(Rng& rng, size_t num_keywords, size_t max_postings) {
  XOntoDil dil;
  for (size_t w = 0; w < num_keywords; ++w) {
    std::vector<DilPosting> postings;
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
    dil.Put("kw" + std::to_string(w), std::move(postings));
  }
  return dil;
}

// A single list of `n` postings spread over documents 0..n/3 (several
// postings per document) so lists span multiple 128-posting blocks.
XOntoDil DeepDil(size_t n) {
  XOntoDil dil;
  std::vector<DilPosting> postings;
  for (uint32_t i = 0; i < n; ++i) {
    postings.push_back(P({i / 3, i % 3, 7}, 0.25 + 0.5 * ((i % 11) / 11.0)));
  }
  dil.Put("deep", std::move(postings));
  return dil;
}

void ExpectDilEqual(const XOntoDil& a, const XOntoDil& b) {
  ASSERT_EQ(a.keyword_count(), b.keyword_count());
  auto ai = a.entries().begin();
  auto bi = b.entries().begin();
  for (; ai != a.entries().end(); ++ai, ++bi) {
    EXPECT_EQ(ai->first, bi->first);
    ASSERT_EQ(ai->second.postings.size(), bi->second.postings.size())
        << ai->first;
    for (size_t i = 0; i < ai->second.postings.size(); ++i) {
      EXPECT_EQ(ai->second.postings[i].dewey, bi->second.postings[i].dewey);
      EXPECT_EQ(ai->second.postings[i].score, bi->second.postings[i].score)
          << ai->first << " posting " << i;
    }
  }
}

// ---- Freeze / Thaw ----

TEST(FlatDilTest, FreezeThawIsLossless) {
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    XOntoDil dil = RandomDil(rng, 1 + rng.NextBelow(5), 80);
    FlatDil flat = dil.Freeze();
    EXPECT_EQ(flat.keyword_count(), dil.keyword_count());
    EXPECT_EQ(flat.total_postings(), dil.TotalPostings());
    // Thaw rebuilds the exact mutable index, full-double scores included.
    ExpectDilEqual(dil, flat.ThawAll());
  }
}

TEST(FlatDilTest, FreezeEmptyIndex) {
  XOntoDil dil;
  FlatDil flat = dil.Freeze();
  EXPECT_EQ(flat.keyword_count(), 0u);
  EXPECT_EQ(flat.total_postings(), 0u);
  EXPECT_EQ(flat.FindList("anything"), FlatDil::kNoList);
}

TEST(FlatDilTest, FindListMatchesDictionary) {
  Rng rng(23);
  XOntoDil dil = RandomDil(rng, 7, 20);
  FlatDil flat = dil.Freeze();
  for (const auto& [keyword, entry] : dil.entries()) {
    uint32_t list = flat.FindList(keyword);
    ASSERT_NE(list, FlatDil::kNoList) << keyword;
    EXPECT_EQ(flat.KeywordAt(list), keyword);
    EXPECT_EQ(flat.ListSize(list), entry.postings.size());
  }
  EXPECT_EQ(flat.FindList("kw"), FlatDil::kNoList);    // prefix of kw0
  EXPECT_EQ(flat.FindList("zzzz"), FlatDil::kNoList);  // past the end
}

TEST(FlatDilTest, MemoryBytesCountsColumns) {
  XOntoDil dil = DeepDil(1000);
  FlatDil flat = dil.Freeze();
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
size_t ReferenceCount(const DilEntry* entry, const DocRange& range) {
  return SliceDocRange(std::span<const DilPosting>(entry->postings), range)
      .size();
}

TEST(FlatDilTest, PostingRangeMatchesSliceDocRangeExhaustively) {
  // 1000 postings over ~334 documents => 8 blocks; sweep every boundary.
  XOntoDil dil = DeepDil(1000);
  FlatDil flat = dil.Freeze();
  uint32_t list = flat.FindList("deep");
  ASSERT_NE(list, FlatDil::kNoList);
  EXPECT_GE(flat.BlockCount(list), 7u);
  const DilEntry* entry = dil.Find("deep");
  for (uint32_t begin = 0; begin <= 340; begin += 3) {
    for (uint32_t len : {0u, 1u, 2u, 40u, 127u, 128u, 129u, 340u}) {
      DocRange range{begin, begin + len};
      auto [lo, hi] = flat.PostingRange(list, range);
      EXPECT_EQ(hi - lo, ReferenceCount(entry, range))
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
  XOntoDil dil;
  std::vector<DilPosting> postings;
  for (uint32_t d = 0; d < 1000; ++d) postings.push_back(P({d, 0}, 0.5));
  dil.Put("w", std::move(postings));
  FlatDil flat = dil.Freeze();
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
  XOntoDil dil;
  std::vector<DilPosting> postings;
  for (uint32_t d = 0; d < 130; ++d) postings.push_back(P({d, 1}, 0.5));
  dil.Put("w", std::move(postings));
  FlatDil flat = dil.Freeze();
  uint32_t list = flat.FindList("w");
  EXPECT_EQ(flat.BlockCount(list), 2u);
  auto [lo, hi] = flat.PostingRange(list, DocRange{129, 200});
  EXPECT_EQ(lo, 129u);
  EXPECT_EQ(hi, 130u);
}

TEST(FlatDilTest, SingleDocumentList) {
  XOntoDil dil;
  dil.Put("w", {P({7, 0}, 0.5), P({7, 1}, 0.6), P({7, 2}, 0.7)});
  FlatDil flat = dil.Freeze();
  uint32_t list = flat.FindList("w");
  auto [lo, hi] = flat.PostingRange(list, DocRange{7, 8});
  EXPECT_EQ(hi - lo, 3u);
  EXPECT_TRUE(flat.OpenCursor(list, DocRange{0, 7}).AtEnd());
  EXPECT_TRUE(flat.OpenCursor(list, DocRange{8, 100}).AtEnd());
}

TEST(FlatDilTest, EmptyRangeYieldsExhaustedCursor) {
  XOntoDil dil = DeepDil(300);
  FlatDil flat = dil.Freeze();
  uint32_t list = flat.FindList("deep");
  auto [lo, hi] = flat.PostingRange(list, DocRange{50, 50});
  EXPECT_EQ(lo, hi);
  EXPECT_TRUE(flat.OpenCursor(list, DocRange{50, 50}).AtEnd());
  EXPECT_TRUE(flat.OpenCursor(list, DocRange{0, 0}).AtEnd());
}

TEST(FlatDilTest, CollectDocIdsMatchesThaw) {
  Rng rng(65537);
  XOntoDil dil = RandomDil(rng, 3, 300);
  FlatDil flat = dil.Freeze();
  for (uint32_t list = 0; list < flat.keyword_count(); ++list) {
    std::vector<uint32_t> docs;
    flat.CollectDocIds(list, &docs);
    std::vector<DilPosting> thawed = flat.ThawPostings(list);
    ASSERT_EQ(docs.size(), thawed.size());
    for (size_t i = 0; i < docs.size(); ++i) {
      EXPECT_EQ(docs[i], thawed[i].dewey.doc_id());
    }
  }
}

// ---- Cursor merge parity (the bit-identity property of the tentpole) ----

class FlatParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlatParityTest, CursorExecuteMatchesLegacyBitForBit) {
  Rng rng(GetParam());
  ThreadPool pool(4);
  for (int trial = 0; trial < 15; ++trial) {
    XOntoDil dil = RandomDil(rng, 1 + rng.NextBelow(3), 60);
    FlatDil flat = dil.Freeze();
    ScoreOptions score;
    score.decay = 0.25 + 0.5 * rng.NextDouble();
    QueryProcessor processor(score);

    std::vector<std::span<const DilPosting>> spans;
    std::vector<DilListRef> refs;
    for (const auto& [keyword, entry] : dil.entries()) {
      spans.emplace_back(entry.postings);
      uint32_t list = flat.FindList(keyword);
      ASSERT_NE(list, FlatDil::kNoList);
      refs.push_back(DilListRef::OverFlat(flat, list));
    }

    size_t top_k = rng.NextBelow(2) == 0 ? 0 : 1 + rng.NextBelow(10);
    auto legacy = processor.Execute(spans, top_k);
    for (size_t num_shards : {1u, 2u, 4u, 8u}) {
      auto flat_results =
          processor.ExecuteSegments({refs}, top_k, num_shards, &pool);
      ASSERT_EQ(legacy.size(), flat_results.size())
          << "shards=" << num_shards << " trial=" << trial;
      for (size_t i = 0; i < legacy.size(); ++i) {
        EXPECT_EQ(legacy[i].element, flat_results[i].element)
            << "shards=" << num_shards << " trial=" << trial << " i=" << i;
        // Exact double equality: the cursor merge performs the same
        // floating-point operations in the same order as the legacy
        // struct merge, so not even the last bit may differ.
        EXPECT_EQ(legacy[i].score, flat_results[i].score)
            << "shards=" << num_shards << " trial=" << trial << " i=" << i;
        EXPECT_EQ(legacy[i].keyword_scores, flat_results[i].keyword_scores)
            << "shards=" << num_shards << " trial=" << trial << " i=" << i;
      }
    }
  }
}

TEST_P(FlatParityTest, RankedExecuteMatchesLegacy) {
  Rng rng(GetParam() * 3 + 1);
  for (int trial = 0; trial < 10; ++trial) {
    XOntoDil dil = RandomDil(rng, 1 + rng.NextBelow(3), 40);
    FlatDil flat = dil.Freeze();
    RankedQueryProcessor processor((ScoreOptions()));

    std::vector<const DilEntry*> entries;
    std::vector<DilListRef> refs;
    for (const auto& [keyword, entry] : dil.entries()) {
      entries.push_back(&entry);
      refs.push_back(DilListRef::OverFlat(flat, flat.FindList(keyword)));
    }
    for (size_t k : {size_t{1}, size_t{3}, size_t{10}}) {
      auto legacy = processor.Execute(entries, k);
      auto flat_results = processor.Execute(refs, k);
      ASSERT_EQ(legacy.size(), flat_results.size())
          << "trial " << trial << " k " << k;
      for (size_t i = 0; i < legacy.size(); ++i) {
        EXPECT_EQ(legacy[i].element, flat_results[i].element)
            << "trial " << trial << " k " << k << " i " << i;
        EXPECT_EQ(legacy[i].score, flat_results[i].score)
            << "trial " << trial << " k " << k << " i " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatParityTest,
                         ::testing::Values(7, 41, 1009, 65537));

}  // namespace
}  // namespace xontorank
