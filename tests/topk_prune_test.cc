// Block-max top-k pruning (DESIGN.md §12): the pruned merge must be
// indistinguishable from the exhaustive one — bit-identical results for
// every top_k and shard count, deterministic tie order — while provably
// skipping work. Also pins the admissibility fallbacks (top_k == 0,
// decay > 1, v1 segments), the block-max column's upper-bound
// invariant, its mapped/decoded parity, and checksum coverage of the new
// section.

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/flat_dil.h"
#include "core/query_processor.h"
#include "core/simd_kernels.h"
#include "gtest/gtest.h"
#include "storage/segment_file.h"
#include "storage/segment_writer.h"
#include "tests/reference_eval.h"

namespace xontorank {
namespace {

using reference::FreezeLists;
using reference::Lists;
using reference::Posting;

// A randomized Dewey-sorted index, same shape as segment_test's: enough
// postings per keyword to span multiple 128-posting blocks.
Lists RandomDil(Rng& rng, size_t num_keywords, size_t max_postings,
                uint32_t num_docs = 64) {
  Lists dil;
  for (size_t w = 0; w < num_keywords; ++w) {
    std::vector<Posting> postings;
    std::set<std::vector<uint32_t>> used;
    size_t n = 1 + rng.NextBelow(max_postings);
    for (size_t i = 0; i < n; ++i) {
      std::vector<uint32_t> comps{
          static_cast<uint32_t>(rng.NextBelow(num_docs))};
      size_t depth = rng.NextBelow(5);
      for (size_t d = 0; d < depth; ++d) {
        comps.push_back(static_cast<uint32_t>(rng.NextBelow(4)));
      }
      if (!used.insert(comps).second) continue;
      postings.push_back(
          {DeweyId(std::move(comps)), 0.05 + 0.95 * rng.NextDouble()});
    }
    dil["kw" + std::to_string(w)] = std::move(postings);
  }
  return dil;
}

std::vector<DilListRef> FlatRefs(const FlatDil& flat,
                                 const std::vector<std::string>& keywords) {
  std::vector<DilListRef> refs;
  for (const std::string& kw : keywords) {
    uint32_t list = flat.FindList(kw);
    EXPECT_NE(list, FlatDil::kNoList) << kw;
    refs.push_back(DilListRef::OverFlat(flat, list));
  }
  return refs;
}

void ExpectBitIdentical(const std::vector<QueryResult>& a,
                        const std::vector<QueryResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].element, b[i].element) << i;
    EXPECT_EQ(a[i].score, b[i].score) << i;  // bit-identical, never approx
    EXPECT_EQ(a[i].keyword_scores, b[i].keyword_scores) << i;
  }
}

std::string TempPath(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("xontorank_topk_prune_test_" + std::to_string(::getpid()) + "_" +
           tag + ".xoseg"))
      .string();
}

// ---- The core contract: pruning changes work, never results ----------

TEST(BlockMaxParity, MatchesExhaustiveForEveryKAndShardCount) {
  Rng rng(42);
  FlatDil flat = FreezeLists(RandomDil(rng, 6, 1200));
  ASSERT_TRUE(flat.has_block_max());
  QueryProcessor processor(ScoreOptions{});
  ThreadPool pool(4);
  std::vector<DilListRef> lists = FlatRefs(flat, {"kw0", "kw1", "kw2"});

  for (size_t top_k : {size_t{1}, size_t{5}, size_t{10}, size_t{128},
                       size_t{0}}) {
    std::vector<QueryResult> expected = processor.ExecuteSegments(
        {lists}, top_k, 1, nullptr, nullptr, PruningMode::kExact);
    for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      ExecuteStats stats;
      std::vector<QueryResult> pruned = processor.ExecuteSegments(
          {lists}, top_k, shards, &pool, &stats, PruningMode::kBlockMax);
      SCOPED_TRACE("top_k=" + std::to_string(top_k) +
                   " shards=" + std::to_string(shards));
      ExpectBitIdentical(expected, pruned);
      if (top_k == 0) {
        // No threshold exists: the hint must silently degrade to exact.
        EXPECT_EQ(stats.blocks_skipped, 0u);
        EXPECT_EQ(stats.threshold_updates, 0u);
      }
    }
  }
}

TEST(BlockMaxParity, SingleKeywordEveryK) {
  Rng rng(7);
  FlatDil flat = FreezeLists(RandomDil(rng, 2, 2000));
  QueryProcessor processor(ScoreOptions{});
  std::vector<DilListRef> lists = FlatRefs(flat, {"kw0"});
  for (size_t top_k : {size_t{1}, size_t{3}, size_t{50}, size_t{0}}) {
    auto exact = processor.ExecuteSegments(
        {lists}, top_k, 1, nullptr, nullptr, PruningMode::kExact);
    auto pruned = processor.ExecuteSegments(
        {lists}, top_k, 1, nullptr, nullptr, PruningMode::kBlockMax);
    SCOPED_TRACE("top_k=" + std::to_string(top_k));
    ExpectBitIdentical(exact, pruned);
  }
}

TEST(BlockMaxParity, TieScoresKeepDeweyOrderDeterministic) {
  // Every posting scores identically, so the top-k frontier is all ties:
  // the pruned merge must resolve them exactly like the exhaustive one
  // (ascending Dewey among equal scores), with zero tolerance.
  Lists dil;
  for (size_t w = 0; w < 2; ++w) {
    std::vector<Posting> postings;
    for (uint32_t doc = 0; doc < 600; ++doc) {
      postings.push_back({DeweyId({doc, w == 0 ? 0u : 1u}), 0.25});
      postings.push_back({DeweyId({doc, 2}), 0.25});
    }
    dil["kw" + std::to_string(w)] = std::move(postings);
  }
  FlatDil flat = FreezeLists(dil);
  QueryProcessor processor(ScoreOptions{});
  std::vector<DilListRef> lists = FlatRefs(flat, {"kw0", "kw1"});
  for (size_t top_k : {size_t{1}, size_t{7}, size_t{100}}) {
    auto exact = processor.ExecuteSegments(
        {lists}, top_k, 1, nullptr, nullptr, PruningMode::kExact);
    auto pruned = processor.ExecuteSegments(
        {lists}, top_k, 1, nullptr, nullptr, PruningMode::kBlockMax);
    SCOPED_TRACE("top_k=" + std::to_string(top_k));
    ExpectBitIdentical(exact, pruned);
  }
}

TEST(BlockMaxPruning, SkipsBlocksOnSkewedScores) {
  // Doc 0 holds the only high-scoring posting; every other block's upper
  // bound loses to it, so a top-1 query must leapfrog essentially the
  // whole list after the first document.
  std::vector<Posting> postings;
  postings.push_back({DeweyId({0, 0}), 10.0});
  for (uint32_t doc = 1; doc < 2000; ++doc) {
    postings.push_back({DeweyId({doc, 0}), 0.01});
  }
  FlatDil flat = FreezeLists({{"kw", std::move(postings)}});
  QueryProcessor processor(ScoreOptions{});
  std::vector<DilListRef> lists = FlatRefs(flat, {"kw"});

  ExecuteStats stats;
  auto pruned = processor.ExecuteSegments(
      {lists}, 1, 1, nullptr, &stats, PruningMode::kBlockMax);
  ASSERT_EQ(pruned.size(), 1u);
  EXPECT_EQ(pruned[0].element, DeweyId({0, 0}));
  EXPECT_GT(stats.blocks_skipped, 10u);
  EXPECT_LT(stats.postings_scored, stats.postings_scanned / 2);
  EXPECT_GE(stats.threshold_updates, 1u);

  auto exact = processor.ExecuteSegments(
      {lists}, 1, 1, nullptr, nullptr, PruningMode::kExact);
  ExpectBitIdentical(exact, pruned);
}

TEST(ExactTopKHeap, MatchesFullSortTruncatedWithTies) {
  // The exact merge keeps a k-heap when top_k >= 1: its answer must be the
  // full result list truncated to k, including which of several results
  // tied on the k-th score survive (ties go to the smaller Dewey id).
  // Scores come from a three-value set, so ties sit on every frontier.
  Rng rng(17);
  Lists dil;
  for (size_t w = 0; w < 3; ++w) {
    std::vector<Posting> postings;
    std::set<std::vector<uint32_t>> used;
    for (size_t i = 0; i < 900; ++i) {
      std::vector<uint32_t> comps{static_cast<uint32_t>(rng.NextBelow(48))};
      size_t depth = rng.NextBelow(4);
      for (size_t d = 0; d < depth; ++d) {
        comps.push_back(static_cast<uint32_t>(rng.NextBelow(3)));
      }
      if (!used.insert(comps).second) continue;
      postings.push_back(
          {DeweyId(std::move(comps)), 0.25 * (1 + rng.NextBelow(3))});
    }
    dil["kw" + std::to_string(w)] = std::move(postings);
  }
  FlatDil flat = FreezeLists(dil);
  QueryProcessor processor(ScoreOptions{});
  size_t tied_cuts = 0;
  for (const std::vector<std::string>& keywords :
       {std::vector<std::string>{"kw0"},
        std::vector<std::string>{"kw0", "kw1"},
        std::vector<std::string>{"kw0", "kw1", "kw2"}}) {
    std::vector<DilListRef> lists = FlatRefs(flat, keywords);
    auto open = [&lists] {
      std::vector<DilCursor> cursors;
      for (const DilListRef& list : lists) cursors.push_back(list.OpenCursor());
      return cursors;
    };
    std::vector<QueryResult> all = processor.Execute(open(), 0);
    ASSERT_GT(all.size(), 20u);
    for (size_t top_k : {size_t{1}, size_t{2}, size_t{5}, size_t{10},
                         size_t{17}, all.size() - 1, all.size(),
                         all.size() + 3}) {
      SCOPED_TRACE("keywords=" + std::to_string(keywords.size()) +
                   " top_k=" + std::to_string(top_k));
      std::vector<QueryResult> expected(
          all.begin(), all.begin() + std::min(top_k, all.size()));
      ExecuteStats stats;
      std::vector<QueryResult> heap =
          processor.Execute(open(), top_k, PruningMode::kExact, &stats);
      ExpectBitIdentical(expected, heap);
      // The heap stays internal: the exact path reports no pruning work.
      EXPECT_EQ(stats.threshold_updates, 0u);
      EXPECT_EQ(stats.blocks_scored, 0u);
      EXPECT_EQ(stats.blocks_skipped, 0u);
      // The case under test: the k-th score is tied just past the cut.
      if (top_k < all.size() && all[top_k].score == all[top_k - 1].score) {
        ++tied_cuts;
      }
    }
  }
  EXPECT_GE(tied_cuts, 6u);
}

// ---- Admissibility fallbacks -----------------------------------------

TEST(BlockMaxFallback, DecayAboveOneRunsExact) {
  // decay > 1 amplifies scores while propagating upward, so a block max
  // no longer bounds emitted frames — the merge must not prune.
  Rng rng(3);
  FlatDil flat = FreezeLists(RandomDil(rng, 3, 800));
  ScoreOptions amplifying;
  amplifying.decay = 1.5;
  QueryProcessor processor(amplifying);
  std::vector<DilListRef> lists = FlatRefs(flat, {"kw0", "kw1"});
  ExecuteStats stats;
  auto pruned = processor.ExecuteSegments(
      {lists}, 5, 1, nullptr, &stats, PruningMode::kBlockMax);
  EXPECT_EQ(stats.blocks_skipped, 0u);
  EXPECT_EQ(stats.threshold_updates, 0u);
  auto exact = processor.ExecuteSegments(
      {lists}, 5, 1, nullptr, nullptr, PruningMode::kExact);
  ExpectBitIdentical(exact, pruned);
}

// ---- The block-max column itself -------------------------------------

TEST(BlockMaxColumn, UpperBoundsEveryPostingInItsBlock) {
  Rng rng(11);
  FlatDil flat = FreezeLists(RandomDil(rng, 8, 900));
  const FlatDil::Sections& v = flat.sections();
  ASSERT_EQ(v.block_max.size(), flat.TotalBlocks());
  // Walk every list's blocks: the stored float must dominate each score
  // under the admissibility rounding (float(bound) >= double(score)).
  for (uint32_t l = 0; l < flat.keyword_count(); ++l) {
    uint32_t begin = v.list_begin[l];
    uint32_t end = v.list_begin[l + 1];
    for (uint32_t p = begin; p < end; ++p) {
      uint32_t block =
          v.skip_begin[l] + (p - begin) / FlatDil::kBlockPostings;
      EXPECT_GE(static_cast<double>(v.block_max[block]), v.scores[p])
          << "list " << l << " posting " << p;
    }
  }
}

TEST(BlockMaxColumn, ScoreUpperBoundFloatNeverUnderestimates) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    double score = rng.NextDouble() * 100.0;
    EXPECT_GE(static_cast<double>(ScoreUpperBoundFloat(score)), score);
  }
  // A value that is not exactly representable must round UP, not to
  // nearest: 0.1's nearest float is below 0.1.
  EXPECT_GE(static_cast<double>(ScoreUpperBoundFloat(0.1)), 0.1);
}

// ---- Segment v2 round trip and v1 compatibility ----------------------

TEST(BlockMaxSegment, MappedViewMatchesBuiltColumnAndPrunesIdentically) {
  Rng rng(17);
  FlatDil flat = FreezeLists(RandomDil(rng, 5, 1000));
  std::string path = TempPath("v2");
  ASSERT_TRUE(SaveSegment(flat, path).ok());
  auto segment = SegmentFile::Open(path);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  EXPECT_TRUE((*segment)->has_block_max());
  FlatDil view = (*segment)->MakeView();
  ASSERT_TRUE(view.has_block_max());

  std::span<const float> built = flat.sections().block_max;
  std::span<const float> mapped = view.sections().block_max;
  ASSERT_EQ(built.size(), mapped.size());
  EXPECT_EQ(std::memcmp(built.data(), mapped.data(),
                        built.size() * sizeof(float)),
            0);

  QueryProcessor processor(ScoreOptions{});
  auto from_built = processor.ExecuteSegments(
      {FlatRefs(flat, {"kw0", "kw1"})}, 10, 1, nullptr, nullptr,
      PruningMode::kBlockMax);
  ExecuteStats stats;
  auto from_mapped = processor.ExecuteSegments(
      {FlatRefs(view, {"kw0", "kw1"})}, 10, 1, nullptr, &stats,
      PruningMode::kBlockMax);
  ExpectBitIdentical(from_built, from_mapped);
  std::filesystem::remove(path);
}

TEST(BlockMaxSegment, V1SegmentOpensAndFallsBackToExact) {
  Rng rng(19);
  FlatDil flat = FreezeLists(RandomDil(rng, 4, 800));
  std::string path = TempPath("v1");
  {
    std::string encoded = EncodeSegment(flat, /*version=*/1);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
  }
  auto segment = SegmentFile::Open(path);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  EXPECT_EQ((*segment)->header().version, 1u);
  EXPECT_FALSE((*segment)->has_block_max());
  FlatDil view = (*segment)->MakeView();
  EXPECT_FALSE(view.has_block_max());

  // The v1 view serves; a blockmax request silently degrades to exact and
  // still matches the built (v2-capable) index bit for bit.
  QueryProcessor processor(ScoreOptions{});
  ExecuteStats stats;
  auto from_v1 = processor.ExecuteSegments(
      {FlatRefs(view, {"kw0", "kw1"})}, 10, 1, nullptr, &stats,
      PruningMode::kBlockMax);
  EXPECT_EQ(stats.blocks_skipped, 0u);
  EXPECT_EQ(stats.threshold_updates, 0u);
  auto expected = processor.ExecuteSegments(
      {FlatRefs(flat, {"kw0", "kw1"})}, 10, 1, nullptr, nullptr,
      PruningMode::kExact);
  ExpectBitIdentical(expected, from_v1);
  std::filesystem::remove(path);
}

TEST(BlockMaxSegment, TamperedBlockMaxSectionFailsItsChecksum) {
  Rng rng(23);
  FlatDil flat = FreezeLists(RandomDil(rng, 4, 600));
  std::string path = TempPath("tamper");
  ASSERT_TRUE(SaveSegment(flat, path).ok());

  // Locate the block_max section through a clean open, then flip one byte
  // inside it on disk.
  uint64_t offset = 0;
  {
    auto segment = SegmentFile::Open(path);
    ASSERT_TRUE(segment.ok());
    for (const SegmentFile::SectionInfo& info : (*segment)->sections()) {
      if (std::string_view(info.name) == "block_max") {
        ASSERT_GT(info.bytes, 0u);
        offset = info.offset;
      }
    }
  }
  ASSERT_GT(offset, 0u);
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);  // tamper a mantissa bit
    file.seekp(static_cast<std::streamoff>(offset));
    file.write(&byte, 1);
  }
  auto tampered = SegmentFile::Open(path);
  ASSERT_FALSE(tampered.ok());
  EXPECT_NE(tampered.status().ToString().find("block_max"), std::string::npos)
      << tampered.status().ToString();
  std::filesystem::remove(path);
}

// ---- SIMD kernels: the dispatched implementation must match scalar ----

TEST(SimdKernels, FillDocIdsMatchesReferenceAcrossRestartPatterns) {
  Rng rng(29);
  for (int round = 0; round < 50; ++round) {
    size_t n = 1 + rng.NextBelow(400);
    std::vector<uint16_t> shared(n);
    std::vector<uint32_t> suffix_offsets(n);
    std::vector<uint32_t> arena;
    // Restart probability varies per round: all-restart through almost-none.
    size_t restart_one_in = 1 + rng.NextBelow(128);
    for (size_t i = 0; i < n; ++i) {
      bool restart = i == 0 || rng.NextBelow(restart_one_in) == 0;
      shared[i] = restart ? 0 : static_cast<uint16_t>(1 + rng.NextBelow(4));
      suffix_offsets[i] = static_cast<uint32_t>(arena.size());
      arena.push_back(static_cast<uint32_t>(rng.NextBelow(100000)));
    }
    std::vector<uint32_t> expected(n);
    uint32_t carry = 12345;
    for (size_t i = 0; i < n; ++i) {
      if (shared[i] == 0) carry = arena[suffix_offsets[i]];
      expected[i] = carry;
    }
    std::vector<uint32_t> actual(n);
    FillDocIds(shared.data(), suffix_offsets.data(), arena.data(), n, 12345,
               actual.data());
    ASSERT_EQ(expected, actual) << "round " << round;
  }
}

TEST(SimdKernels, LowerBoundU32MatchesStdLowerBound) {
  Rng rng(31);
  for (int round = 0; round < 50; ++round) {
    size_t n = 1 + rng.NextBelow(300);
    std::vector<uint32_t> values(n);
    for (auto& v : values) {
      v = static_cast<uint32_t>(rng.NextBelow(1u << 31)) * 2;  // big values
    }
    std::sort(values.begin(), values.end());
    for (int probe = 0; probe < 20; ++probe) {
      uint32_t key = probe < 10
                         ? values[rng.NextBelow(n)]
                         : static_cast<uint32_t>(rng.NextBelow(1u << 31)) * 2;
      size_t expected = static_cast<size_t>(
          std::lower_bound(values.begin(), values.end(), key) -
          values.begin());
      ASSERT_EQ(LowerBoundU32(values.data(), n, key), expected)
          << "round " << round << " key " << key;
    }
  }
}

TEST(SimdKernels, MaxFloatMatchesReference) {
  Rng rng(37);
  for (int round = 0; round < 50; ++round) {
    size_t n = 1 + rng.NextBelow(200);
    std::vector<float> values(n);
    float expected = -1.0f;
    for (auto& v : values) {
      v = static_cast<float>(rng.NextDouble() * 1000.0);
      expected = std::max(expected, v);
    }
    ASSERT_EQ(MaxFloat(values.data(), n), expected) << "round " << round;
  }
}

TEST(SimdKernels, LevelNameIsStable) {
  SimdLevel level = ActiveSimdLevel();
  EXPECT_FALSE(SimdLevelName(level).empty());
  EXPECT_NE(SimdLevelName(level), "?");
#ifdef XO_DISABLE_SIMD
  EXPECT_EQ(level, SimdLevel::kScalar);
#endif
}

}  // namespace
}  // namespace xontorank
