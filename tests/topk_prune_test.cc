// Block-max top-k pruning (DESIGN.md §12): the pruned merge must be
// indistinguishable from the exhaustive one — bit-identical results for
// every top_k and shard count, deterministic tie order — while provably
// skipping work, by block and by document bound. Also pins the
// admissibility fallbacks (top_k == 0, decay > 1), the block-max column's
// upper-bound invariant, its mapped/built parity, and checksum coverage
// of its section.

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
#include "core/xontorank.h"
#include "gtest/gtest.h"
#include "storage/segment_file.h"
#include "storage/segment_writer.h"
#include "tests/reference_eval.h"
#include "tests/test_util.h"

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

// ---- Document bounds and shared-prefix selection ---------------------

// Lists built for the merge's edges: documents 3 and 11 (the last) hold
// more than two blocks' worth of postings per list, so block restarts fall
// inside a document and the last document ends at the list end; ids come
// from a small space per document, so keywords share ids and a list
// repeats some of its own (at different scores). Most scores are low and
// a few are high, so documents lose to the running k-th score.
Lists EdgeDil(Rng& rng, size_t num_keywords) {
  Lists dil;
  for (size_t w = 0; w < num_keywords; ++w) {
    std::vector<Posting> postings;
    for (uint32_t doc = 0; doc < 12; ++doc) {
      size_t n = doc == 3 || doc == 11 ? 300 : rng.NextBelow(30);
      for (size_t i = 0; i < n; ++i) {
        std::vector<uint32_t> comps{doc};
        size_t depth = 1 + rng.NextBelow(6);
        for (size_t d = 0; d < depth; ++d) {
          comps.push_back(static_cast<uint32_t>(rng.NextBelow(3)));
        }
        double score = rng.NextBelow(10) == 0 ? 1.0 + rng.NextDouble()
                                              : 0.01 + 0.1 * rng.NextDouble();
        postings.push_back({DeweyId(comps), score});
        if (rng.NextBelow(8) == 0) {
          postings.push_back({DeweyId(std::move(comps)), rng.NextDouble()});
        }
      }
    }
    dil["kw" + std::to_string(w)] = std::move(postings);
  }
  return dil;
}

// `dil` with only the postings of documents in [begin_doc, end_doc).
Lists DocumentSlice(const Lists& dil, uint32_t begin_doc, uint32_t end_doc) {
  Lists slice;
  for (const auto& [keyword, postings] : dil) {
    std::vector<Posting>& out = slice[keyword];
    for (const Posting& p : postings) {
      if (p.dewey.doc_id() >= begin_doc && p.dewey.doc_id() < end_doc) {
        out.push_back(p);
      }
    }
  }
  return slice;
}

TEST(DocBoundParity, RestartsInsideDocumentsRepeatedAndSharedIds) {
  ThreadPool pool(4);
  size_t docs_skipped = 0;
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    for (size_t num_keywords = 1; num_keywords <= 4; ++num_keywords) {
      const Lists dil = EdgeDil(rng, num_keywords);
      std::vector<std::string> keywords;
      std::vector<std::vector<Posting>> posting_lists;
      for (const auto& [keyword, postings] : dil) {
        keywords.push_back(keyword);
        posting_lists.push_back(postings);
      }
      FlatDil flat = FreezeLists(dil);
      // The same documents as two doc-disjoint segments (the merge that
      // carries one heap across segments).
      FlatDil low = FreezeLists(DocumentSlice(dil, 0, 6));
      FlatDil high = FreezeLists(DocumentSlice(dil, 6, 12));
      const std::vector<DilListRef> lists = FlatRefs(flat, keywords);
      const std::vector<std::vector<DilListRef>> segments = {
          FlatRefs(low, keywords), FlatRefs(high, keywords)};
      // decay 1.5 is not admissible for pruning: every plan then scores
      // every aligned document, the two-segment one into a carried heap.
      for (double decay : {1.0, 0.8, 1.5}) {
        ScoreOptions options;
        options.decay = decay;
        QueryProcessor processor(options);
        for (size_t top_k : {size_t{0}, size_t{1}, size_t{10}}) {
          SCOPED_TRACE("seed=" + std::to_string(seed) +
                       " keywords=" + std::to_string(num_keywords) +
                       " decay=" + std::to_string(decay) +
                       " top_k=" + std::to_string(top_k));
          std::vector<QueryResult> expected =
              reference::EvaluateLists(posting_lists, decay, top_k);
          ASSERT_FALSE(expected.empty());
          ExpectBitIdentical(expected,
                             processor.ExecuteSegments({lists}, top_k, 1,
                                                       nullptr, nullptr,
                                                       PruningMode::kExact));
          for (size_t shards : {size_t{1}, size_t{4}}) {
            SCOPED_TRACE("shards=" + std::to_string(shards));
            ExecuteStats stats;
            ExpectBitIdentical(
                expected,
                processor.ExecuteSegments({lists}, top_k, shards, &pool,
                                          &stats, PruningMode::kBlockMax));
            docs_skipped += stats.docs_skipped;
            for (PruningMode pruning :
                 {PruningMode::kExact, PruningMode::kBlockMax}) {
              ExpectBitIdentical(
                  expected,
                  processor.ExecuteSegments(segments, top_k, shards, &pool,
                                            &stats, pruning));
              docs_skipped += stats.docs_skipped;
            }
          }
        }
      }
    }
  }
  // The document bound must have fired for the comparison to test it.
  EXPECT_GT(docs_skipped, 0u);
}

// The same edges end to end: documents 0 and 7 have 300 elements, most of
// which match the query words, so each keyword's list restarts blocks
// inside them; elements matching several words put equal ids in several
// lists. The engine (two segments) must equal the tree evaluator.
TEST(DocBoundParity, SearchOnLongDocumentsMatchesTreeEvaluator) {
  const char* kWords[] = {"alpha", "beta", "gamma", "delta"};
  Rng rng(5);
  std::vector<std::string> docs;
  for (uint32_t d = 0; d < 8; ++d) {
    size_t items = d == 0 || d == 7 ? 300 : 5 + rng.NextBelow(40);
    std::string xml = "<ClinicalDocument><section>";
    for (size_t i = 0; i < items; ++i) {
      if (i % 16 == 0) xml += i == 0 ? "<group>" : "</group><group>";
      xml += "<item>";
      for (const char* word : kWords) {
        if (rng.NextBelow(3) != 0) xml += std::string(word) + " ";
      }
      for (size_t f = rng.NextBelow(6); f > 0; --f) xml += "mg ";
      xml += "</item>";
    }
    xml += "</group></section></ClinicalDocument>";
    docs.push_back(std::move(xml));
  }
  Corpus corpus;
  for (uint32_t d = 0; d < docs.size(); ++d) {
    corpus.Add(testing_util::MustParse(docs[d], d));
  }
  const Ontology onto = testing_util::BuildTinyOntology();
  for (double decay : {1.0, 0.8}) {
    IndexBuildOptions options;
    options.strategy = Strategy::kXRank;
    options.score.decay = decay;
    options.lsm.auto_compact = false;
    reference::TreeEvaluator evaluator(corpus, OntologySet(onto), options);
    XOntoRank engine(Corpus(), OntologySet(onto), options);
    for (uint32_t d = 0; d < docs.size(); ++d) {
      engine.StageDocument(testing_util::MustParse(docs[d], d));
      if (d == 3 || d + 1 == docs.size()) engine.Commit();
    }
    ASSERT_EQ(engine.snapshot()->segments().size(), 2u);
    std::string text;
    for (const char* word : kWords) {
      text += text.empty() ? word : std::string(" ") + word;
      KeywordQuery query = ParseQuery(text);
      for (size_t top_k : {size_t{0}, size_t{1}, size_t{10}}) {
        std::vector<QueryResult> expected = evaluator.Evaluate(query, top_k);
        ASSERT_FALSE(expected.empty()) << text;
        for (PruningMode pruning :
             {PruningMode::kExact, PruningMode::kBlockMax}) {
          for (size_t parallelism : {size_t{1}, size_t{4}}) {
            SearchOptions search;
            search.top_k = top_k;
            search.pruning = pruning;
            search.parallelism = parallelism;
            search.use_cache = false;
            testing_util::ExpectSameResults(
                engine.Search(query, search).results, expected,
                "query=\"" + text + "\" decay=" + std::to_string(decay) +
                    " k=" + std::to_string(top_k) + " " +
                    std::string(PruningModeName(pruning)) +
                    " parallelism=" + std::to_string(parallelism));
          }
        }
      }
    }
  }
}

TEST(DocBoundPruning, SkipsDocumentsInsideOneBlock) {
  // 100 documents fit in one block per list, and that block's bound holds
  // document 99's high score, so block-max never fires; every document
  // between the first and the last loses on its own maxima instead.
  Lists dil;
  for (uint32_t w = 0; w < 2; ++w) {
    std::vector<Posting> postings;
    for (uint32_t doc = 0; doc < 100; ++doc) {
      double score = doc == 0 ? 0.5 : doc == 99 ? 5.0 : 0.01;
      postings.push_back({DeweyId({doc, w}), score});
    }
    dil["kw" + std::to_string(w)] = std::move(postings);
  }
  FlatDil flat = FreezeLists(dil);
  QueryProcessor processor(ScoreOptions{});
  std::vector<DilListRef> lists = FlatRefs(flat, {"kw0", "kw1"});
  ExecuteStats stats;
  auto pruned = processor.ExecuteSegments({lists}, 1, 1, nullptr, &stats,
                                          PruningMode::kBlockMax);
  ASSERT_EQ(pruned.size(), 1u);
  EXPECT_EQ(pruned[0].element, DeweyId({99}));
  EXPECT_EQ(stats.blocks_skipped, 0u);
  EXPECT_EQ(stats.docs_skipped, 98u);
  EXPECT_EQ(stats.postings_scored, 4u);  // documents 0 and 99 only
  ExpectBitIdentical(processor.ExecuteSegments({lists}, 1, 1, nullptr,
                                               nullptr, PruningMode::kExact),
                     pruned);

  // Split into two segments, the carried threshold skips the same
  // documents, and the counter sums over both.
  FlatDil low = FreezeLists(DocumentSlice(dil, 0, 50));
  FlatDil high = FreezeLists(DocumentSlice(dil, 50, 100));
  ExecuteStats split;
  ExpectBitIdentical(pruned, processor.ExecuteSegments(
                                 {FlatRefs(low, {"kw0", "kw1"}),
                                  FlatRefs(high, {"kw0", "kw1"})},
                                 1, 1, nullptr, &split,
                                 PruningMode::kBlockMax));
  EXPECT_EQ(split.blocks_skipped, 0u);
  EXPECT_EQ(split.docs_skipped, 98u);

  // The exact merge never skips a document.
  ExecuteStats exact;
  processor.ExecuteSegments({lists}, 1, 1, nullptr, &exact,
                            PruningMode::kExact);
  EXPECT_EQ(exact.docs_skipped, 0u);
}

TEST(DocBoundPruning, BlockRestartInsideADocumentDoesNotEndIt) {
  // Document 1 holds list postings 1-300, so blocks restart (shared == 0)
  // at its 128th and 256th postings; its only strong posting lies between
  // the two restarts. A bound that stopped at the first restart would see
  // only 0.01 and skip the document's answer.
  std::vector<Posting> postings;
  postings.push_back({DeweyId({0, 0}), 1.0});
  for (uint32_t i = 0; i < 300; ++i) {
    postings.push_back({DeweyId({1, i}), i == 200 ? 5.0 : 0.01});
  }
  postings.push_back({DeweyId({2, 0}), 0.01});
  FlatDil flat = FreezeLists({{"kw", std::move(postings)}});
  QueryProcessor processor(ScoreOptions{});
  std::vector<DilListRef> lists = FlatRefs(flat, {"kw"});
  ExecuteStats stats;
  auto pruned = processor.ExecuteSegments({lists}, 1, 1, nullptr, &stats,
                                          PruningMode::kBlockMax);
  ASSERT_EQ(pruned.size(), 1u);
  EXPECT_EQ(pruned[0].element, DeweyId({1, 200}));
  EXPECT_EQ(stats.docs_skipped, 0u);
  ExpectBitIdentical(processor.ExecuteSegments({lists}, 1, 1, nullptr,
                                               nullptr, PruningMode::kExact),
                     pruned);
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

// ---- Segment round trip ----------------------------------------------

TEST(BlockMaxSegment, MappedViewMatchesBuiltColumnAndPrunesIdentically) {
  Rng rng(17);
  FlatDil flat = FreezeLists(RandomDil(rng, 5, 1000));
  std::string path = TempPath("v2");
  ASSERT_TRUE(SaveSegment(flat, path).ok());
  auto segment = SegmentFile::Open(path);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  FlatDil view = (*segment)->MakeView();

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
