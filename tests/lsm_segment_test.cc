// LSM multi-segment snapshots (DESIGN.md §15): the load-bearing property is
// that search results are BIT-IDENTICAL — exact doubles, exact tie order —
// no matter how the corpus is split into segments: one commit or many,
// before or after compaction, in memory or reloaded from an engine dir.
// Document-scoped scoring (DocumentUnits) is what makes the property hold;
// these tests are the proof obligation.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "cda/cda_document.h"
#include "cda/cda_generator.h"
#include "core/elem_rank.h"
#include "core/index_segment.h"
#include "core/index_writer.h"
#include "core/xontorank.h"
#include "gtest/gtest.h"
#include "ir/query.h"
#include "onto/snomed_fragment.h"
#include "storage/engine_store.h"
#include "storage/manifest.h"
#include "tests/test_util.h"

namespace xontorank {
namespace {

constexpr uint32_t kNumDocs = 8;

const char* const kQueries[] = {
    "asthma",                                  // single keyword, text-heavy
    "asthma theophylline",                     // conjunctive, onto-scored
    "\"bronchial structure\" theophylline",    // phrase + keyword
    "cardiac arrest furosemide",               // conjunctive
    "theophylline",                            // ontology-propagated
};

class LsmFixture : public ::testing::Test {
 protected:
  LsmFixture() : onto_(BuildSnomedCardiologyFragment()) {
    CdaGeneratorOptions options;
    options.num_documents = kNumDocs;
    options.seed = 1234;
    generator_ = std::make_unique<CdaGenerator>(onto_, options);
  }

  /// Deterministic document `i` (XmlDocument is move-only; regeneration is
  /// the copy).
  XmlDocument Doc(uint32_t i) {
    return CdaToXml(generator_->GenerateDocument(i), i);
  }

  IndexBuildOptions LsmOptionsWith(
      size_t fanin, bool auto_compact,
      IndexBuildOptions::VocabularyMode mode =
          IndexBuildOptions::VocabularyMode::kNone) {
    IndexBuildOptions options;
    options.strategy = Strategy::kRelationships;
    options.vocabulary_mode = mode;
    options.lsm.compaction_fanin = fanin;
    options.lsm.auto_compact = auto_compact;
    return options;
  }

  /// An engine over docs_ committed in batches of `group` documents, no
  /// background compaction (deterministic segment set).
  std::unique_ptr<XOntoRank> BuildGrouped(
      size_t group,
      IndexBuildOptions::VocabularyMode mode =
          IndexBuildOptions::VocabularyMode::kNone,
      bool use_elem_rank = false) {
    IndexBuildOptions options =
        LsmOptionsWith(4, /*auto_compact=*/false, mode);
    options.use_elem_rank = use_elem_rank;
    auto engine =
        std::make_unique<XOntoRank>(Corpus(), OntologySet(onto_), options);
    for (uint32_t i = 0; i < kNumDocs; ++i) {
      engine->StageDocument(Doc(i));
      if ((i + 1) % group == 0 || i + 1 == kNumDocs) engine->Commit();
    }
    return engine;
  }

  Ontology onto_;
  std::unique_ptr<CdaGenerator> generator_;
};

constexpr IndexBuildOptions::VocabularyMode kAllVocabularyModes[] = {
    IndexBuildOptions::VocabularyMode::kNone,
    IndexBuildOptions::VocabularyMode::kCorpusOnly,
    IndexBuildOptions::VocabularyMode::kCorpusAndOntology,
};

std::string ModeName(IndexBuildOptions::VocabularyMode mode) {
  switch (mode) {
    case IndexBuildOptions::VocabularyMode::kNone:
      return "none";
    case IndexBuildOptions::VocabularyMode::kCorpusOnly:
      return "corpus";
    case IndexBuildOptions::VocabularyMode::kCorpusAndOntology:
      return "corpus+ontology";
  }
  return "?";
}

/// Every list `segment` (over documents of `snapshot`) serves from its dil
/// or its demand cache equals the list a fresh seal of the segment's
/// documents serves for the same keyword (Dewey ids and exact double
/// scores). With `same_vocabulary`, the segment's dil also holds exactly
/// the fresh seal's keywords.
void ExpectServedListsMatchFreshSeal(const IndexSegment& segment,
                                     const IndexSnapshot& snapshot,
                                     bool same_vocabulary,
                                     const std::string& label) {
  auto docs = std::make_shared<Corpus>();
  for (uint32_t d = segment.first_doc(); d < segment.end_doc(); ++d) {
    docs->Add(snapshot.corpus().handle(d));
  }
  auto fresh = IndexSegment::Build(0, std::move(docs), segment.first_doc(),
                                   snapshot.context(), snapshot.options());
  const std::string tag = label + " segment " + std::to_string(segment.id());
  const CorpusIndex& index = segment.index();
  if (same_vocabulary) {
    EXPECT_EQ(index.PrecomputedVocabulary(),
              fresh->index().PrecomputedVocabulary())
        << tag;
  }
  std::vector<std::string> keywords = index.PrecomputedVocabulary();
  std::vector<std::string> cached = index.DemandKeywords();
  keywords.insert(keywords.end(), cached.begin(), cached.end());
  for (const std::string& canonical : keywords) {
    DilListRef a = index.GetListRef(MakeKeyword(canonical));
    DilListRef b = fresh->index().GetListRef(MakeKeyword(canonical));
    EXPECT_EQ(a.flat->ThawPostings(a.list), b.flat->ThawPostings(b.list))
        << tag << " keyword " << canonical;
  }
}

/// Bitwise result equality: element, score (exact doubles), per-keyword
/// scores, and order.
void ExpectIdenticalResults(const std::vector<QueryResult>& a,
                            const std::vector<QueryResult>& b,
                            const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].element, b[i].element) << label << " rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << label << " rank " << i;
    ASSERT_EQ(a[i].keyword_scores.size(), b[i].keyword_scores.size())
        << label << " rank " << i;
    for (size_t k = 0; k < a[i].keyword_scores.size(); ++k) {
      EXPECT_EQ(a[i].keyword_scores[k], b[i].keyword_scores[k])
          << label << " rank " << i << " keyword " << k;
    }
  }
}

void ExpectParityAcrossOptions(const XOntoRank& a, const XOntoRank& b,
                               const std::string& label) {
  for (const char* text : kQueries) {
    for (size_t top_k : {size_t{0}, size_t{3}, size_t{10}}) {
      for (PruningMode pruning : {PruningMode::kExact, PruningMode::kBlockMax}) {
        for (size_t parallelism : {size_t{1}, size_t{0}}) {
          SearchOptions options;
          options.top_k = top_k;
          options.pruning = pruning;
          options.parallelism = parallelism;
          options.use_cache = false;
          std::string tag = label + " [" + text + " k=" +
                            std::to_string(top_k) + " pruning=" +
                            (pruning == PruningMode::kExact ? "exact" : "bmw") +
                            " par=" + std::to_string(parallelism) + "]";
          ExpectIdenticalResults(a.Search(text, options).results,
                                 b.Search(text, options).results, tag);
        }
      }
      if (top_k >= 1) {
        SearchOptions ranked;
        ranked.top_k = top_k;
        ranked.strategy = QueryExecution::kRdil;
        ranked.use_cache = false;
        ExpectIdenticalResults(
            a.Search(text, ranked).results, b.Search(text, ranked).results,
            label + " rdil [" + text + " k=" + std::to_string(top_k) + "]");
      }
    }
  }
}

TEST_F(LsmFixture, ResultsIdenticalAcrossSegmentCounts) {
  auto one = BuildGrouped(kNumDocs);  // single segment
  ASSERT_EQ(one->snapshot()->segments().size(), 1u);
  for (size_t group : {size_t{4}, size_t{2}, size_t{1}}) {
    auto many = BuildGrouped(group);
    ASSERT_EQ(many->snapshot()->segments().size(),
              (kNumDocs + group - 1) / group);
    ExpectParityAcrossOptions(*one, *many,
                              "segments=" + std::to_string(
                                  many->snapshot()->segments().size()));
  }
}

TEST_F(LsmFixture, ElemRankIsPerDocumentAndIdenticalAcrossSegmentations) {
  // ElemRank's edges never leave their document, so each document's
  // stage-1 record ranks that document alone: results stay bit-identical
  // across segmentations, compaction and a save/load round trip.
  const auto mode = IndexBuildOptions::VocabularyMode::kCorpusAndOntology;
  auto one = BuildGrouped(kNumDocs, mode, /*use_elem_rank=*/true);
  const CorpusIndex& index = one->snapshot()->segments().front()->index();
  ASSERT_EQ(index.documents().size(), kNumDocs);
  for (uint32_t d = 0; d < kNumDocs; ++d) {
    const DocumentUnits& record = *index.documents()[d];
    ASSERT_EQ(record.elem_ranks().size(), record.unit_count());
    Corpus alone;
    alone.Add(one->snapshot()->corpus().handle(d));
    ElemRank rank(alone, one->snapshot()->options().elem_rank);
    for (uint32_t unit = 0; unit < record.unit_count(); ++unit) {
      EXPECT_EQ(record.elem_ranks()[unit], rank.rank(unit)) << d;
    }
  }
  // Without ElemRank the records carry no factors, and scores differ.
  auto plain = BuildGrouped(kNumDocs, mode);
  EXPECT_TRUE(plain->snapshot()
                  ->segments()
                  .front()
                  ->index()
                  .documents()
                  .front()
                  ->elem_ranks()
                  .empty());
  SearchOptions all;
  all.use_cache = false;
  EXPECT_NE(plain->Search("asthma", all).results.front().score,
            one->Search("asthma", all).results.front().score);

  for (size_t group : {size_t{2}, size_t{1}}) {
    auto many = BuildGrouped(group, mode, /*use_elem_rank=*/true);
    const std::string label = "elem_rank group=" + std::to_string(group);
    ExpectParityAcrossOptions(*one, *many, label);
    many->CompactNow();
    ExpectParityAcrossOptions(*one, *many, label + " compacted");
  }

  std::string dir = ::testing::TempDir() + "lsm_elem_rank";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(SaveEngineDir(*BuildGrouped(2, mode, true), dir).ok());
  auto loaded = LoadEngineDir(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE((*loaded)->engine().snapshot()->options().use_elem_rank);
  ExpectParityAcrossOptions(*one, (*loaded)->engine(), "elem_rank reloaded");
  std::filesystem::remove_all(dir);
}

TEST_F(LsmFixture, DemandListsAreFlatBlockMaxAndPruneIdentically) {
  // The fixture's engines precompute nothing (VocabularyMode::kNone), so
  // every list below is demand-built: phrases, ontology-only keywords and
  // an out-of-vocabulary token. Each must come back as a flat list with
  // block-max bounds, and the pruned merge must match the exact one.
  auto engine = BuildGrouped(2);
  const char* const queries[] = {
      "\"bronchial structure\" theophylline",  // phrase, never in the text
      "\"cardiac arrest\"",                    // phrase on its own
      "asthma theophylline",
      "asthma zzqxvocab",                       // out of vocabulary
  };
  bool pruned_somewhere = false;
  for (const char* text : queries) {
    for (size_t top_k : {size_t{1}, size_t{3}, size_t{10}}) {
      SearchOptions exact;
      exact.top_k = top_k;
      exact.use_cache = false;
      exact.parallelism = 1;
      exact.pruning = PruningMode::kExact;
      SearchOptions blockmax = exact;
      blockmax.pruning = PruningMode::kBlockMax;
      SearchResponse a = engine->Search(text, exact);
      SearchResponse b = engine->Search(text, blockmax);
      std::string tag = std::string(text) + " k=" + std::to_string(top_k);
      ExpectIdenticalResults(a.results, b.results, tag);
      // The exact path reports no pruning work, heap or not.
      EXPECT_EQ(a.stats.threshold_updates, 0u) << tag;
      EXPECT_EQ(a.stats.blocks_scored, 0u) << tag;
      EXPECT_EQ(a.stats.blocks_skipped, 0u) << tag;
      pruned_somewhere |= b.stats.threshold_updates > 0;
    }
  }
  // Demand lists now carry block-max, so the pruned merge engages.
  EXPECT_TRUE(pruned_somewhere);

  size_t nonempty = 0;
  size_t demand_postings = 0;
  for (const auto& segment : engine->snapshot()->segments()) {
    const CorpusIndex& index = segment->index();
    EXPECT_EQ(index.flat_dil().keyword_count(), 0u);  // nothing precomputed
    for (const char* text : queries) {
      for (const Keyword& kw : ParseQuery(text).keywords) {
        DilListRef ref = index.GetListRef(kw);
        ASSERT_NE(ref.flat, nullptr) << kw.Canonical();
        EXPECT_TRUE(ref.flat->has_block_max()) << kw.Canonical();
        if (!ref.empty()) ++nonempty;
        // explain / query expansion thaw the very list that is served.
        EXPECT_EQ(index.GetEntry(kw)->postings, ref.flat->ThawPostings(ref.list))
            << kw.Canonical();
      }
    }
    demand_postings += index.TotalPostings();
  }
  EXPECT_GT(nonempty, 0u);
  // Persistence accounting sees the demand-built lists.
  EXPECT_GT(demand_postings, 0u);
}

TEST_F(LsmFixture, CommitIsIncrementalPerSegmentStats) {
  auto engine = BuildGrouped(1);
  auto snapshot = engine->snapshot();
  ASSERT_EQ(snapshot->segments().size(), kNumDocs);
  uint32_t expect_doc = 0;
  for (const auto& segment : snapshot->segments()) {
    EXPECT_EQ(segment->first_doc(), expect_doc);
    EXPECT_EQ(segment->num_docs(), 1u);  // one commit per doc -> one doc each
    expect_doc = segment->end_doc();
  }
  EXPECT_EQ(expect_doc, kNumDocs);
}

TEST_F(LsmFixture, CompactionPreservesResultsExactly) {
  for (IndexBuildOptions::VocabularyMode mode : kAllVocabularyModes) {
    const std::string label = "vocabulary=" + ModeName(mode);
    auto reference = BuildGrouped(kNumDocs, mode);
    auto engine = BuildGrouped(1, mode);
    ASSERT_EQ(engine->snapshot()->segments().size(), kNumDocs) << label;
    // Queries before compaction fill the demand caches the merge carries.
    ExpectParityAcrossOptions(*engine, *reference, label + " pre-compaction");

    engine->CompactNow();
    // fanin=4 over 8 single-document segments: two merges into tier 1,
    // and the drain runs to a fixed point.
    size_t after = engine->snapshot()->segments().size();
    EXPECT_LT(after, kNumDocs) << label;
    ExpectParityAcrossOptions(*engine, *reference, label + " post-compaction");

    // Every merged segment's lists equal a fresh seal of its documents:
    // the precomputed dil, and every demand-built list carried over.
    auto snapshot = engine->snapshot();
    for (const auto& segment : snapshot->segments()) {
      ExpectServedListsMatchFreshSeal(*segment, *snapshot,
                                      /*same_vocabulary=*/true, label);
      if (segment->num_docs() > 1) {
        EXPECT_FALSE(segment->index().DemandKeywords().empty()) << label;
      }
    }

    // Compacting a compacted engine is a no-op for results too.
    engine->CompactNow();
    ExpectParityAcrossOptions(*engine, *reference, label + " re-compaction");
  }
}

TEST_F(LsmFixture, BackgroundCompactionConvergesToSameResults) {
  for (IndexBuildOptions::VocabularyMode mode : kAllVocabularyModes) {
    const std::string label = "vocabulary=" + ModeName(mode);
    auto reference = BuildGrouped(kNumDocs, mode);
    // fanin=2 compacts aggressively in the background as commits land.
    auto engine = std::make_unique<XOntoRank>(
        Corpus(), OntologySet(onto_),
        LsmOptionsWith(2, /*auto_compact=*/true, mode));
    for (uint32_t i = 0; i < kNumDocs; ++i) engine->AddDocument(Doc(i));
    engine->WaitForCompactionIdle();
    engine->CompactNow();  // drain any run the idle window missed
    ExpectParityAcrossOptions(*engine, *reference,
                              label + " background-compaction");
  }
}

TEST_F(LsmFixture, SingleDocCommitsKeepLogarithmicSegmentCount) {
  // Document-count tiers: N single-document commits compact like a
  // base-fanin counter. Precomputed vocabularies give the segments widely
  // spread posting counts, which a posting-count policy would tier apart.
  constexpr uint32_t kCommits = 64;
  constexpr size_t kFanin = 4;
  CdaGeneratorOptions gen_options;
  gen_options.num_documents = kCommits;
  gen_options.seed = 1234;
  CdaGenerator generator(onto_, gen_options);
  const auto mode = IndexBuildOptions::VocabularyMode::kCorpusAndOntology;

  auto engine = std::make_unique<XOntoRank>(
      Corpus(), OntologySet(onto_),
      LsmOptionsWith(kFanin, /*auto_compact=*/true, mode));
  auto reference = std::make_unique<XOntoRank>(
      Corpus(), OntologySet(onto_),
      LsmOptionsWith(kFanin, /*auto_compact=*/false, mode));
  for (uint32_t i = 0; i < kCommits; ++i) {
    engine->AddDocument(CdaToXml(generator.GenerateDocument(i), i));
    reference->StageDocument(CdaToXml(generator.GenerateDocument(i), i));
  }
  reference->Commit();
  ASSERT_EQ(reference->snapshot()->segments().size(), 1u);
  engine->WaitForCompactionIdle();
  engine->CompactNow();

  // 1 + (fanin - 1) * (floor(log_fanin N) + 1).
  size_t levels = 0;
  for (size_t cap = 1; cap <= kCommits; cap *= kFanin) ++levels;
  const size_t bound = 1 + (kFanin - 1) * levels;
  size_t segments = engine->snapshot()->segments().size();
  EXPECT_LE(segments, bound) << "bound " << bound;
  ExpectParityAcrossOptions(*engine, *reference, "log-segments");
}

TEST_F(LsmFixture, MixedReadersWritersAndCompaction) {
  // TSan leg: concurrent AddDocument (with auto compaction), searches on
  // pinned snapshots, and a final parity check. Determinism comes from
  // joining everything before comparing.
  auto engine = std::make_unique<XOntoRank>(
      Corpus(), OntologySet(onto_), LsmOptionsWith(2, /*auto_compact=*/true));
  std::thread writer([&] {
    for (uint32_t i = 0; i < kNumDocs; ++i) engine->AddDocument(Doc(i));
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      SearchOptions options;
      options.top_k = 5;
      options.use_cache = false;
      for (int i = 0; i < 50; ++i) {
        auto snapshot = engine->snapshot();
        SearchResponse response = snapshot->Search(
            ParseQuery("asthma theophylline"), options);
        EXPECT_LE(response.results.size(), 5u);
        for (const QueryResult& result : response.results) {
          // Every result must resolve against the snapshot it came from.
          EXPECT_NE(snapshot->ResolveResult(result), nullptr);
        }
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();
  engine->WaitForCompactionIdle();

  auto reference = BuildGrouped(kNumDocs);
  ExpectParityAcrossOptions(*engine, *reference, "concurrent-ingest");
}

TEST_F(LsmFixture, SaveLoadRoundtripAndGenerations) {
  for (IndexBuildOptions::VocabularyMode mode :
       {IndexBuildOptions::VocabularyMode::kNone,
        IndexBuildOptions::VocabularyMode::kCorpusAndOntology}) {
    const std::string label = "vocabulary=" + ModeName(mode);
    std::string dir = ::testing::TempDir() + "lsm_roundtrip";
    std::filesystem::remove_all(dir);

    auto engine = BuildGrouped(2, mode);
    ASSERT_EQ(engine->snapshot()->segments().size(), 4u);
    ASSERT_TRUE(SaveSnapshot(*engine->snapshot(), dir).ok());

    auto first = LoadManifest(dir + "/MANIFEST");
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ(first.value().generation, 1u);
    EXPECT_EQ(first.value().segments.size(), 4u);

    auto loaded = LoadEngineDir(dir);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    XOntoRank& reloaded = (*loaded)->engine();
    EXPECT_EQ(reloaded.snapshot()->segments().size(), 4u);
    ExpectParityAcrossOptions(reloaded, *engine, label + " reloaded");

    // Continued commits on the reloaded engine: O(delta), fresh segment ids.
    CdaGeneratorOptions more;
    more.num_documents = kNumDocs + 2;
    more.seed = 1234;
    CdaGenerator extended_gen(onto_, more);
    for (uint32_t i = kNumDocs; i < kNumDocs + 2; ++i) {
      uint32_t id =
          reloaded.AddDocument(CdaToXml(extended_gen.GenerateDocument(i), 0));
      EXPECT_EQ(id, i);
    }
    EXPECT_EQ(reloaded.snapshot()->segments().size(), 6u);
    ASSERT_TRUE(SaveSnapshot(*reloaded.snapshot(), dir).ok());
    auto second = LoadManifest(dir + "/MANIFEST");
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.value().generation, 2u);
    EXPECT_EQ(second.value().segments.size(), 6u);

    // The extended dir reloads and matches a fresh engine over 10 docs.
    auto reloaded2 = LoadEngineDir(dir);
    ASSERT_TRUE(reloaded2.ok()) << reloaded2.status().ToString();
    auto fresh = std::make_unique<XOntoRank>(
        Corpus(), OntologySet(onto_),
        LsmOptionsWith(4, /*auto_compact=*/false, mode));
    for (uint32_t i = 0; i < kNumDocs + 2; ++i) {
      fresh->AddDocument(CdaToXml(extended_gen.GenerateDocument(i), 0));
    }
    ExpectParityAcrossOptions((*reloaded2)->engine(), *fresh,
                              label + " reloaded-extended");

    // A reopened engine seals new documents without precomputing, while
    // its reloaded segments keep the lists they were saved with; merging
    // the two kinds must keep the new documents' postings.
    auto snapshot = (*reloaded2)->engine().snapshot();
    auto mixed = MergeSegments(std::span(snapshot->segments()).subspan(3),
                               /*id=*/100, snapshot->context(),
                               snapshot->options());
    EXPECT_EQ(mixed->num_docs(), 4u);
    ExpectServedListsMatchFreshSeal(*mixed, *snapshot,
                                    /*same_vocabulary=*/false,
                                    label + " reloaded-merged");
    std::filesystem::remove_all(dir);
  }
}

TEST_F(LsmFixture, CrashBeforeManifestPublishLoadsPreviousGeneration) {
  std::string dir = ::testing::TempDir() + "lsm_crash";
  std::filesystem::remove_all(dir);

  auto engine = BuildGrouped(kNumDocs);
  ASSERT_TRUE(SaveSnapshot(*engine->snapshot(), dir).ok());

  // Snapshot the generation-1 MANIFEST, then run a second save (two more
  // docs) and restore the old MANIFEST over the new one: exactly the state
  // a crash between segment/doc writes and the MANIFEST rename leaves
  // behind — new doc files and segment files present but unreferenced.
  std::string old_manifest;
  {
    std::ifstream in(dir + "/MANIFEST", std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    old_manifest = buffer.str();
  }
  CdaGeneratorOptions more;
  more.num_documents = kNumDocs + 2;
  more.seed = 1234;
  CdaGenerator extended_gen(onto_, more);
  for (uint32_t i = kNumDocs; i < kNumDocs + 2; ++i) {
    engine->AddDocument(CdaToXml(extended_gen.GenerateDocument(i), 0));
  }
  ASSERT_TRUE(SaveSnapshot(*engine->snapshot(), dir).ok());
  {
    std::ofstream out(dir + "/MANIFEST", std::ios::binary);
    out << old_manifest;
  }

  auto loaded = LoadEngineDir(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->engine().corpus_size(), kNumDocs);
  auto reference = BuildGrouped(kNumDocs);
  ExpectParityAcrossOptions((*loaded)->engine(), *reference,
                            "previous-generation");
  std::filesystem::remove_all(dir);
}

TEST_F(LsmFixture, CorruptManifestIsRejectedNotTrusted) {
  std::string dir = ::testing::TempDir() + "lsm_corrupt";
  std::filesystem::remove_all(dir);
  auto engine = BuildGrouped(4);
  ASSERT_TRUE(SaveSnapshot(*engine->snapshot(), dir).ok());

  std::string good;
  {
    std::ifstream in(dir + "/MANIFEST", std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    good = buffer.str();
  }
  auto write_manifest = [&](const std::string& bytes) {
    std::ofstream out(dir + "/MANIFEST", std::ios::binary);
    out << bytes;
  };

  // Truncations at every prefix length must fail cleanly (never crash,
  // never load).
  for (size_t len = 0; len < good.size(); ++len) {
    ASSERT_FALSE(DecodeManifest(std::string_view(good).substr(0, len)).ok())
        << "prefix " << len;
  }
  // Any single bit flip breaks the CRC (or the magic).
  for (size_t pos = 0; pos < good.size(); pos += 7) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    EXPECT_FALSE(DecodeManifest(bad).ok()) << "flip at " << pos;
  }
  // CRC-valid but semantically hostile lists are still rejected.
  {
    EngineManifest hostile;
    hostile.generation = 0;  // must be >= 1
    EXPECT_FALSE(DecodeManifest(EncodeManifest(hostile)).ok());
  }
  {
    EngineManifest hostile;
    hostile.generation = 1;
    hostile.segments = {{0, 0, 2}, {1, 3, 4}};  // gap: does not tile
    EXPECT_FALSE(DecodeManifest(EncodeManifest(hostile)).ok());
  }
  {
    EngineManifest hostile;
    hostile.generation = 1;
    hostile.segments = {{0, 0, 2}, {0, 2, 4}};  // duplicate id
    EXPECT_FALSE(DecodeManifest(EncodeManifest(hostile)).ok());
  }
  {
    EngineManifest hostile;
    hostile.generation = 1;
    hostile.segments = {{0, 0, 0}};  // empty range
    EXPECT_FALSE(DecodeManifest(EncodeManifest(hostile)).ok());
  }
  {
    // More documents than the directory holds: decodes fine, load rejects.
    EngineManifest hostile;
    hostile.generation = 1;
    hostile.segments = {{0, 0, 1000}};
    ASSERT_TRUE(DecodeManifest(EncodeManifest(hostile)).ok());
    write_manifest(EncodeManifest(hostile));
    EXPECT_FALSE(LoadEngineDir(dir).ok());
  }

  // A corrupted on-disk MANIFEST fails the whole load.
  write_manifest(good.substr(0, good.size() / 2));
  EXPECT_FALSE(LoadEngineDir(dir).ok());

  // Restoring the good bytes restores the engine.
  write_manifest(good);
  EXPECT_TRUE(LoadEngineDir(dir).ok());
  std::filesystem::remove_all(dir);
}

TEST_F(LsmFixture, ManifestEncodeDecodeRoundtrip) {
  EngineManifest manifest;
  manifest.generation = (uint64_t{3} << 32) | 7;  // exercises the hi word
  manifest.segments = {{(uint64_t{1} << 40) | 5, 0, 3}, {2, 3, 4}, {9, 4, 9}};
  auto decoded = DecodeManifest(EncodeManifest(manifest));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().generation, manifest.generation);
  ASSERT_EQ(decoded.value().segments.size(), manifest.segments.size());
  for (size_t i = 0; i < manifest.segments.size(); ++i) {
    EXPECT_EQ(decoded.value().segments[i].id, manifest.segments[i].id);
    EXPECT_EQ(decoded.value().segments[i].first_doc,
              manifest.segments[i].first_doc);
    EXPECT_EQ(decoded.value().segments[i].end_doc,
              manifest.segments[i].end_doc);
  }
}

}  // namespace
}  // namespace xontorank
