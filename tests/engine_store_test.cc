#include "storage/engine_store.h"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "cda/cda_generator.h"
#include "gtest/gtest.h"
#include "onto/loinc_fragment.h"
#include "onto/snomed_fragment.h"
#include "storage/coding.h"
#include "storage/manifest.h"
#include "tests/test_util.h"

namespace xontorank {
namespace {

using testing_util::SearchTop;

class EngineStoreFixture : public ::testing::Test {
 protected:
  EngineStoreFixture()
      : snomed_(BuildSnomedCardiologyFragment()),
        loinc_(BuildLoincDocumentFragment()),
        dir_((std::filesystem::temp_directory_path() /
              ("xontorank_engine_test_" + std::to_string(::getpid())))
                 .string()) {}

  ~EngineStoreFixture() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::unique_ptr<XOntoRank> BuildEngine(
      IndexBuildOptions::VocabularyMode vocabulary =
          IndexBuildOptions::VocabularyMode::kNone,
      size_t max_concepts_per_keyword = 0) {
    CdaGeneratorOptions gen_options;
    gen_options.num_documents = 6;
    gen_options.seed = 55;
    CdaGenerator generator(snomed_, gen_options);
    OntologySet systems;
    systems.Add(snomed_);
    systems.Add(loinc_);
    IndexBuildOptions options;
    options.strategy = Strategy::kRelationships;
    options.score.decay = 0.4;           // non-default, must round-trip
    options.score.ontology_weight = 0.6;
    options.score.max_concepts_per_keyword = max_concepts_per_keyword;
    options.vocabulary_mode = vocabulary;
    return std::make_unique<XOntoRank>(generator.GenerateCorpus(), systems,
                                       options);
  }

  /// The last document of a seed-55 corpus of `index + 1` documents.
  XmlDocument ExtraDocument(size_t index) {
    CdaGeneratorOptions more;
    more.num_documents = index + 1;
    more.seed = 55;
    return std::move(CdaGenerator(snomed_, more).GenerateCorpus().back());
  }

  static std::string ReadBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  static void WriteBytes(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Overwrites the fixed32 at `offset` of dir_'s MANIFEST and re-signs
  /// its trailing CRC, so the patched field reaches the semantic checks.
  void PatchManifest(size_t offset, uint32_t value) {
    std::string bytes = ReadBytes(dir_ + "/MANIFEST");
    ASSERT_GT(bytes.size(), offset + 8);
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    uint32_t crc = Crc32(std::string_view(bytes).substr(0, bytes.size() - 4));
    std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof(crc));
    WriteBytes(dir_ + "/MANIFEST", bytes);
  }

  /// Top-10 answers of every query in kQueries.
  template <typename Engine>
  static std::vector<std::vector<QueryResult>> Answers(const Engine& engine) {
    std::vector<std::vector<QueryResult>> answers;
    for (const char* q : kQueries) answers.push_back(SearchTop(engine, q, 10));
    return answers;
  }

  /// Bit-identical answers: same elements, same scores, same order.
  static void ExpectSameAnswers(
      const std::vector<std::vector<QueryResult>>& got,
      const std::vector<std::vector<QueryResult>>& want,
      const std::string& label) {
    ASSERT_EQ(got.size(), want.size()) << label;
    for (size_t q = 0; q < got.size(); ++q) {
      ASSERT_EQ(got[q].size(), want[q].size()) << label << " " << kQueries[q];
      for (size_t r = 0; r < got[q].size(); ++r) {
        EXPECT_EQ(got[q][r].element, want[q][r].element)
            << label << " " << kQueries[q];
        EXPECT_EQ(got[q][r].score, want[q][r].score)
            << label << " " << kQueries[q];
      }
    }
  }

  static constexpr const char* kQueries[] = {
      "asthma",        "hypertension",
      "disorder",      "\"cardiac arrest\"",
      "epinephrine",   "\"cardiac arrest\" epinephrine",
      "\"bronchial structure\" theophylline"};

  /// The engine's precomputed postings, summed over its segments.
  static size_t PrecomputedPostings(const XOntoRank& engine) {
    size_t postings = 0;
    for (const auto& segment : engine.snapshot()->segments()) {
      postings += segment->index().flat_dil().total_postings();
    }
    return postings;
  }

  Ontology snomed_;
  Ontology loinc_;
  std::string dir_;
};

TEST_F(EngineStoreFixture, SaveLoadPreservesQueryResults) {
  auto engine = BuildEngine();
  // Materialize a few entries so the persisted index is non-trivial.
  std::vector<std::string> queries = {"\"cardiac arrest\" epinephrine",
                                      "asthma", "\"bronchial structure\""};
  std::vector<std::vector<QueryResult>> before;
  for (const std::string& q : queries) before.push_back(SearchTop(*engine, q, 10));

  ASSERT_TRUE(SaveEngineDir(*engine, dir_).ok());
  auto loaded = LoadEngineDir(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  for (size_t i = 0; i < queries.size(); ++i) {
    auto after = SearchTop((*loaded)->engine(), queries[i], 10);
    ASSERT_EQ(after.size(), before[i].size()) << queries[i];
    for (size_t r = 0; r < after.size(); ++r) {
      EXPECT_EQ(after[r].element, before[i][r].element) << queries[i];
      EXPECT_NEAR(after[r].score, before[i][r].score, 1e-5) << queries[i];
    }
  }
}

TEST_F(EngineStoreFixture, SegmentFormatSaveLoadPreservesQueryResults) {
  // A precomputed vocabulary, so the segment file carries real lists.
  auto engine =
      BuildEngine(IndexBuildOptions::VocabularyMode::kCorpusAndOntology);
  std::vector<std::string> queries = {"\"cardiac arrest\" epinephrine",
                                      "asthma", "\"bronchial structure\""};
  std::vector<std::vector<QueryResult>> before;
  for (const std::string& q : queries) before.push_back(SearchTop(*engine, q, 10));

  ASSERT_TRUE(SaveEngineDir(*engine, dir_).ok());
  // One mmap-native file per live segment plus the binary MANIFEST; the
  // retired single-index and text-record files are never written.
  for (const auto& segment : engine->snapshot()->segments()) {
    EXPECT_TRUE(std::filesystem::exists(
        dir_ + "/seg-" + std::to_string(segment->id()) + ".xoseg"));
  }
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/MANIFEST"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/index.xoseg"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/index.xodl"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/manifest.tsv"));

  auto loaded = LoadEngineDir(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto after = SearchTop((*loaded)->engine(), queries[i], 10);
    ASSERT_EQ(after.size(), before[i].size()) << queries[i];
    for (size_t r = 0; r < after.size(); ++r) {
      EXPECT_EQ(after[r].element, before[i][r].element) << queries[i];
      EXPECT_EQ(after[r].score, before[i][r].score) << queries[i];
    }
  }
}

TEST_F(EngineStoreFixture, CorruptSegmentIndexFailsWithSectionContext) {
  auto engine =
      BuildEngine(IndexBuildOptions::VocabularyMode::kCorpusAndOntology);
  ASSERT_TRUE(SaveEngineDir(*engine, dir_).ok());

  ASSERT_FALSE(engine->snapshot()->segments().empty());
  std::string index_path =
      dir_ + "/seg-" +
      std::to_string(engine->snapshot()->segments().front()->id()) + ".xoseg";
  std::string data;
  {
    std::ifstream in(index_path, std::ios::binary);
    data.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(data.size(), 400u);
  data[data.size() / 2] ^= 0x20;
  {
    std::ofstream out(index_path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  auto loaded = LoadEngineDir(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find(index_path), std::string::npos)
      << loaded.status().message();
  EXPECT_NE(loaded.status().message().find("section "), std::string::npos)
      << loaded.status().message();
}

TEST_F(EngineStoreFixture, OptionsRoundTrip) {
  // Every persisted field, away from its default.
  IndexBuildOptions options;
  options.strategy = Strategy::kGraph;
  options.score.decay = 0.4;
  options.score.threshold = 0.15;
  options.score.ontology_weight = 0.6;
  options.score.max_concepts_per_keyword = 7;
  options.score.bm25.k1 = 1.6;
  options.score.bm25.b = 0.55;
  options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kCorpusOnly;
  options.use_elem_rank = true;
  options.elem_rank_blend = 0.3;
  options.lsm.compaction_fanin = 3;
  options.lsm.auto_compact = false;
  CdaGeneratorOptions gen_options;
  gen_options.num_documents = 3;
  gen_options.seed = 55;
  XOntoRank engine(CdaGenerator(snomed_, gen_options).GenerateCorpus(),
                   OntologySet(snomed_), options);
  ASSERT_TRUE(SaveEngineDir(engine, dir_).ok());
  auto loaded = LoadEngineDir(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const IndexBuildOptions& got = (*loaded)->engine().snapshot()->options();
  EXPECT_EQ(got.strategy, options.strategy);
  EXPECT_EQ(got.score.decay, options.score.decay);
  EXPECT_EQ(got.score.threshold, options.score.threshold);
  EXPECT_EQ(got.score.ontology_weight, options.score.ontology_weight);
  EXPECT_EQ(got.score.max_concepts_per_keyword,
            options.score.max_concepts_per_keyword);
  EXPECT_EQ(got.score.bm25.k1, options.score.bm25.k1);
  EXPECT_EQ(got.score.bm25.b, options.score.bm25.b);
  EXPECT_EQ(got.vocabulary_mode, options.vocabulary_mode);
  EXPECT_EQ(got.use_elem_rank, options.use_elem_rank);
  EXPECT_EQ(got.elem_rank_blend, options.elem_rank_blend);
  EXPECT_EQ(got.lsm.compaction_fanin, options.lsm.compaction_fanin);
  EXPECT_EQ(got.lsm.auto_compact, options.lsm.auto_compact);

  // The vocabulary mode round-trips, so a commit on the reloaded engine
  // seals a segment with precomputed lists rather than a lazy one.
  auto eager =
      BuildEngine(IndexBuildOptions::VocabularyMode::kCorpusAndOntology);
  std::filesystem::remove_all(dir_);
  ASSERT_TRUE(SaveEngineDir(*eager, dir_).ok());
  auto reloaded = LoadEngineDir(dir_);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  XOntoRank& reopened = (*reloaded)->engine();
  EXPECT_EQ(reopened.snapshot()->options().vocabulary_mode,
            IndexBuildOptions::VocabularyMode::kCorpusAndOntology);
  reopened.AddDocument(ExtraDocument(6));
  auto snap = reopened.snapshot();
  ASSERT_EQ(snap->corpus_size(), 7u);
  EXPECT_GT(snap->segments().back()->index().flat_dil().keyword_count(), 0u);
}

TEST_F(EngineStoreFixture, ConceptCapRoundTripKeepsAnswers) {
  // The §IX approximation cap changes which concepts a keyword reaches, so
  // a reloaded lazy engine must build its demand lists under the same cap.
  auto live = BuildEngine(IndexBuildOptions::VocabularyMode::kNone,
                          /*max_concepts_per_keyword=*/3);
  ASSERT_TRUE(SaveEngineDir(*live, dir_).ok());
  auto loaded = LoadEngineDir(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  XOntoRank& reloaded = (*loaded)->engine();
  EXPECT_EQ(reloaded.snapshot()->options().score.max_concepts_per_keyword,
            3u);
  ExpectSameAnswers(Answers(reloaded), Answers(*live), "reloaded");

  // A commit seals under the saved options on both engines.
  live->AddDocument(ExtraDocument(6));
  reloaded.AddDocument(ExtraDocument(6));
  ExpectSameAnswers(Answers(reloaded), Answers(*live), "after commit");
}

TEST_F(EngineStoreFixture, ReloadedBuildStatsAreExact) {
  // A multi-segment directory: loading defers each segment's stage 1, and
  // build_stats() must still count every node and code node.
  using Mode = IndexBuildOptions::VocabularyMode;
  for (Mode vocabulary : {Mode::kNone, Mode::kCorpusAndOntology}) {
    CdaGeneratorOptions gen_options;
    gen_options.num_documents = 8;
    gen_options.seed = 55;
    std::vector<XmlDocument> docs =
        CdaGenerator(snomed_, gen_options).GenerateCorpus();
    std::vector<XmlDocument> extra;
    for (size_t i = 3; i < docs.size(); ++i) {
      extra.push_back(std::move(docs[i]));
    }
    docs.resize(3);
    OntologySet systems;
    systems.Add(snomed_);
    systems.Add(loinc_);
    IndexBuildOptions options;
    options.vocabulary_mode = vocabulary;
    options.lsm.auto_compact = false;
    XOntoRank live(std::move(docs), systems, options);
    for (XmlDocument& doc : extra) live.AddDocument(std::move(doc));
    ASSERT_EQ(live.snapshot()->segments().size(), 6u);

    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(SaveEngineDir(live, dir_).ok());
    auto loaded = LoadEngineDir(dir_);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const IndexBuildStats want = live.build_stats();
    const IndexBuildStats got = (*loaded)->engine().build_stats();
    ASSERT_GT(want.indexed_nodes, 0u);
    ASSERT_GT(want.code_nodes, 0u);
    EXPECT_EQ(got.documents, want.documents);
    EXPECT_EQ(got.indexed_nodes, want.indexed_nodes);
    EXPECT_EQ(got.code_nodes, want.code_nodes);
    EXPECT_EQ(got.precomputed_keywords, want.precomputed_keywords);
    EXPECT_EQ(got.total_postings, want.total_postings);
  }
}

TEST_F(EngineStoreFixture, SystemsRoundTrip) {
  auto engine = BuildEngine();
  ASSERT_TRUE(SaveEngineDir(*engine, dir_).ok());
  auto loaded = LoadEngineDir(dir_);
  ASSERT_TRUE(loaded.ok());
  const OntologySet& systems =
      (*loaded)->engine().snapshot()->context()->systems();
  ASSERT_EQ(systems.size(), 2u);
  EXPECT_NE(systems.FindSystem(kSnomedSystemId), OntologySet::npos);
  EXPECT_NE(systems.FindSystem(kLoincSystemId), OntologySet::npos);
}

TEST_F(EngineStoreFixture, AdoptedEntriesServeWithoutRecomputation) {
  auto engine =
      BuildEngine(IndexBuildOptions::VocabularyMode::kCorpusAndOntology);
  size_t postings = PrecomputedPostings(*engine);
  ASSERT_GT(postings, 0u);
  ASSERT_TRUE(SaveEngineDir(*engine, dir_).ok());
  auto loaded = LoadEngineDir(dir_);
  ASSERT_TRUE(loaded.ok());
  const XOntoRank& reloaded = (*loaded)->engine();
  EXPECT_EQ(PrecomputedPostings(reloaded), postings);
  // A persisted keyword resolves to its mapped list: no demand build.
  ASSERT_FALSE(SearchTop(reloaded, "asthma", 5).empty());
  for (const auto& segment : reloaded.snapshot()->segments()) {
    EXPECT_TRUE(segment->index().DemandKeywords().empty());
  }
}

TEST_F(EngineStoreFixture, LoadMissingDirectoryFails) {
  auto loaded = LoadEngineDir("/no/such/engine/dir");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(EngineStoreFixture, CorruptManifestFails) {
  // Version-2 field offsets (storage/manifest.h).
  constexpr size_t kVersion = 4, kOntologyCount = 16, kStrategy = 20,
                   kVocabulary = 24, kElemRankFlag = 28, kAutoCompactFlag = 32,
                   kDecayHiWord = 56;
  auto engine = BuildEngine();
  // CRC-valid but hostile records: unknown strategy and vocabulary codes,
  // a flag of 2, a NaN decay (hi word of a quiet NaN), zero ontologies.
  for (const auto& [offset, value] : std::vector<std::pair<size_t, uint32_t>>{
           {kStrategy, 4},
           {kVocabulary, 3},
           {kElemRankFlag, 2},
           {kAutoCompactFlag, 2},
           {kDecayHiWord, 0x7ff80000u},
           {kOntologyCount, 0}}) {
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(SaveEngineDir(*engine, dir_).ok());
    PatchManifest(offset, value);
    auto hostile = LoadEngineDir(dir_);
    ASSERT_FALSE(hostile.ok()) << offset;
    EXPECT_EQ(hostile.status().code(), StatusCode::kCorruption) << offset;
  }

  // The retired layout is named: a version-1 MANIFEST, or its text
  // record without any MANIFEST.
  std::filesystem::remove_all(dir_);
  ASSERT_TRUE(SaveEngineDir(*engine, dir_).ok());
  PatchManifest(kVersion, 1);
  auto v1 = LoadEngineDir(dir_);
  ASSERT_FALSE(v1.ok());
  EXPECT_EQ(v1.status().code(), StatusCode::kCorruption);
  EXPECT_NE(v1.status().message().find("retired manifest.tsv layout"),
            std::string::npos)
      << v1.status().message();
  std::filesystem::remove(dir_ + "/MANIFEST");
  WriteBytes(dir_ + "/manifest.tsv", "format\txontorank-engine\t1\n");
  auto text_only = LoadEngineDir(dir_);
  ASSERT_FALSE(text_only.ok());
  EXPECT_EQ(text_only.status().code(), StatusCode::kCorruption);
  EXPECT_NE(text_only.status().message().find("retired manifest.tsv layout"),
            std::string::npos)
      << text_only.status().message();
  EXPECT_NE(text_only.status().message().find("save-engine"),
            std::string::npos);
}

TEST_F(EngineStoreFixture, SegmentRangePastDocumentsNamesMissingFile) {
  auto engine = BuildEngine();
  ASSERT_TRUE(SaveEngineDir(*engine, dir_).ok());
  auto manifest = LoadManifest(dir_ + "/MANIFEST");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest->segments.back().end_doc, 6u);
  // Two documents never saved, then a claim no directory can back: the
  // load must size nothing by it and still name the first missing file.
  for (uint32_t end_doc : {8u, UINT32_MAX}) {
    manifest->segments.back().end_doc = end_doc;
    ASSERT_TRUE(SaveManifest(*manifest, dir_ + "/MANIFEST").ok());
    auto loaded = LoadEngineDir(dir_);
    ASSERT_FALSE(loaded.ok()) << end_doc;
    EXPECT_NE(loaded.status().message().find("corpus/doc_00006.xml"),
              std::string::npos)
        << end_doc << ": " << loaded.status().message();
  }
}

TEST_F(EngineStoreFixture, LoadReportsFirstFailureInDirectoryOrder) {
  // A load opens segments and parses documents in one parallel pass,
  // segments with the most documents first; the error it returns must
  // still be the one a serial load meets first. The segments here hold,
  // in MANIFEST order, 2, 1 and 3 documents, so of the two corrupt ones
  // the first in MANIFEST order is the last to be claimed.
  OntologySet systems;
  systems.Add(snomed_);
  systems.Add(loinc_);
  IndexBuildOptions options;
  options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kCorpusOnly;
  options.lsm.auto_compact = false;
  CdaGeneratorOptions gen_options;
  gen_options.num_documents = 2;
  gen_options.seed = 55;
  XOntoRank engine(CdaGenerator(snomed_, gen_options).GenerateCorpus(),
                   systems, options);
  engine.AddDocument(ExtraDocument(2));
  for (size_t d = 3; d < 6; ++d) engine.StageDocument(ExtraDocument(d));
  engine.Commit();
  ASSERT_TRUE(SaveEngineDir(engine, dir_).ok());
  auto manifest = LoadManifest(dir_ + "/MANIFEST");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_EQ(manifest->segments.size(), 3u);
  ASSERT_EQ(manifest->segments[2].first_doc, 3u);
  ASSERT_EQ(manifest->segments[2].end_doc, 6u);

  auto segment_path = [&](size_t s) {
    return dir_ + "/" + SegmentFileName(manifest->segments[s].id);
  };
  // Flip a payload byte of segments 1 and 2, inside a checksummed section.
  for (size_t s : {size_t{1}, size_t{2}}) {
    SegmentFile::Options no_verify;
    no_verify.verify_checksums = false;
    uint64_t offset = 0;
    {
      auto file = SegmentFile::Open(segment_path(s), no_verify);
      ASSERT_TRUE(file.ok()) << file.status().ToString();
      for (const auto& info : (*file)->sections()) {
        if (info.bytes > 0) {
          offset = info.offset + info.bytes / 2;
          break;
        }
      }
    }
    ASSERT_GT(offset, 0u);
    std::string bytes = ReadBytes(segment_path(s));
    bytes[offset] ^= 0x20;
    WriteBytes(segment_path(s), bytes);
  }
  // Documents 2 and 4 stop being XML.
  const std::string doc2 = dir_ + "/corpus/doc_00002.xml";
  const std::string doc4 = dir_ + "/corpus/doc_00004.xml";
  const std::string doc2_bytes = ReadBytes(doc2);
  const std::string doc4_bytes = ReadBytes(doc4);
  WriteBytes(doc2, "<ClinicalDocument><unclosed>");
  WriteBytes(doc4, "<ClinicalDocument><unclosed>");

  for (int load = 0; load < 20; ++load) {
    auto loaded = LoadEngineDir(dir_);
    ASSERT_FALSE(loaded.ok()) << load;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << load;
    EXPECT_NE(loaded.status().message().find(doc2), std::string::npos)
        << load << ": " << loaded.status().message();
  }

  WriteBytes(doc2, doc2_bytes);
  WriteBytes(doc4, doc4_bytes);
  for (int load = 0; load < 20; ++load) {
    auto loaded = LoadEngineDir(dir_);
    ASSERT_FALSE(loaded.ok()) << load;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << load;
    EXPECT_NE(loaded.status().message().find(segment_path(1)),
              std::string::npos)
        << load << ": " << loaded.status().message();
    EXPECT_NE(loaded.status().message().find("CRC mismatch"),
              std::string::npos)
        << load << ": " << loaded.status().message();
  }
}

TEST_F(EngineStoreFixture, FailedSaveAtEveryStepLeavesPreviousGeneration) {
  // A save that fails at any file must leave the directory loading as the
  // previous generation g, answering exactly as g did. A directory
  // planted at "<file>.tmp" makes WriteFileDurable fail at that file.
  namespace fs = std::filesystem;
  for (bool compact : {false, true}) {
    const std::string label = compact ? "after CompactNow" : "plain";
    OntologySet systems;
    systems.Add(snomed_);
    systems.Add(loinc_);
    IndexBuildOptions options;
    options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
    options.lsm.compaction_fanin = 2;
    options.lsm.auto_compact = false;
    CdaGeneratorOptions gen_options;
    gen_options.num_documents = 4;
    gen_options.seed = 55;
    XOntoRank engine(CdaGenerator(snomed_, gen_options).GenerateCorpus(),
                     systems, options);
    engine.AddDocument(ExtraDocument(4));
    engine.AddDocument(ExtraDocument(5));
    fs::remove_all(dir_);
    const std::string base = dir_ + "/g";
    ASSERT_TRUE(SaveEngineDir(engine, base).ok());
    auto prior = LoadManifest(base + "/MANIFEST");
    ASSERT_TRUE(prior.ok()) << prior.status().ToString();
    const uint64_t g = prior->generation;
    const auto answers_g = Answers(engine);

    engine.AddDocument(ExtraDocument(6));
    engine.AddDocument(ExtraDocument(7));
    if (compact) engine.CompactNow();
    const auto answers_next = Answers(engine);

    // A save rewrites every file it keeps, so the files a complete g+1
    // save writes are the regular files of a completed copy.
    const std::string full = dir_ + "/full";
    fs::copy(base, full, fs::copy_options::recursive);
    ASSERT_TRUE(SaveEngineDir(engine, full).ok());
    std::vector<std::string> written;
    for (const auto& entry : fs::recursive_directory_iterator(full)) {
      if (entry.is_regular_file()) {
        written.push_back(fs::relative(entry.path(), full).string());
      }
    }
    ASSERT_GE(written.size(), 12u) << label;

    auto expect_generation = [&](const std::string& dir, uint64_t generation,
                                 const auto& answers, const std::string& at) {
      auto manifest = LoadManifest(dir + "/MANIFEST");
      ASSERT_TRUE(manifest.ok()) << at << ": " << manifest.status().ToString();
      EXPECT_EQ(manifest->generation, generation) << at;
      auto loaded = LoadEngineDir(dir);
      ASSERT_TRUE(loaded.ok()) << at << ": " << loaded.status().ToString();
      ExpectSameAnswers(Answers((*loaded)->engine()), answers, at);
    };
    for (const std::string& file : written) {
      const std::string at = label + ", blocked at " + file;
      const std::string copy = dir_ + "/copy";
      fs::remove_all(copy);
      fs::copy(base, copy, fs::copy_options::recursive);
      const std::string blocker = copy + "/" + file + ".tmp";
      fs::create_directories(blocker);
      Status failed = SaveEngineDir(engine, copy);
      EXPECT_EQ(failed.code(), StatusCode::kIoError) << at;
      expect_generation(copy, g, answers_g, at);
      fs::remove_all(blocker);
      ASSERT_TRUE(SaveEngineDir(engine, copy).ok()) << at;
      expect_generation(copy, g + 1, answers_next, at + ", saved again");
    }
  }
}

}  // namespace
}  // namespace xontorank
