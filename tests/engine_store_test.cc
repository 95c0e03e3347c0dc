#include "storage/engine_store.h"

#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "cda/cda_generator.h"
#include "gtest/gtest.h"
#include "onto/loinc_fragment.h"
#include "onto/snomed_fragment.h"
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
          IndexBuildOptions::VocabularyMode::kNone) {
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
    options.vocabulary_mode = vocabulary;
    return std::make_unique<XOntoRank>(generator.GenerateCorpus(), systems,
                                       options);
  }

  /// Replaces dir_'s manifest.tsv line whose key is `key` with `line`, or
  /// appends `line` when no such line exists.
  void RewriteManifestLine(const std::string& key, const std::string& line) {
    std::string path = dir_ + "/manifest.tsv";
    std::string rewritten;
    bool replaced = false;
    {
      std::ifstream in(path);
      for (std::string current; std::getline(in, current);) {
        if (current.rfind(key + "\t", 0) == 0) {
          current = line;
          replaced = true;
        }
        rewritten += current + "\n";
      }
    }
    if (!replaced) rewritten += line + "\n";
    std::ofstream out(path, std::ios::trunc);
    out << rewritten;
  }

  /// Drops dir_'s manifest.tsv lines whose key is `key`.
  void DropManifestLine(const std::string& key) {
    std::string path = dir_ + "/manifest.tsv";
    std::string kept;
    {
      std::ifstream in(path);
      for (std::string current; std::getline(in, current);) {
        if (current.rfind(key + "\t", 0) != 0) kept += current + "\n";
      }
    }
    std::ofstream out(path, std::ios::trunc);
    out << kept;
  }

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
  // retired single-index files are never written.
  for (const auto& segment : engine->snapshot()->segments()) {
    EXPECT_TRUE(std::filesystem::exists(
        dir_ + "/seg-" + std::to_string(segment->id()) + ".xoseg"));
  }
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/MANIFEST"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/index.xoseg"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/index.xodl"));

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
  auto engine = BuildEngine();
  ASSERT_TRUE(SaveEngineDir(*engine, dir_).ok());
  auto loaded = LoadEngineDir(dir_);
  ASSERT_TRUE(loaded.ok());
  const IndexBuildOptions& options =
      (*loaded)->engine().snapshot()->options();
  EXPECT_EQ(options.strategy, Strategy::kRelationships);
  EXPECT_DOUBLE_EQ(options.score.decay, 0.4);
  EXPECT_DOUBLE_EQ(options.score.ontology_weight, 0.6);

  // The compaction knobs round-trip too: from the current four-field
  // lsm line, and from an older directory whose five-field line carries a
  // retired posting-tier base before auto_compact.
  CdaGeneratorOptions gen_options;
  gen_options.num_documents = 3;
  gen_options.seed = 55;
  IndexBuildOptions lsm_options;
  lsm_options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
  lsm_options.lsm.compaction_fanin = 3;
  lsm_options.lsm.auto_compact = false;
  XOntoRank lsm_engine(CdaGenerator(snomed_, gen_options).GenerateCorpus(),
                       OntologySet(snomed_), lsm_options);
  std::filesystem::remove_all(dir_);
  ASSERT_TRUE(SaveEngineDir(lsm_engine, dir_).ok());
  for (const char* lsm_line : {"", "lsm\t1\t3\t1024\t0"}) {
    if (*lsm_line != '\0') RewriteManifestLine("lsm", lsm_line);
    auto reloaded = LoadEngineDir(dir_);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    const IndexBuildOptions& lsm =
        (*reloaded)->engine().snapshot()->options();
    EXPECT_EQ(lsm.lsm.compaction_fanin, 3u) << lsm_line;
    EXPECT_FALSE(lsm.lsm.auto_compact) << lsm_line;
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
  std::filesystem::create_directories(dir_);
  {
    std::ofstream out(dir_ + "/manifest.tsv");
    out << "format\tsomething-else\t1\n";
  }
  auto loaded = LoadEngineDir(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);

  // Malformed numeric fields are reported as corruption, never thrown.
  auto engine = BuildEngine();
  // So is the retired single-index layout, named as such: an `index`
  // line, or no `lsm` line.
  for (bool drop_lsm : {false, true}) {
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(SaveEngineDir(*engine, dir_).ok());
    if (drop_lsm) {
      DropManifestLine("lsm");
    } else {
      RewriteManifestLine("index", "index\tindex.xodl");
    }
    auto legacy = LoadEngineDir(dir_);
    ASSERT_FALSE(legacy.ok()) << drop_lsm;
    EXPECT_EQ(legacy.status().code(), StatusCode::kCorruption) << drop_lsm;
    EXPECT_NE(legacy.status().message().find("retired single-index layout"),
              std::string::npos)
        << legacy.status().message();
  }
  for (const auto& [key, line] :
       {std::pair<std::string, std::string>{"decay", "decay\tabc"},
        {"lsm", "lsm\t1\tfour\t0"}}) {
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(SaveEngineDir(*engine, dir_).ok());
    RewriteManifestLine(key, line);
    auto malformed = LoadEngineDir(dir_);
    ASSERT_FALSE(malformed.ok()) << line;
    EXPECT_EQ(malformed.status().code(), StatusCode::kCorruption) << line;
  }
}

TEST_F(EngineStoreFixture, ManifestWithoutDocumentsFails) {
  std::filesystem::create_directories(dir_);
  auto engine = BuildEngine();
  ASSERT_TRUE(SaveEngineDir(*engine, dir_).ok());
  // Rewrite the manifest without document lines.
  {
    std::ofstream out(dir_ + "/manifest.tsv");
    out << "format\txontorank-engine\t1\nontology\tontology_0.tsv\n";
  }
  auto loaded = LoadEngineDir(dir_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("documents"), std::string::npos);
}

}  // namespace
}  // namespace xontorank
