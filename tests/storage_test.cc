#include "storage/coding.h"

#include <unistd.h>

#include <filesystem>

#include "cda/cda_generator.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "onto/snomed_fragment.h"
#include "storage/engine_store.h"
#include "tests/test_util.h"

namespace xontorank {
namespace {

// ---- Coding primitives ----

TEST(FixedTest, RoundTrips) {
  std::string buffer;
  PutFixed32(&buffer, 0xdeadbeef);
  ASSERT_EQ(buffer.size(), 4u);
  Decoder dec(buffer);
  uint32_t out = 0;
  ASSERT_TRUE(dec.GetFixed32(&out));
  EXPECT_EQ(out, 0xdeadbeef);
}

TEST(Crc32Test, KnownVectorAndSensitivity) {
  // Standard check value for "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_NE(Crc32("abc"), Crc32("abd"));
}

/// The definition: one bit at a time through the reflected IEEE
/// polynomial, with the standard initial value and final XOR.
uint32_t BitwiseCrc32(std::string_view data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..1100 cover the empty input, every input short of the
  // folding kernel's 64 bytes, the 64-byte fold loop, the 16-byte folds
  // after it and tails of every size; offsets 0..15 put the first byte at
  // every alignment of a 16-byte lane. One 4 MiB buffer runs the fold
  // loop long. Whichever kernel this CPU runs must match the definition.
  Rng rng(2009);
  std::string buffer(16 + 1100, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.NextBelow(256));
  const std::string_view all(buffer);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t length = 0; length <= 1100; ++length) {
      std::string_view data = all.substr(offset, length);
      ASSERT_EQ(Crc32(data), BitwiseCrc32(data))
          << "offset " << offset << " length " << length << " kernel "
          << Crc32KernelName();
    }
  }
  std::string large(size_t{4} << 20, '\0');
  for (char& c : large) c = static_cast<char>(rng.NextBelow(256));
  EXPECT_EQ(Crc32(large), BitwiseCrc32(large)) << Crc32KernelName();
}

// ---- Engine directory saves ----

TEST(EngineDirSaveTest, SavingTwiceLeavesNoTemporaryFilesAndReloads) {
  // Documents are written through a temp file and a rename, so a second
  // save over the same directory replaces them whole and leaves no
  // `*.tmp` behind.
  Ontology snomed = BuildSnomedCardiologyFragment();
  CdaGeneratorOptions gen_options;
  gen_options.num_documents = 5;
  CdaGenerator generator(snomed, gen_options);
  OntologySet systems;
  systems.Add(snomed);
  XOntoRank engine(generator.GenerateCorpus(), systems, IndexBuildOptions{});
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("xontorank_storage_test_" + std::to_string(::getpid())))
                        .string();
  ASSERT_TRUE(SaveEngineDir(engine, dir).ok());
  ASSERT_TRUE(SaveEngineDir(engine, dir).ok());

  size_t documents = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
    if (entry.path().extension() == ".xml") ++documents;
  }
  EXPECT_EQ(documents, 5u);

  auto loaded = LoadEngineDir(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (const char* query : {"asthma", "\"bronchial structure\" theophylline",
                            "heart disease"}) {
    std::vector<QueryResult> live = testing_util::SearchTop(engine, query, 10);
    std::vector<QueryResult> reloaded =
        testing_util::SearchTop(loaded.value()->engine(), query, 10);
    ASSERT_EQ(live.size(), reloaded.size()) << query;
    for (size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(live[i].element, reloaded[i].element) << query;
      EXPECT_EQ(live[i].score, reloaded[i].score) << query;
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace xontorank
