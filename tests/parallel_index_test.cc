#include "cda/cda_generator.h"
#include "core/index_builder.h"
#include "gtest/gtest.h"
#include "onto/snomed_fragment.h"

namespace xontorank {
namespace {

class ParallelIndexFixture : public ::testing::Test {
 protected:
  ParallelIndexFixture() : onto_(BuildSnomedCardiologyFragment()) {
    CdaGeneratorOptions options;
    options.num_documents = 8;
    options.seed = 77;
    CdaGenerator generator(onto_, options);
    corpus_ = generator.GenerateCorpus();
  }

  CorpusIndex Build(size_t threads) {
    IndexBuildOptions options;
    options.strategy = Strategy::kRelationships;
    options.vocabulary_mode =
        IndexBuildOptions::VocabularyMode::kCorpusAndOntology;
    options.num_threads = threads;
    return CorpusIndex(corpus_, onto_, options);
  }

  Ontology onto_;
  Corpus corpus_;
};

TEST_F(ParallelIndexFixture, ParallelBuildMatchesSerial) {
  CorpusIndex serial = Build(1);
  CorpusIndex parallel = Build(4);
  EXPECT_EQ(serial.stats().precomputed_keywords,
            parallel.stats().precomputed_keywords);
  EXPECT_EQ(serial.stats().total_postings, parallel.stats().total_postings);
  // Spot-check list equality on a sample of keywords.
  std::vector<std::string> vocab = serial.PrecomputedVocabulary();
  for (size_t i = 0; i < vocab.size(); i += 17) {
    Keyword kw = MakeKeyword(vocab[i]);
    DilListRef a = serial.GetListRef(kw);
    DilListRef b = parallel.GetListRef(kw);
    std::vector<DilPosting> pa = a.flat->ThawPostings(a.list);
    std::vector<DilPosting> pb = b.flat->ThawPostings(b.list);
    ASSERT_EQ(pa.size(), pb.size()) << vocab[i];
    for (size_t p = 0; p < pa.size(); ++p) {
      EXPECT_EQ(pa[p].dewey, pb[p].dewey) << vocab[i];
      EXPECT_DOUBLE_EQ(pa[p].score, pb[p].score) << vocab[i];
    }
  }
}

TEST_F(ParallelIndexFixture, ZeroMeansHardwareConcurrency) {
  CorpusIndex index = Build(0);
  EXPECT_GT(index.stats().precomputed_keywords, 0u);
}

TEST_F(ParallelIndexFixture, MoreThreadsThanKeywordsIsSafe) {
  CorpusIndex index = Build(1024);
  EXPECT_GT(index.stats().precomputed_keywords, 0u);
}

}  // namespace
}  // namespace xontorank
