// The eager build runs on the shared pool: stage 1 in chunks of documents,
// scoring in chunks of keywords, the freeze in chunks of lists. Its lists
// must equal, posting for posting and bit for bit, the one-list demand
// builds of a lazy (kNone) index over the same corpus, which run serially
// on the calling thread.

#include <string>
#include <vector>

#include "cda/cda_generator.h"
#include "core/index_builder.h"
#include "gtest/gtest.h"
#include "onto/snomed_fragment.h"

namespace xontorank {
namespace {

class ParallelIndexFixture : public ::testing::Test {
 protected:
  ParallelIndexFixture() : onto_(BuildSnomedCardiologyFragment()) {}

  Corpus Generate(size_t documents) const {
    CdaGeneratorOptions options;
    options.num_documents = documents;
    options.seed = 77;
    CdaGenerator generator(onto_, options);
    return generator.GenerateCorpus();
  }

  /// Every precomputed list of the pool-built index over `documents`
  /// generated documents equals the demand-built list for its keyword.
  void ExpectEagerMatchesDemand(size_t documents, Strategy strategy,
                                bool use_elem_rank) {
    SCOPED_TRACE(testing::Message()
                 << documents << " documents, " << StrategyName(strategy)
                 << (use_elem_rank ? ", ElemRank" : ""));
    Corpus corpus = Generate(documents);
    ASSERT_EQ(corpus.size(), documents);
    IndexBuildOptions options;
    options.strategy = strategy;
    options.use_elem_rank = use_elem_rank;
    options.vocabulary_mode =
        IndexBuildOptions::VocabularyMode::kCorpusAndOntology;
    CorpusIndex eager(corpus, onto_, options);
    options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
    CorpusIndex lazy(corpus, onto_, options);
    ASSERT_GT(eager.stats().precomputed_keywords, 0u);
    ASSERT_EQ(lazy.stats().precomputed_keywords, 0u);

    size_t postings = 0;
    for (const std::string& keyword : eager.PrecomputedVocabulary()) {
      const Keyword kw = MakeKeyword(keyword);
      const DilListRef built = eager.GetListRef(kw);
      ASSERT_EQ(built.flat, &eager.flat_dil()) << keyword;
      const DilListRef demand = lazy.GetListRef(kw);
      ASSERT_EQ(built.size(), demand.size()) << keyword;
      DilCursor a = built.OpenCursor();
      DilCursor b = demand.OpenCursor();
      for (; !a.AtEnd(); a.Next(), b.Next()) {
        ASSERT_FALSE(b.AtEnd()) << keyword;
        EXPECT_EQ(a.dewey().ToDeweyId(), b.dewey().ToDeweyId()) << keyword;
        EXPECT_EQ(a.score(), b.score()) << keyword;
      }
      EXPECT_TRUE(b.AtEnd()) << keyword;
      postings += built.size();
    }
    EXPECT_EQ(postings, eager.stats().total_postings);
  }

  Ontology onto_;
};

TEST_F(ParallelIndexFixture, ParallelBuildMatchesSerial) {
  for (size_t documents : {1, 3, 40}) {
    ExpectEagerMatchesDemand(documents, Strategy::kRelationships,
                             /*use_elem_rank=*/false);
  }
}

TEST_F(ParallelIndexFixture, XRankParallelBuildMatchesSerial) {
  for (size_t documents : {1, 3, 40}) {
    ExpectEagerMatchesDemand(documents, Strategy::kXRank,
                             /*use_elem_rank=*/false);
  }
}

TEST_F(ParallelIndexFixture, ElemRankParallelBuildMatchesSerial) {
  for (size_t documents : {1, 3, 40}) {
    ExpectEagerMatchesDemand(documents, Strategy::kRelationships,
                             /*use_elem_rank=*/true);
  }
}

TEST_F(ParallelIndexFixture, PhaseTimesSplitTheBuildTime) {
  Corpus corpus = Generate(40);
  IndexBuildOptions options;
  options.vocabulary_mode =
      IndexBuildOptions::VocabularyMode::kCorpusAndOntology;
  const IndexBuildStats stats = CorpusIndex(corpus, onto_, options).stats();
  EXPECT_GT(stats.stage1_millis, 0.0);
  EXPECT_GT(stats.vocabulary_millis, 0.0);
  EXPECT_GT(stats.score_millis, 0.0);
  EXPECT_GT(stats.freeze_millis, 0.0);
  EXPECT_LE(stats.stage1_millis + stats.vocabulary_millis +
                stats.score_millis + stats.freeze_millis,
            stats.build_millis);

  // A lazy build times stage 1 only.
  options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
  const IndexBuildStats lazy = CorpusIndex(corpus, onto_, options).stats();
  EXPECT_GT(lazy.stage1_millis, 0.0);
  EXPECT_EQ(lazy.vocabulary_millis, 0.0);
  EXPECT_EQ(lazy.score_millis, 0.0);
  EXPECT_EQ(lazy.freeze_millis, 0.0);
}

}  // namespace
}  // namespace xontorank
