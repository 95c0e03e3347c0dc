#include "core/result_grouping.h"

#include "core/xontorank.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace xontorank {
namespace {

using testing_util::MustParse;
using testing_util::SearchTop;

QueryResult R(std::vector<uint32_t> comps, double score) {
  QueryResult r;
  r.element = DeweyId(std::move(comps));
  r.score = score;
  return r;
}

class GroupingFixture : public ::testing::Test {
 protected:
  GroupingFixture() {
    corpus_.Add(
        MustParse("<doc><sec><obs/><obs/></sec><sec><obs/></sec></doc>", 0));
    corpus_.Add(MustParse("<doc><sec><note/></sec></doc>", 1));
  }
  Corpus corpus_;
};

TEST_F(GroupingFixture, PathSignatureWalksToRoot) {
  EXPECT_EQ(PathSignature(corpus_[0], DeweyId({0, 0, 1})), "doc/sec/obs");
  EXPECT_EQ(PathSignature(corpus_[0], DeweyId({0})), "doc");
  EXPECT_EQ(PathSignature(corpus_[0], DeweyId({0, 9})), "");  // unresolvable
}

TEST_F(GroupingFixture, GroupsBySignature) {
  std::vector<QueryResult> results = {
      R({0, 0, 0}, 0.9),  // doc/sec/obs
      R({0, 0, 1}, 0.4),  // doc/sec/obs
      R({0, 1, 0}, 0.7),  // doc/sec/obs (different section, same shape)
      R({1, 0, 0}, 0.8),  // doc/sec/note
  };
  auto groups = GroupResultsByPath(results, corpus_);
  ASSERT_EQ(groups.size(), 2u);
  // Ordered by best member score: obs group (0.9) before note group (0.8).
  EXPECT_EQ(groups[0].signature, "doc/sec/obs");
  ASSERT_EQ(groups[0].results.size(), 3u);
  EXPECT_NEAR(groups[0].best_score(), 0.9, 1e-9);
  // Members internally score-ordered.
  EXPECT_GE(groups[0].results[0].score, groups[0].results[1].score);
  EXPECT_GE(groups[0].results[1].score, groups[0].results[2].score);
  EXPECT_EQ(groups[1].signature, "doc/sec/note");
}

TEST_F(GroupingFixture, DropsUnresolvableResults) {
  std::vector<QueryResult> results = {R({0, 0, 0}, 0.5), R({7, 0}, 0.9),
                                      R({0, 5, 5}, 0.9)};
  auto groups = GroupResultsByPath(results, corpus_);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].results.size(), 1u);
}

TEST_F(GroupingFixture, EmptyInput) {
  EXPECT_TRUE(GroupResultsByPath({}, corpus_).empty());
}

TEST(GroupingIntegrationTest, CdaResultsShareSectionShape) {
  Ontology onto = testing_util::BuildTinyOntology();
  std::vector<XmlDocument> corpus;
  corpus.push_back(MustParse(testing_util::TinyCdaXml(), 0));
  IndexBuildOptions options;
  options.strategy = Strategy::kRelationships;
  XOntoRank engine(std::move(corpus), onto, options);
  auto results = SearchTop(engine, "asthma", 0);
  ASSERT_FALSE(results.empty());
  auto groups = GroupResultsByPath(results, engine.snapshot()->corpus());
  ASSERT_FALSE(groups.empty());
  size_t total = 0;
  for (const ResultGroup& g : groups) {
    EXPECT_FALSE(g.signature.empty());
    total += g.results.size();
  }
  EXPECT_EQ(total, results.size());
}

}  // namespace
}  // namespace xontorank
