#include "ir/text_index.h"

#include <algorithm>

#include "gtest/gtest.h"

namespace xontorank {
namespace {

TextIndex MakeIndex(const std::vector<std::string>& units) {
  TextIndex index;
  for (uint32_t i = 0; i < units.size(); ++i) index.AddUnit(i, units[i]);
  index.Finalize();
  return index;
}

std::vector<uint32_t> UnitIds(const std::vector<ScoredUnit>& scored) {
  std::vector<uint32_t> ids;
  for (const ScoredUnit& s : scored) ids.push_back(s.unit_id);
  return ids;
}

TEST(TextIndexTest, SingleTokenLookup) {
  TextIndex index = MakeIndex({"asthma attack", "healthy heart", "asthma"});
  auto hits = index.Lookup(MakeKeyword("asthma"));
  EXPECT_EQ(UnitIds(hits), (std::vector<uint32_t>{0, 2}));
}

TEST(TextIndexTest, LookupIsCaseInsensitive) {
  TextIndex index = MakeIndex({"Cardiac Arrest"});
  EXPECT_EQ(index.Lookup(MakeKeyword("CARDIAC")).size(), 1u);
}

TEST(TextIndexTest, MissingTermYieldsEmpty) {
  TextIndex index = MakeIndex({"a b c"});
  EXPECT_TRUE(index.Lookup(MakeKeyword("zebra")).empty());
}

TEST(TextIndexTest, ScoresNormalizedToUnitInterval) {
  TextIndex index =
      MakeIndex({"asthma", "asthma asthma asthma", "asthma care plan"});
  auto hits = index.Lookup(MakeKeyword("asthma"));
  ASSERT_EQ(hits.size(), 3u);
  double max_score = 0;
  for (const ScoredUnit& h : hits) {
    EXPECT_GT(h.score, 0.0);
    EXPECT_LE(h.score, 1.0);
    max_score = std::max(max_score, h.score);
  }
  EXPECT_DOUBLE_EQ(max_score, 1.0);
}

TEST(TextIndexTest, HigherTfScoresHigher) {
  TextIndex index = MakeIndex({"asthma note", "asthma asthma asthma note x"});
  auto hits = index.Lookup(MakeKeyword("asthma"));
  ASSERT_EQ(hits.size(), 2u);
  const ScoredUnit& once = hits[0];
  const ScoredUnit& thrice = hits[1];
  EXPECT_GT(thrice.score, once.score);
}

TEST(TextIndexTest, PhraseRequiresAdjacency) {
  TextIndex index = MakeIndex({
      "cardiac arrest treated",      // phrase present
      "cardiac unit, no arrest",     // both tokens, not adjacent
      "arrest cardiac",              // wrong order
      "cardiac arrest and cardiac arrest again",  // twice
  });
  auto hits = index.Lookup(MakeKeyword("cardiac arrest"));
  EXPECT_EQ(UnitIds(hits), (std::vector<uint32_t>{0, 3}));
}

TEST(TextIndexTest, PhraseAcrossDroppedNumericTokenDoesNotMatch) {
  // "cardiac 24 arrest": the numeric token is dropped from the index but
  // still occupies a position, so "cardiac arrest" must NOT match.
  TextIndex index = MakeIndex({"cardiac 24 arrest"});
  EXPECT_TRUE(index.Lookup(MakeKeyword("cardiac arrest")).empty());
}

TEST(TextIndexTest, ThreeWordPhrase) {
  TextIndex index = MakeIndex(
      {"patent ductus arteriosus ligation", "patent foramen ovale"});
  auto hits = index.Lookup(MakeKeyword("patent ductus arteriosus"));
  EXPECT_EQ(UnitIds(hits), (std::vector<uint32_t>{0}));
}

TEST(TextIndexTest, TokensLongerThanTheSmallStringBufferMatch) {
  // Terms past std::string's in-object buffer (15 bytes in libstdc++) live
  // on the heap; lookups probe the term table by string_view all the same.
  TextIndex index = MakeIndex({
      "bronchopulmonary dysplasiaassociated findings",
      "dysplasiaassociated bronchopulmonary",
      "bronchopulmonary",
  });
  EXPECT_EQ(UnitIds(index.Lookup(MakeKeyword("Bronchopulmonary"))),
            (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(UnitIds(index.Lookup(
                MakeKeyword("bronchopulmonary dysplasiaassociated"))),
            (std::vector<uint32_t>{0}));
  EXPECT_EQ(UnitIds(index.Lookup(
                MakeKeyword("dysplasiaassociated bronchopulmonary"))),
            (std::vector<uint32_t>{1}));
  EXPECT_TRUE(index.Lookup(MakeKeyword("bronchopulmonaryx")).empty());
  EXPECT_TRUE(index.ContainsTerm("dysplasiaassociated"));
  EXPECT_FALSE(index.ContainsTerm("dysplasiaassociate"));
}

TEST(TextIndexTest, PhraseWithMissingTokenEmpty) {
  TextIndex index = MakeIndex({"cardiac arrest"});
  EXPECT_TRUE(index.Lookup(MakeKeyword("cardiac zebra")).empty());
}

TEST(TextIndexTest, IncrementalAddExtendsUnit) {
  TextIndex index;
  index.AddUnit(0, "cardiac");
  index.AddUnit(0, "arrest");  // continues the same unit
  index.Finalize();
  // Tokens are in the same unit; adjacency across AddUnit calls holds
  // because positions continue.
  EXPECT_EQ(index.Lookup(MakeKeyword("cardiac arrest")).size(), 1u);
  EXPECT_EQ(index.unit_count(), 1u);
}

TEST(TextIndexTest, OutOfOrderUnitIdsMerged) {
  TextIndex index;
  index.AddUnit(5, "asthma");
  index.AddUnit(2, "asthma");
  index.AddUnit(5, "asthma");
  index.Finalize();
  auto hits = index.Lookup(MakeKeyword("asthma"));
  EXPECT_EQ(UnitIds(hits), (std::vector<uint32_t>{2, 5}));
}

TEST(TextIndexTest, VocabularySortedUnique) {
  TextIndex index = MakeIndex({"beta alpha", "alpha gamma"});
  EXPECT_EQ(index.Vocabulary(),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));
  EXPECT_EQ(index.term_count(), 3u);
}

TEST(TextIndexTest, ContainsTerm) {
  TextIndex index = MakeIndex({"asthma"});
  EXPECT_TRUE(index.ContainsTerm("asthma"));
  EXPECT_FALSE(index.ContainsTerm("flu"));
}

TEST(TextIndexTest, RawScoreMatchesLookupRanking) {
  TextIndex index = MakeIndex({"asthma one", "asthma asthma two"});
  Keyword kw = MakeKeyword("asthma");
  double raw0 = index.RawScore(0, kw);
  double raw1 = index.RawScore(1, kw);
  EXPECT_GT(raw1, raw0);
  EXPECT_GT(raw0, 0.0);
  EXPECT_EQ(index.RawScore(99, kw), 0.0);
}

TEST(TextIndexTest, EmptyIndex) {
  TextIndex index;
  index.Finalize();
  EXPECT_EQ(index.unit_count(), 0u);
  EXPECT_TRUE(index.Lookup(MakeKeyword("x")).empty());
}


TEST(TextIndexTest, DroppedTrailingTokenBlocksCrossSegmentPhrase) {
  // Regression: "cardiac 42" then "arrest" — the dropped numeric token must
  // still consume a position, so the phrase "cardiac arrest" does NOT span
  // the segment boundary.
  TextIndex index;
  index.AddUnit(0, "cardiac 42");
  index.AddUnit(0, "arrest");
  index.Finalize();
  EXPECT_TRUE(index.Lookup(MakeKeyword("cardiac arrest")).empty());
}

TEST(TextIndexTest, RawCountAdvancesPositionsExactly) {
  // Without dropped tokens, adjacency across AddUnit calls is preserved
  // (positions continue with no gap).
  TextIndex index;
  index.AddUnit(0, "patent ductus");
  index.AddUnit(0, "arteriosus");
  index.Finalize();
  EXPECT_EQ(index.Lookup(MakeKeyword("patent ductus arteriosus")).size(), 1u);
}

}  // namespace
}  // namespace xontorank
