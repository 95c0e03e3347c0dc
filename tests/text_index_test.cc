#include "ir/text_index.h"

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cda/cda_document.h"
#include "cda/cda_generator.h"
#include "core/node_text.h"
#include "core/options.h"
#include "gtest/gtest.h"
#include "onto/snomed_fragment.h"

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

/// Bytes of the term filter over `terms` terms: 8 bits per term, rounded
/// up to a power-of-two number of 64-bit words (at least one).
size_t FilterBytes(size_t terms) {
  return 8 * std::bit_ceil(std::max<size_t>(1, (terms * 8 + 63) / 64));
}

TEST(TextIndexTest, MemoryBytesCountsExactSizeColumns) {
  TextIndex building;
  building.AddUnit(0, "beta alpha");
  EXPECT_EQ(building.MemoryBytes(), 0u);

  // Worked by hand: "alphabetagamma" (14 chars); 4 term offsets and 4
  // posting-range bounds; postings alpha{0,1} beta{0,1} gamma{1} (5 unit
  // ids, 6 position-range bounds); 5 positions; 2 unit lengths; one
  // filter word. Any column with spare capacity would add to the total.
  TextIndex index = MakeIndex({"beta alpha", "alpha gamma beta"});
  EXPECT_EQ(index.MemoryBytes(), 14 + 4 * (4 + 4 + 5 + 6 + 5 + 2) + 8);
}

// The term filter in front of the arena search may pass an absent token
// but must never reject a present one: over a few thousand terms, every
// term is found, and no absent token is.
TEST(TextIndexTest, TermFilterNeverHidesATerm) {
  TextIndex index;
  for (uint32_t u = 0; u < 500; ++u) {
    std::string text;
    for (uint32_t i = 0; i < 6; ++i) {
      text += "term" + std::to_string((u * 7 + i * 131) % 3001) + "x ";
    }
    index.AddUnit(u, text);
  }
  index.Finalize();
  const std::vector<std::string> vocabulary = index.Vocabulary();
  ASSERT_GT(vocabulary.size(), 2000u);
  for (const std::string& term : vocabulary) {
    EXPECT_TRUE(index.ContainsTerm(term)) << term;
    EXPECT_FALSE(index.Lookup(MakeKeyword(term)).empty()) << term;
  }
  for (uint32_t i = 0; i < 5000; ++i) {
    const std::string absent = "absent" + std::to_string(i) + "y";
    EXPECT_FALSE(index.ContainsTerm(absent)) << absent;
  }
}

TEST(TextIndexTest, OutOfOrderUnitsFreezeToExactColumns) {
  TextIndex index;
  index.AddUnit(7, "asthma cough");
  index.AddUnit(2, "cough");
  index.AddUnit(7, "asthma");
  index.AddUnit(0, "");
  index.Finalize();
  EXPECT_EQ(index.unit_count(), 3u);  // 0, 2 and 7; 0 has no tokens
  EXPECT_EQ(UnitIds(index.Lookup(MakeKeyword("cough"))),
            (std::vector<uint32_t>{2, 7}));
  EXPECT_EQ(UnitIds(index.Lookup(MakeKeyword("cough asthma"))),
            (std::vector<uint32_t>{7}));
  // "asthmacough"; 3 + 3 term bounds; postings asthma{7} cough{2,7} (3
  // unit ids, 4 position-range bounds); 4 positions; lengths of 0..7; one
  // filter word.
  EXPECT_EQ(index.MemoryBytes(), 11 + 4 * (3 + 3 + 3 + 4 + 4 + 8) + 8);
}

/// A unit's raw token stream: every kept token at its position, and the
/// raw token count.
struct RawUnit {
  std::map<uint32_t, std::string> tokens;
  uint32_t length = 0;
};

/// Normalized BM25 over raw token streams, written without the index: a
/// unit matches where the keyword's tokens sit at consecutive positions.
std::vector<ScoredUnit> NaiveLookup(const std::vector<RawUnit>& units,
                                    const Keyword& keyword) {
  uint64_t total = 0;
  for (const RawUnit& unit : units) total += unit.length;
  const double avg = units.empty() ? 0.0
                                   : static_cast<double>(total) /
                                         static_cast<double>(units.size());
  std::vector<std::pair<uint32_t, size_t>> counts;
  for (uint32_t u = 0; u < units.size(); ++u) {
    size_t tf = 0;
    for (const auto& [position, token] : units[u].tokens) {
      bool chain = true;
      for (size_t i = 0; i < keyword.tokens.size() && chain; ++i) {
        auto at = units[u].tokens.find(position + static_cast<uint32_t>(i));
        chain = at != units[u].tokens.end() && at->second == keyword.tokens[i];
      }
      if (chain) ++tf;
    }
    if (tf > 0) counts.emplace_back(u, tf);
  }
  std::vector<ScoredUnit> out;
  double max_score = 0.0;
  for (const auto& [u, tf] : counts) {
    const double score = Bm25TermScore(tf, counts.size(), units.size(),
                                       units[u].length, avg, Bm25Params{});
    out.push_back({u, score});
    max_score = std::max(max_score, score);
  }
  for (ScoredUnit& unit : out) unit.score /= max_score;
  return out;
}

/// Visits `node`'s elements in preorder.
template <typename Fn>
void VisitElements(const XmlNode& node, const Fn& fn) {
  if (!node.is_element()) return;
  fn(node);
  for (XmlNode child : node.children()) VisitElements(child, fn);
}

TEST(TextIndexTest, LookupMatchesNaiveBm25OverGeneratedDocuments) {
  const Ontology snomed = BuildSnomedCardiologyFragment();
  CdaGeneratorOptions options;
  options.num_documents = 50;
  const CdaGenerator generator(snomed, options);
  const auto& excluded = DefaultExcludedAttributes();
  size_t checked = 0;
  for (uint32_t d = 0; d < options.num_documents; ++d) {
    // One collection per document, one unit per element, as in stage 1.
    const XmlDocument document = CdaToXml(generator.GenerateDocument(d), d);
    TextIndex index;
    std::vector<RawUnit> units;
    VisitElements(document.root(), [&](const XmlNode& node) {
      const std::string text = TextualDescription(node, excluded);
      const auto id = static_cast<uint32_t>(units.size());
      index.AddUnit(id, text);
      RawUnit& unit = units.emplace_back();
      for (PositionedToken& token :
           TokenizeWithPositions(text, {}, &unit.length)) {
        unit.tokens.emplace(token.position, std::move(token.token));
      }
    });
    index.Finalize();

    // Every vocabulary term, and the two- and three-token phrases that
    // start at every fifth token (with each pair also reversed, which
    // mostly matches nothing).
    std::set<std::string> vocabulary;
    std::set<std::vector<std::string>> phrases;
    size_t nth = 0;
    for (const RawUnit& unit : units) {
      for (const auto& [position, token] : unit.tokens) {
        vocabulary.insert(token);
        if (nth++ % 5 != 0) continue;
        auto next = unit.tokens.find(position + 1);
        if (next == unit.tokens.end()) continue;
        phrases.insert({token, next->second});
        phrases.insert({next->second, token});
        auto third = unit.tokens.find(position + 2);
        if (third != unit.tokens.end()) {
          phrases.insert({token, next->second, third->second});
        }
      }
    }
    ASSERT_EQ(index.Vocabulary(),
              std::vector<std::string>(vocabulary.begin(), vocabulary.end()));
    // Exact-size columns: term characters, two bounds per term plus one,
    // a unit id and a position bound per (term, unit) pair plus one, a
    // position per occurrence, a length per unit, and the term filter.
    size_t chars = 0;
    for (const std::string& term : vocabulary) chars += term.size();
    size_t pairs = 0;
    size_t occurrences = 0;
    for (const RawUnit& unit : units) {
      std::set<std::string> terms;
      for (const auto& [position, token] : unit.tokens) terms.insert(token);
      pairs += terms.size();
      occurrences += unit.tokens.size();
    }
    EXPECT_EQ(index.MemoryBytes(),
              chars + 4 * (2 * (vocabulary.size() + 1) + 2 * pairs + 1 +
                           occurrences + units.size()) +
                  FilterBytes(vocabulary.size()));
    std::vector<Keyword> keywords;
    for (const std::string& term : vocabulary) {
      keywords.push_back(MakeKeyword(term));
    }
    for (const std::vector<std::string>& phrase : phrases) {
      Keyword keyword;
      keyword.tokens = phrase;
      keywords.push_back(std::move(keyword));
    }
    for (const Keyword& keyword : keywords) {
      const std::vector<ScoredUnit> expected = NaiveLookup(units, keyword);
      const std::vector<ScoredUnit> got = index.Lookup(keyword);
      ASSERT_EQ(got.size(), expected.size())
          << "document " << d << ", keyword " << keyword.Canonical();
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].unit_id, expected[i].unit_id);
        EXPECT_EQ(got[i].score, expected[i].score)
            << "document " << d << ", keyword " << keyword.Canonical();
      }
      checked += got.size();
    }
  }
  EXPECT_GT(checked, 10000u);
}

}  // namespace
}  // namespace xontorank
