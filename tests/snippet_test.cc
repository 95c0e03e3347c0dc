#include "core/snippet.h"

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace xontorank {
namespace {

using testing_util::MustParse;

TEST(VisibleTextTest, CollectsTextAndDisplayNames) {
  XmlDocument doc = MustParse(
      R"(<r><title>Medications</title><v displayName="Asthma" code="1"/><t>take daily</t></r>)");
  EXPECT_EQ(VisibleText(doc.root()), "Medications Asthma take daily");
}

TEST(VisibleTextTest, CollapsesWhitespace) {
  XmlDocument doc = MustParse("<r>a   b\n\n c </r>");
  EXPECT_EQ(VisibleText(doc.root()), "a b c");
}

TEST(VisibleTextTest, EmptyForAttributeOnlyElements) {
  XmlDocument doc = MustParse(R"(<r code="42" codeSystem="s"/>)");
  EXPECT_EQ(VisibleText(doc.root()), "");
}

TEST(SnippetTest, HighlightsKeyword) {
  XmlDocument doc = MustParse("<r>patient with asthma attack today</r>", 0);
  std::string snippet =
      MakeSnippet(doc, DeweyId({0}), ParseQuery("asthma"), {});
  EXPECT_EQ(snippet, "patient with [asthma] attack today");
}

TEST(SnippetTest, HighlightsPhraseAsOneSpan) {
  XmlDocument doc = MustParse("<r>history of cardiac arrest noted</r>", 0);
  std::string snippet =
      MakeSnippet(doc, DeweyId({0}), ParseQuery("\"cardiac arrest\""), {});
  EXPECT_EQ(snippet, "history of [cardiac arrest] noted");
}

TEST(SnippetTest, CaseInsensitiveWordBoundaries) {
  XmlDocument doc = MustParse("<r>Asthma asthmatic ASTHMA</r>", 0);
  std::string snippet =
      MakeSnippet(doc, DeweyId({0}), ParseQuery("asthma"), {});
  // "asthmatic" must not match; both standalone forms must.
  EXPECT_EQ(snippet, "[Asthma] asthmatic [ASTHMA]");
}

TEST(SnippetTest, MultipleKeywordsAllHighlighted) {
  XmlDocument doc = MustParse("<r>asthma treated with theophylline</r>", 0);
  std::string snippet =
      MakeSnippet(doc, DeweyId({0}), ParseQuery("asthma theophylline"), {});
  EXPECT_EQ(snippet, "[asthma] treated with [theophylline]");
}

TEST(SnippetTest, OverlappingSpansMerged) {
  XmlDocument doc = MustParse("<r>cardiac arrest</r>", 0);
  std::string snippet = MakeSnippet(
      doc, DeweyId({0}), ParseQuery("\"cardiac arrest\" arrest"), {});
  EXPECT_EQ(snippet, "[cardiac arrest]");
}

TEST(SnippetTest, WindowTrimsLongTextAroundFirstMatch) {
  std::string filler(300, 'x');
  XmlDocument doc = MustParse(
      "<r>" + filler + " asthma here " + filler + "</r>", 0);
  SnippetOptions options;
  options.max_length = 60;
  std::string snippet =
      MakeSnippet(doc, DeweyId({0}), ParseQuery("asthma"), options);
  EXPECT_NE(snippet.find("[asthma]"), std::string::npos);
  // Ellipses on both sides, snippet bounded.
  EXPECT_NE(snippet.find("…"), std::string::npos);
  EXPECT_LT(snippet.size(), 60u + 20u);  // marks + utf8 ellipses margin
}

TEST(SnippetTest, NoMatchShowsLeadingText) {
  XmlDocument doc = MustParse("<r>nothing relevant here</r>", 0);
  std::string snippet =
      MakeSnippet(doc, DeweyId({0}), ParseQuery("zebra"), {});
  EXPECT_EQ(snippet, "nothing relevant here");
}

TEST(SnippetTest, CustomMarks) {
  XmlDocument doc = MustParse("<r>asthma</r>", 0);
  SnippetOptions options;
  options.open_mark = "<b>";
  options.close_mark = "</b>";
  EXPECT_EQ(MakeSnippet(doc, DeweyId({0}), ParseQuery("asthma"), options),
            "<b>asthma</b>");
}

TEST(SnippetTest, UnresolvableElementEmpty) {
  XmlDocument doc = MustParse("<r>text</r>", 0);
  EXPECT_EQ(MakeSnippet(doc, DeweyId({0, 9}), ParseQuery("text"), {}), "");
}

TEST(SnippetTest, DisplayNameMatchesHighlight) {
  // The code-node case: the keyword is only present as a displayName.
  XmlDocument doc = MustParse(
      R"(<r><v displayName="Asthma" code="1" codeSystem="s"/></r>)", 0);
  EXPECT_EQ(MakeSnippet(doc, DeweyId({0}), ParseQuery("asthma"), {}),
            "[Asthma]");
}

}  // namespace
}  // namespace xontorank
