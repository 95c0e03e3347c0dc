#include "core/node_text.h"

#include "core/options.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace xontorank {
namespace {

using testing_util::MustParse;

std::string Describe(std::string_view xml) {
  XmlDocument doc = MustParse(xml);
  return TextualDescription(doc.root(), DefaultExcludedAttributes());
}

TEST(NodeTextTest, IncludesTagAttributeNamesValuesAndText) {
  std::string text = Describe(R"(<title lang="en">Medications</title>)");
  EXPECT_NE(text.find("title"), std::string::npos);
  EXPECT_NE(text.find("lang"), std::string::npos);
  EXPECT_NE(text.find("en"), std::string::npos);
  EXPECT_NE(text.find("Medications"), std::string::npos);
}

TEST(NodeTextTest, ExcludesCodeAttributeValues) {
  std::string text = Describe(
      R"(<value code="195967001" codeSystem="2.16.840.1.113883.6.96" displayName="Asthma"/>)");
  // Attribute *names* stay; excluded *values* go; displayName value stays.
  EXPECT_NE(text.find("code"), std::string::npos);
  EXPECT_EQ(text.find("195967001"), std::string::npos);
  EXPECT_EQ(text.find("2.16.840"), std::string::npos);
  EXPECT_NE(text.find("Asthma"), std::string::npos);
}

TEST(NodeTextTest, OidLikeValuesExcludedEvenIfAttributeNotListed) {
  std::string text = Describe(R"(<x custom="1.2.3.44"/>)");
  EXPECT_EQ(text.find("1.2.3.44"), std::string::npos);
}

TEST(NodeTextTest, OnlyDirectTextIncluded) {
  std::string text = Describe("<a>own <b>nested</b> tail</a>");
  EXPECT_NE(text.find("own"), std::string::npos);
  EXPECT_NE(text.find("tail"), std::string::npos);
  EXPECT_EQ(text.find("nested"), std::string::npos);
}

TEST(NodeTextTest, DisplayNameSurvivesForCodeNodes) {
  // The crucial behavior for the paper's Fig. 1 line 39: the code node's
  // displayName is the textual hook that lets "asthma" match it directly.
  std::string text = Describe(
      R"(<value xsi:type="CD" code="195967001" codeSystem="x.y" displayName="Asthma"/>)");
  EXPECT_NE(text.find("Asthma"), std::string::npos);
  EXPECT_EQ(text.find("CD"), std::string::npos);  // xsi:type value excluded
}

}  // namespace
}  // namespace xontorank
