#include "xml/xml_path.h"

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace xontorank {
namespace {

using testing_util::MustParse;

std::vector<std::string> Tags(const std::vector<XmlNode>& nodes) {
  std::vector<std::string> tags;
  for (XmlNode n : nodes) tags.emplace_back(n.tag());
  return tags;
}

class XmlPathFixture : public ::testing::Test {
 protected:
  XmlPathFixture()
      : doc_(MustParse(
            "<root>"
            "<a id=\"1\"><b><c/></b><c/></a>"
            "<a id=\"2\"><c/></a>"
            "<d><a id=\"3\"><c/></a></d>"
            "</root>")) {}
  XmlDocument doc_;
};

TEST_F(XmlPathFixture, SimpleChildStep) {
  auto matches = SelectPath(doc_.root(), "a");
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].GetAttribute("id").value(), "1");
  EXPECT_EQ(matches[1].GetAttribute("id").value(), "2");
}

TEST_F(XmlPathFixture, ChainedSteps) {
  auto matches = SelectPath(doc_.root(), "a/b/c");
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].parent().tag(), "b");
}

TEST_F(XmlPathFixture, StarMatchesAnyTag) {
  auto matches = SelectPath(doc_.root(), "*/c");
  // a(1)/c and a(2)/c — d has no direct c child.
  EXPECT_EQ(matches.size(), 2u);
}

TEST_F(XmlPathFixture, DoubleStarMatchesAnyDepth) {
  auto matches = SelectPath(doc_.root(), "**/c");
  // All four c elements at any depth.
  EXPECT_EQ(matches.size(), 4u);
  EXPECT_EQ(Tags(matches), (std::vector<std::string>{"c", "c", "c", "c"}));
}

TEST_F(XmlPathFixture, DoubleStarResultsInDocumentOrder) {
  auto matches = SelectPath(doc_.root(), "**/a");
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0].GetAttribute("id").value(), "1");
  EXPECT_EQ(matches[1].GetAttribute("id").value(), "2");
  EXPECT_EQ(matches[2].GetAttribute("id").value(), "3");
}

TEST_F(XmlPathFixture, DoubleStarMidPath) {
  auto matches = SelectPath(doc_.root(), "a/**/c");
  // Zero levels: a/c (two of them); one level: a/b/c. Not d's.
  EXPECT_EQ(matches.size(), 3u);
}

TEST_F(XmlPathFixture, NoMatchesForUnknownTag) {
  EXPECT_TRUE(SelectPath(doc_.root(), "zzz").empty());
  EXPECT_TRUE(SelectPath(doc_.root(), "a/zzz").empty());
}

TEST_F(XmlPathFixture, EmptyPathMatchesNothing) {
  EXPECT_TRUE(SelectPath(doc_.root(), "").empty());
  EXPECT_TRUE(SelectPath(doc_.root(), "///").empty());
}

TEST_F(XmlPathFixture, SelectFirst) {
  XmlNode first = SelectFirst(doc_.root(), "**/c");
  ASSERT_TRUE(first);
  EXPECT_EQ(first.parent().tag(), "b");
  EXPECT_FALSE(SelectFirst(doc_.root(), "zzz"));
}

TEST_F(XmlPathFixture, NoDuplicateMatches) {
  // "**/**/c" must not yield each c multiple times.
  auto matches = SelectPath(doc_.root(), "**/**/c");
  EXPECT_EQ(matches.size(), 4u);
}

TEST(XmlPathCdaTest, NavigatesCdaShape) {
  XmlDocument doc = MustParse(testing_util::TinyCdaXml());
  auto sections = SelectPath(doc.root(), "section");
  EXPECT_EQ(sections.size(), 2u);
  auto observations = SelectPath(doc.root(), "**/Observation/value");
  ASSERT_EQ(observations.size(), 1u);
  EXPECT_EQ(observations[0].GetAttribute("displayName").value(), "Asthma");
  auto entries = SelectPath(doc.root(), "section/entry/*");
  EXPECT_EQ(Tags(entries),
            (std::vector<std::string>{"Observation", "SubstanceAdministration"}));
}

}  // namespace
}  // namespace xontorank
