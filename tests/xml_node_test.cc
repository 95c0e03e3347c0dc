#include "xml/xml_node.h"

#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "xml/xml_writer.h"

namespace xontorank {
namespace {

using testing_util::Children;
using testing_util::MustParse;

TEST(XmlNodeTest, SubtreeSizeCountsAllNodes) {
  XmlDocument doc = MustParse("<a><b>t</b><c/></a>");
  // a, b, text, c
  EXPECT_EQ(doc.NodeCount(), 4u);
  EXPECT_EQ(doc.root().SubtreeSize(), 4u);
  EXPECT_EQ(Children(doc.root())[0].SubtreeSize(), 2u);
}

TEST(XmlNodeTest, FindChildAndDescendant) {
  XmlDocument doc = MustParse("<a><b><c/></b><c/></a>");
  XmlNode root = doc.root();
  EXPECT_TRUE(root.FindChildElement("b"));
  EXPECT_FALSE(root.FindChildElement("missing"));
  // FindChildElement only looks at direct children.
  XmlNode direct_c = root.FindChildElement("c");
  ASSERT_TRUE(direct_c);
  EXPECT_EQ(direct_c.ordinal(), 1u);
  // FindDescendantElement finds the depth-first-first one (inside b).
  XmlNode desc_c = root.FindDescendantElement("c");
  ASSERT_TRUE(desc_c);
  EXPECT_EQ(desc_c.parent().tag(), "b");
  EXPECT_FALSE(root.FindDescendantElement("a"));  // excludes the node itself
}

TEST(XmlNodeTest, VisitIsPreorder) {
  XmlDocument doc = MustParse("<a><b><c/></b><d/></a>");
  std::vector<std::string> tags;
  doc.root().Visit([&tags](const XmlNode& node) {
    if (node.is_element()) tags.emplace_back(node.tag());
  });
  EXPECT_EQ(tags, (std::vector<std::string>{"a", "b", "c", "d"}));
}

TEST(XmlNodeTest, VisitStaysInsideTheSubtree) {
  XmlDocument doc = MustParse("<a><b><c/>t</b><d/></a>");
  size_t visited = 0;
  Children(doc.root())[0].Visit([&visited](const XmlNode&) { ++visited; });
  EXPECT_EQ(visited, 3u);  // b, c, text — not the sibling d
}

TEST(XmlDocumentTest, DeweyIdOfMatchesStructure) {
  XmlDocument doc = MustParse("<a><b/><c><d/></c></a>", /*doc_id=*/7);
  XmlNode root = doc.root();
  std::vector<XmlNode> kids = Children(root);
  EXPECT_EQ(doc.DeweyIdOf(root).ToString(), "7");
  EXPECT_EQ(doc.DeweyIdOf(kids[0]).ToString(), "7.0");
  EXPECT_EQ(doc.DeweyIdOf(kids[1]).ToString(), "7.1");
  EXPECT_EQ(doc.DeweyIdOf(Children(kids[1])[0]).ToString(), "7.1.0");
}

TEST(XmlDocumentTest, ResolveInvertsDeweyIdOf) {
  XmlDocument doc = MustParse("<a><b>x</b><c><d/><e/></c></a>", 3);
  doc.root().Visit([&doc](const XmlNode& node) {
    DeweyId id = doc.DeweyIdOf(node);
    EXPECT_EQ(doc.Resolve(id), node) << id.ToString();
  });
}

TEST(XmlDocumentTest, ResolveRejectsForeignIds) {
  XmlDocument doc = MustParse("<a><b/></a>", 3);
  EXPECT_FALSE(doc.Resolve(DeweyId({4})));        // wrong doc
  EXPECT_FALSE(doc.Resolve(DeweyId({3, 9})));     // no such child
  EXPECT_FALSE(doc.Resolve(DeweyId({3, 0, 0})));  // too deep
  EXPECT_FALSE(doc.Resolve(DeweyId()));           // empty
  EXPECT_FALSE(XmlDocument().root());             // no root at all
}

TEST(XmlNodeTest, OntoRefStorage) {
  // The reference is derived from the code and codeSystem attributes.
  XmlBuilder builder("r");
  builder.root().AddElementChild("code").AddAttribute("code", "42");
  builder.root()
      .AddElementChild("code")
      .AddAttribute("code", "42")
      .AddAttribute("codeSystem", "sys");
  XmlDocument doc = builder.Finish();
  std::vector<XmlNode> kids = Children(doc.root());
  EXPECT_FALSE(doc.root().onto_ref().has_value());
  EXPECT_FALSE(kids[0].onto_ref().has_value());
  ASSERT_TRUE(kids[1].onto_ref().has_value());
  EXPECT_EQ(kids[1].onto_ref()->system, "sys");
  EXPECT_EQ(kids[1].onto_ref()->code, "42");
}

TEST(XmlBuilderTest, AttributesStayWithTheirElementInOrder) {
  // Attributes added to an element after others took attributes still read
  // back in the order they were added, and code-node detection follows.
  XmlBuilder builder("r");
  XmlBuilder::Element a = builder.root().AddElementChild("a");
  a.AddAttribute("code", "1");
  XmlBuilder::Element b = builder.root().AddElementChild("b");
  b.AddAttribute("x", "y");
  a.AddAttribute("codeSystem", "s").AddAttribute("z", "3");
  XmlDocument doc = builder.Finish(5);
  EXPECT_EQ(doc.doc_id(), 5u);
  EXPECT_EQ(WriteXml(doc.root()),
            R"(<r><a code="1" codeSystem="s" z="3"/><b x="y"/></r>)");
  std::vector<XmlNode> kids = Children(doc.root());
  ASSERT_TRUE(kids[0].onto_ref().has_value());
  EXPECT_EQ(kids[0].onto_ref()->system, "s");
  EXPECT_FALSE(kids[1].onto_ref().has_value());
}

}  // namespace
}  // namespace xontorank
