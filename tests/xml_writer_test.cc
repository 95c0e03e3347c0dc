#include "xml/xml_writer.h"

#include "gtest/gtest.h"
#include "xml/xml_node.h"
#include "xml/xml_parser.h"

namespace xontorank {
namespace {

TEST(EscapeTest, TextEscapesMarkupChars) {
  EXPECT_EQ(EscapeXmlText("a<b>&c"), "a&lt;b&gt;&amp;c");
  EXPECT_EQ(EscapeXmlText("plain"), "plain");
  EXPECT_EQ(EscapeXmlText("\"quotes'ok\""), "\"quotes'ok\"");
}

TEST(EscapeTest, AttributeAlsoEscapesDoubleQuote) {
  EXPECT_EQ(EscapeXmlAttribute(R"(say "hi" & <go>)"),
            "say &quot;hi&quot; &amp; &lt;go&gt;");
}

TEST(XmlWriterTest, SelfClosingEmptyElement) {
  XmlBuilder builder("a");
  builder.root().AddAttribute("x", "1");
  XmlDocument doc = builder.Finish();
  EXPECT_EQ(WriteXml(doc.root()), R"(<a x="1"/>)");
}

TEST(XmlWriterTest, NestedCompact) {
  XmlBuilder builder("a");
  builder.root().AddElementChild("b").AddTextChild("hi");
  builder.root().AddElementChild("c");
  XmlDocument doc = builder.Finish();
  EXPECT_EQ(WriteXml(doc.root()), "<a><b>hi</b><c/></a>");
}

TEST(XmlWriterTest, DocumentEmitsDeclaration) {
  XmlDocument doc = XmlBuilder("root").Finish();
  std::string xml = WriteXml(doc);
  EXPECT_EQ(xml, "<?xml version=\"1.0\"?><root/>");
}

TEST(XmlWriterTest, DeclarationSuppressed) {
  XmlDocument doc = XmlBuilder("root").Finish();
  XmlWriteOptions options;
  options.emit_declaration = false;
  EXPECT_EQ(WriteXml(doc, options), "<root/>");
}

TEST(XmlWriterTest, PrettyPrintIndents) {
  XmlBuilder builder("a");
  builder.root().AddElementChild("b").AddElementChild("c");
  XmlDocument doc = builder.Finish();
  XmlWriteOptions options;
  options.pretty = true;
  EXPECT_EQ(WriteXml(doc.root(), options),
            "<a>\n  <b>\n    <c/>\n  </b>\n</a>");
}

TEST(XmlWriterTest, PrettyPreservesTextOnlyElements) {
  XmlBuilder builder("a");
  builder.root().AddTextChild("hello");
  XmlDocument doc = builder.Finish();
  XmlWriteOptions options;
  options.pretty = true;
  EXPECT_EQ(WriteXml(doc.root(), options), "<a>hello</a>");
}

TEST(XmlWriterTest, EscapedContentRoundTrips) {
  XmlBuilder builder("a");
  builder.root().AddAttribute("v", "1 < 2 & \"3\"");
  builder.root().AddTextChild("x < y & z");
  XmlDocument doc = builder.Finish();
  auto parsed = ParseXml(WriteXml(doc.root()));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->root().GetAttribute("v").value(), "1 < 2 & \"3\"");
  EXPECT_EQ(parsed->root().InnerText(), "x < y & z");
}

}  // namespace
}  // namespace xontorank
