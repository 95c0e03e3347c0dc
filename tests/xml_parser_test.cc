#include "xml/xml_parser.h"

#include <string>

#include "cda/cda_document.h"
#include "cda/cda_generator.h"
#include "common/random.h"
#include "emr/emr_generator.h"
#include "emr/emr_to_cda.h"
#include "gtest/gtest.h"
#include "onto/snomed_fragment.h"
#include "tests/test_util.h"
#include "xml/xml_writer.h"

namespace xontorank {
namespace {

using testing_util::Children;

Result<XmlDocument> Parse(std::string_view xml) { return ParseXml(xml); }

TEST(XmlParserTest, MinimalDocument) {
  auto doc = Parse("<a/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root().tag(), "a");
  EXPECT_TRUE(doc->root().children().empty());
}

TEST(XmlParserTest, NestedElementsAndOrdinals) {
  auto doc = Parse("<a><b/><c><d/></c></a>");
  ASSERT_TRUE(doc.ok());
  std::vector<XmlNode> kids = Children(doc->root());
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(kids[0].tag(), "b");
  EXPECT_EQ(kids[0].ordinal(), 0u);
  EXPECT_EQ(kids[1].tag(), "c");
  EXPECT_EQ(kids[1].ordinal(), 1u);
  EXPECT_EQ(Children(kids[1])[0].tag(), "d");
  EXPECT_EQ(Children(kids[1])[0].parent().tag(), "c");
}

TEST(XmlParserTest, AttributesBothQuoteStyles) {
  auto doc = Parse(R"(<a x="1" y='two'/>)");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root().GetAttribute("x").value(), "1");
  EXPECT_EQ(doc->root().GetAttribute("y").value(), "two");
  EXPECT_FALSE(doc->root().GetAttribute("z").has_value());
}

TEST(XmlParserTest, AttributeOrderPreserved) {
  auto doc = Parse(R"(<a z="1" a="2" m="3"/>)");
  ASSERT_TRUE(doc.ok());
  XmlNode::AttributeRange attrs = doc->root().attributes();
  ASSERT_EQ(attrs.size(), 3u);
  EXPECT_EQ(attrs[0].name, "z");
  EXPECT_EQ(attrs[1].name, "a");
  EXPECT_EQ(attrs[2].name, "m");
}

TEST(XmlParserTest, TextContent) {
  auto doc = Parse("<a>hello <b>world</b> again</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root().InnerText(), "hello world again");
  std::vector<XmlNode> kids = Children(doc->root());
  ASSERT_EQ(kids.size(), 3u);
  EXPECT_TRUE(kids[0].is_text());
  EXPECT_EQ(kids[0].text(), "hello ");
}

TEST(XmlParserTest, IgnorableWhitespaceSkippedByDefault) {
  auto doc = Parse("<a>\n  <b/>\n  <c/>\n</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(Children(doc->root()).size(), 2u);
}

TEST(XmlParserTest, TextAcrossCommentsAndCdataIsOneNode) {
  auto doc = Parse("<a>x &amp; <!-- c -->y<![CDATA[ <z> ]]>&#33;<b/>w</a>");
  ASSERT_TRUE(doc.ok());
  std::vector<XmlNode> kids = Children(doc->root());
  ASSERT_EQ(kids.size(), 3u);
  EXPECT_EQ(kids[0].text(), "x & y <z> !");
  EXPECT_EQ(kids[1].tag(), "b");
  EXPECT_EQ(kids[2].text(), "w");
  EXPECT_EQ(kids[2].ordinal(), 2u);
}

TEST(XmlParserTest, WhitespaceOnlyTextIsDroppedWhateverItsPieces) {
  auto doc = Parse("<a> <!-- c --> &#32;<![CDATA[\t]]>\n<b/></a>");
  ASSERT_TRUE(doc.ok());
  std::vector<XmlNode> kids = Children(doc->root());
  ASSERT_EQ(kids.size(), 1u);
  EXPECT_EQ(kids[0].tag(), "b");
  EXPECT_EQ(kids[0].ordinal(), 0u);
}

TEST(XmlParserTest, PredefinedEntities) {
  auto doc = Parse("<a>&lt;tag&gt; &amp; &quot;q&quot; &apos;a&apos;</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root().InnerText(), "<tag> & \"q\" 'a'");
}

TEST(XmlParserTest, NumericCharacterReferences) {
  auto doc = Parse("<a>&#65;&#x42;&#x63;</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root().InnerText(), "ABc");
}

TEST(XmlParserTest, Utf8CharacterReference) {
  auto doc = Parse("<a>&#233;</a>");  // é
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root().InnerText(), "\xC3\xA9");
}

TEST(XmlParserTest, EntitiesInAttributes) {
  auto doc = Parse(R"(<a v="1 &lt; 2 &amp; 3 &gt; 2"/>)");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root().GetAttribute("v").value(), "1 < 2 & 3 > 2");
}

TEST(XmlParserTest, CommentsSkippedEverywhere) {
  auto doc = Parse("<!-- head --><a><!-- in -->x<!-- out --></a><!-- tail -->");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root().InnerText(), "x");
}

TEST(XmlParserTest, CdataSection) {
  auto doc = Parse("<a><![CDATA[<not> & parsed]]></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root().InnerText(), "<not> & parsed");
}

TEST(XmlParserTest, XmlDeclarationAndDoctype) {
  auto doc = Parse(
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<!DOCTYPE a [ <!ELEMENT a ANY> ]>\n"
      "<a/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root().tag(), "a");
}

TEST(XmlParserTest, ProcessingInstructionInsideContent) {
  auto doc = Parse("<a><?pi stuff?>text</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root().InnerText(), "text");
}

TEST(XmlParserTest, NamespacePrefixedNamesKept) {
  auto doc = Parse(R"(<ns:a xmlns:ns="urn:x" ns:attr="v"><ns:b/></ns:a>)");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root().tag(), "ns:a");
  EXPECT_EQ(Children(doc->root())[0].tag(), "ns:b");
  EXPECT_EQ(doc->root().GetAttribute("ns:attr").value(), "v");
}

// ---- Error cases ----

TEST(XmlParserErrorTest, MismatchedEndTag) {
  auto doc = Parse("<a><b></a></b>");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
  EXPECT_NE(doc.status().message().find("mismatched"), std::string::npos);
}

TEST(XmlParserErrorTest, UnterminatedElement) {
  EXPECT_FALSE(Parse("<a><b>").ok());
}

TEST(XmlParserErrorTest, ContentAfterRoot) {
  auto doc = Parse("<a/><b/>");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("after the root"), std::string::npos);
}

TEST(XmlParserErrorTest, EmptyInput) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("   \n ").ok());
}

TEST(XmlParserErrorTest, DuplicateAttribute) {
  auto doc = Parse(R"(<a x="1" x="2"/>)");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("duplicate"), std::string::npos);
}

TEST(XmlParserErrorTest, UnknownEntity) {
  EXPECT_FALSE(Parse("<a>&unknown;</a>").ok());
}

TEST(XmlParserErrorTest, UnterminatedEntity) {
  EXPECT_FALSE(Parse("<a>&amp</a>").ok());
}

TEST(XmlParserErrorTest, BadCharacterReference) {
  EXPECT_FALSE(Parse("<a>&#xZZ;</a>").ok());
  EXPECT_FALSE(Parse("<a>&#;</a>").ok());
  EXPECT_FALSE(Parse("<a>&#1114112;</a>").ok());  // > U+10FFFF
}

TEST(XmlParserErrorTest, MissingAttributeValue) {
  EXPECT_FALSE(Parse("<a x=/>").ok());
  EXPECT_FALSE(Parse("<a x=1/>").ok());
}

TEST(XmlParserErrorTest, RawLessThanInAttribute) {
  EXPECT_FALSE(Parse(R"(<a x="a<b"/>)").ok());
}

TEST(XmlParserErrorTest, ErrorsCarryPosition) {
  auto doc = Parse("<a>\n<b>\n</c>\n</a>");
  ASSERT_FALSE(doc.ok());
  // The mismatch is on line 3.
  EXPECT_NE(doc.status().message().find("3:"), std::string::npos);
}

// The exact message, position included, for every way a document can be
// malformed. Positions are 1-based line:column of the offending byte.
struct MalformedCase {
  const char* input;
  const char* message;
};

constexpr MalformedCase kMalformed[] = {
    {"", "1:1: document contains no root element"},
    {"   \n ", "2:2: document contains no root element"},
    {"<!-- c --> \n", "2:1: document contains no root element"},
    {"hello", "1:1: expected '<' before root element"},
    {"\n  x<a/>", "2:3: expected '<' before root element"},
    {"<a/><b/>", "1:5: content after the root element"},
    {"<a/>\n  junk", "2:3: content after the root element"},
    {"<a/><!-- ok --><?pi?>x", "1:22: content after the root element"},
    {"<1a/>", "1:2: expected a name"},
    {"<a><1/></a>", "1:5: expected a name"},
    {"<a></1></a>", "1:6: expected a name"},
    {"<a x=\"1\"\n    y=\"2\" x=\"3\"/>", "2:16: duplicate attribute 'x'"},
    {"<a>\n<b>\n</c>\n</a>",
     "3:4: mismatched end tag: expected </b> but found </c>"},
    {"<a><b></c></a>",
     "1:10: mismatched end tag: expected </b> but found </c>"},
    {"<a>\n  text &bogus; more</a>", "2:15: unknown entity reference"},
    {"<a>\n\n  tex &nbsp;</a>", "3:13: unknown entity reference"},
    {"<a>\nhello", "2:6: unexpected end of input inside element 'a'"},
    {"<a>&amp</a>", "1:12: unterminated entity reference"},
    {"<a>&abcdefghijkl;</a>", "1:16: unterminated entity reference"},
    {"<a>&abcdefghijk;</a>", "1:17: unknown entity reference"},
    {"<a>&#xZZ;</a>", "1:10: bad hexadecimal character reference"},
    {"<a>&#x;</a>", "1:8: bad character reference"},
    {"<a>&#;</a>", "1:7: character reference out of range"},
    {"<a>&#12a;</a>", "1:10: bad character reference"},
    {"<a>&#0;</a>", "1:8: character reference out of range"},
    {"<a>&#1114112;</a>", "1:14: character reference out of range"},
    {"<a>&#x110000;</a>", "1:14: character reference out of range"},
    {"<a>\n<b>", "2:4: unexpected end of input inside element 'b'"},
    {"<a>\n<b>text", "2:8: unexpected end of input inside element 'b'"},
    {"<a", "1:3: unterminated start tag"},
    {"<a ", "1:4: unterminated start tag"},
    {"<a x", "1:5: expected '=' after attribute name"},
    {"<a x=", "1:6: expected quoted attribute value"},
    {"<a x=\"1", "1:8: unterminated attribute value"},
    {"<a x='1\n", "2:1: unterminated attribute value"},
    {"<a x=/>", "1:6: expected quoted attribute value"},
    {"<a x=1/>", "1:6: expected quoted attribute value"},
    {"<a x\"1\"/>", "1:5: expected '=' after attribute name"},
    {"<a x=\"1\"y=\"2\"/>", "1:9: expected whitespace before attribute"},
    {"<a/ >", "1:3: expected whitespace before attribute"},
    {"<a x=\"a<b\"/>", "1:8: '<' not allowed inside attribute value"},
    {"<a x=\"a&lt;b&bad;\"/>", "1:18: unknown entity reference"},
    {"<a x=\"a&#xG;\"/>", "1:13: bad hexadecimal character reference"},
    {"<a>\n<![CDATA[ never closed", "2:23: unterminated CDATA section"},
    {"<a>\n  <![CDATA[x]]", "2:15: unterminated CDATA section"},
    {"<a></a", "1:7: expected '>' in end tag"},
    {"<a></a x>", "1:8: expected '>' in end tag"},
    {"<a><!-- open", "1:13: unexpected end of input inside element 'a'"},
    {"<a><?pi open", "1:13: unexpected end of input inside element 'a'"},
    {"<a><!DOCTYPE x></a>", "1:5: expected a name"},
    {"<!DOCTYPE a [ <!ELEMENT a ANY> ]",
     "1:33: document contains no root element"},
    {"<?xml version=\"1.0\"?>\n<!-- c -->\n<a>\n  <b x=\"1\" x=\"2\"/>\n</a>",
     "4:17: duplicate attribute 'x'"},
    {"<a>\n\t<b>\r\n</b>&</a>", "3:10: unterminated entity reference"},
    {"<a>&\n</a>", "2:5: unterminated entity reference"},
    {"\xEF\xBB\xBF<a/>", "1:1: expected '<' before root element"},
    {"<a:b\xC3\xA9/>", "1:5: expected whitespace before attribute"},
    {"<a>\xC3\xA9 ok</a><", "1:13: content after the root element"},
};

TEST(XmlParserErrorTest, GoldenMessages) {
  for (const MalformedCase& c : kMalformed) {
    auto doc = Parse(c.input);
    ASSERT_FALSE(doc.ok()) << c.input;
    EXPECT_EQ(doc.status().code(), StatusCode::kParseError) << c.input;
    EXPECT_EQ(doc.status().message(), c.message) << c.input;
  }
}

TEST(XmlParserErrorTest, GoldenDepthMessage) {
  XmlParseOptions options;
  options.max_depth = 2;
  auto doc = ParseXml("<a>\n <b>\n  <c/></b></a>", options);
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().message(),
            "3:3: element nesting exceeds the configured maximum depth");
}

// ---- Onto ref extraction ----

TEST(OntoRefTest, DetectedDuringParse) {
  auto doc = Parse(
      R"(<r><code code="195967001" codeSystem="2.16.840.1.113883.6.96"/></r>)");
  ASSERT_TRUE(doc.ok());
  XmlNode code = Children(doc->root())[0];
  ASSERT_TRUE(code.onto_ref().has_value());
  EXPECT_EQ(code.onto_ref()->code, "195967001");
  EXPECT_EQ(code.onto_ref()->system, "2.16.840.1.113883.6.96");
}

TEST(OntoRefTest, RequiresBothAttributes) {
  auto doc = Parse(R"(<r><a code="1"/><b codeSystem="s"/><c code="" codeSystem="s"/></r>)");
  ASSERT_TRUE(doc.ok());
  for (XmlNode child : doc->root().children()) {
    EXPECT_FALSE(child.onto_ref().has_value()) << child.tag();
  }
}

TEST(OntoRefTest, DecodedAttributeValuesCount) {
  auto doc = Parse(R"(<r code="&#49;" codeSystem="s&amp;t"/>)");
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(doc->root().onto_ref().has_value());
  EXPECT_EQ(doc->root().onto_ref()->code, "1");
  EXPECT_EQ(doc->root().onto_ref()->system, "s&t");
}

// ---- Nesting depth cap (hostile-input hardening, DESIGN.md §13) ----

std::string NestedXml(size_t depth) {
  std::string xml;
  for (size_t i = 0; i < depth; ++i) xml += "<a>";
  xml += "x";
  for (size_t i = 0; i < depth; ++i) xml += "</a>";
  return xml;
}

TEST(XmlParserTest, NestingAtDefaultDepthLimitParses) {
  auto doc = Parse(NestedXml(XmlParseOptions{}.max_depth));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
}

TEST(XmlParserTest, NestingBeyondDefaultDepthLimitIsParseError) {
  // Without the cap, nesting depth is attacker-controlled, and so is the
  // recursion depth of every recursive walk over the tree.
  auto doc = Parse(NestedXml(XmlParseOptions{}.max_depth + 1));
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
  EXPECT_NE(doc.status().message().find("maximum depth"), std::string::npos)
      << doc.status().message();
}

TEST(XmlParserTest, CustomDepthLimitIsExact) {
  XmlParseOptions options;
  options.max_depth = 4;
  EXPECT_TRUE(ParseXml(NestedXml(4), options).ok());
  auto doc = ParseXml(NestedXml(5), options);
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
}

// ---- Round-trip property ----

class XmlRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

void AddRandomChildren(Rng& rng, XmlBuilder::Element node, int depth) {
  size_t num_attrs = rng.NextBelow(3);
  for (size_t i = 0; i < num_attrs; ++i) {
    node.AddAttribute("a" + std::to_string(i),
                      "v<&\"'" + std::to_string(rng.NextBelow(100)));
  }
  if (depth > 0) {
    size_t num_children = rng.NextBelow(4);
    bool prev_was_text = false;
    for (size_t i = 0; i < num_children; ++i) {
      // Adjacent text nodes merge on reparse, so never generate two in a
      // row (the parser cannot distinguish them, by design).
      if (!prev_was_text && rng.NextBool(0.3)) {
        node.AddTextChild("text & <stuff> " + std::to_string(i));
        prev_was_text = true;
      } else {
        AddRandomChildren(
            rng,
            node.AddElementChild("e" + std::to_string(rng.NextBelow(5))),
            depth - 1);
        prev_was_text = false;
      }
    }
  }
}

XmlDocument RandomTree(Rng& rng, int depth) {
  XmlBuilder builder("e" + std::to_string(rng.NextBelow(5)));
  AddRandomChildren(rng, builder.root(), depth);
  return builder.Finish();
}

TEST_P(XmlRoundTripTest, ParseInvertsWrite) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    XmlDocument tree = RandomTree(rng, 3);
    std::string xml = WriteXml(tree.root());
    auto parsed = ParseXml(xml);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << xml;
    EXPECT_TRUE(SameTree(tree.root(), parsed->root())) << xml;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripTest,
                         ::testing::Values(3, 17, 99, 12345));

// ---- Generated documents: the builder and the parser agree ----

/// Checks that `built` survives WriteXml -> ParseXml node by node, and that
/// the parsed document writes back byte for byte.
void ExpectParsesToBuiltTree(const XmlDocument& built) {
  std::string xml = WriteXml(built);
  auto parsed = ParseXml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->NodeCount(), built.NodeCount());
  EXPECT_TRUE(SameTree(built.root(), parsed->root()));
  EXPECT_EQ(WriteXml(*parsed), xml);
}

TEST(GeneratedDocumentTest, CdaGeneratorDocumentsParseToTheBuiltTree) {
  Ontology onto = BuildSnomedCardiologyFragment();
  CdaGeneratorOptions options;
  options.seed = 404;
  CdaGenerator generator(onto, options);
  for (uint32_t i = 0; i < 100; ++i) {
    ExpectParsesToBuiltTree(CdaToXml(generator.GenerateDocument(i), i));
  }
}

TEST(GeneratedDocumentTest, EmrToCdaDocumentsParseToTheBuiltTree) {
  Ontology onto = BuildSnomedCardiologyFragment();
  EmrGeneratorOptions options;
  options.num_patients = 100;
  auto docs = ConvertEmrToCda(GenerateEmrDatabase(onto, options), onto);
  ASSERT_TRUE(docs.ok()) << docs.status().ToString();
  ASSERT_EQ(docs->size(), 100u);
  for (uint32_t i = 0; i < docs->size(); ++i) {
    ExpectParsesToBuiltTree(CdaToXml((*docs)[i], i));
  }
}

}  // namespace
}  // namespace xontorank
