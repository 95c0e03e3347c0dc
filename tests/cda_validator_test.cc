#include "cda/cda_validator.h"

#include "cda/cda_generator.h"
#include "gtest/gtest.h"
#include "onto/snomed_fragment.h"
#include "tests/test_util.h"

namespace xontorank {
namespace {

using testing_util::MustParse;

size_t CountErrors(const std::vector<CdaDiagnostic>& diagnostics) {
  size_t errors = 0;
  for (const CdaDiagnostic& d : diagnostics) {
    if (d.is_error()) ++errors;
  }
  return errors;
}

TEST(CdaValidatorTest, GeneratedDocumentsAreClean) {
  Ontology onto = BuildSnomedCardiologyFragment();
  CdaGeneratorOptions options;
  options.num_documents = 5;
  CdaGenerator generator(onto, options);
  for (const XmlDocument& doc : generator.GenerateCorpus()) {
    auto diagnostics = ValidateCda(doc);
    EXPECT_EQ(CountErrors(diagnostics), 0u);
    EXPECT_TRUE(CheckCda(doc).ok());
  }
}

TEST(CdaValidatorTest, WrongRootIsError) {
  XmlDocument doc = MustParse("<NotCda/>");
  auto diagnostics = ValidateCda(doc);
  ASSERT_GE(diagnostics.size(), 1u);
  EXPECT_TRUE(diagnostics[0].is_error());
  EXPECT_NE(diagnostics[0].message.find("ClinicalDocument"),
            std::string::npos);
  EXPECT_FALSE(CheckCda(doc).ok());
}

TEST(CdaValidatorTest, MissingBodyIsError) {
  XmlDocument doc = MustParse(
      "<ClinicalDocument><id/><author/><recordTarget/></ClinicalDocument>");
  EXPECT_EQ(CheckCda(doc).code(), StatusCode::kFailedPrecondition);
}

TEST(CdaValidatorTest, BodyWithoutSectionIsError) {
  XmlDocument doc = MustParse(
      "<ClinicalDocument><id/><author/><recordTarget/>"
      "<component><StructuredBody/></component></ClinicalDocument>");
  auto diagnostics = ValidateCda(doc);
  EXPECT_EQ(CountErrors(diagnostics), 1u);
}

TEST(CdaValidatorTest, MissingHeadersAreWarnings) {
  XmlDocument doc = MustParse(
      "<ClinicalDocument><component><StructuredBody>"
      "<section><title>T</title></section>"
      "</StructuredBody></component></ClinicalDocument>");
  auto diagnostics = ValidateCda(doc);
  EXPECT_EQ(CountErrors(diagnostics), 0u);
  size_t warnings = diagnostics.size();
  EXPECT_EQ(warnings, 3u);  // id, author, recordTarget
  EXPECT_TRUE(CheckCda(doc).ok());
}

TEST(CdaValidatorTest, CodeWithoutCodeSystemIsError) {
  XmlDocument doc = MustParse(
      "<ClinicalDocument><id/><author/><recordTarget/>"
      "<component><StructuredBody><section>"
      "<code code=\"195967001\"/><title>X</title>"
      "</section></StructuredBody></component></ClinicalDocument>");
  auto diagnostics = ValidateCda(doc);
  ASSERT_EQ(CountErrors(diagnostics), 1u);
  for (const CdaDiagnostic& d : diagnostics) {
    if (d.is_error()) {
      EXPECT_NE(d.message.find("codeSystem"), std::string::npos);
    }
  }
}

TEST(CdaValidatorTest, BareSectionIsWarning) {
  XmlDocument doc = MustParse(
      "<ClinicalDocument><id/><author/><recordTarget/>"
      "<component><StructuredBody><section><text>x</text></section>"
      "</StructuredBody></component></ClinicalDocument>");
  auto diagnostics = ValidateCda(doc);
  EXPECT_EQ(CountErrors(diagnostics), 0u);
  bool found = false;
  for (const CdaDiagnostic& d : diagnostics) {
    if (d.message.find("neither <code> nor <title>") != std::string::npos) {
      found = true;
      EXPECT_FALSE(d.is_error());
    }
  }
  EXPECT_TRUE(found);
}

TEST(CdaValidatorTest, DanglingReferenceIsWarning) {
  XmlDocument doc = MustParse(
      "<ClinicalDocument><id/><author/><recordTarget/>"
      "<component><StructuredBody><section><title>T</title>"
      "<reference value=\"nowhere\"/>"
      "</section></StructuredBody></component></ClinicalDocument>");
  auto diagnostics = ValidateCda(doc);
  EXPECT_EQ(CountErrors(diagnostics), 0u);
  bool found = false;
  for (const CdaDiagnostic& d : diagnostics) {
    if (d.message.find("does not resolve") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(CdaValidatorTest, ResolvedReferenceIsClean) {
  XmlDocument doc = MustParse(
      "<ClinicalDocument><id/><author/><recordTarget/>"
      "<component><StructuredBody><section><title>T</title>"
      "<content ID=\"m1\">Theophylline</content>"
      "<reference value=\"m1\"/><reference value=\"#m1\"/>"
      "</section></StructuredBody></component></ClinicalDocument>");
  for (const CdaDiagnostic& d : ValidateCda(doc)) {
    EXPECT_EQ(d.message.find("does not resolve"), std::string::npos)
        << d.message;
  }
}

TEST(CdaValidatorTest, DiagnosticsCarryLocation) {
  XmlDocument doc = MustParse(
      "<ClinicalDocument><id/><author/><recordTarget/>"
      "<component><StructuredBody><section>"
      "<code code=\"x\"/><title>T</title>"
      "</section></StructuredBody></component></ClinicalDocument>",
      /*doc_id=*/4);
  for (const CdaDiagnostic& d : ValidateCda(doc)) {
    if (d.is_error()) {
      EXPECT_EQ(doc.Resolve(d.where).tag(), "code");
    }
  }
}

}  // namespace
}  // namespace xontorank
