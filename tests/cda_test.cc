#include "cda/cda_document.h"
#include "cda/cda_generator.h"

#include "gtest/gtest.h"
#include "onto/ontology_generator.h"
#include "onto/snomed_fragment.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace xontorank {
namespace {

CdaDocument SampleDocument() {
  CdaDocument doc;
  doc.id_extension = "c266";
  doc.author = {"KP00017", "Juan", "Woodblack", "MD", "20040407"};
  doc.patient = {"49912", "First", "Last", "Jr.", "M", "19541125", "M345"};
  CdaSection meds;
  meds.code = {"10160-0", kLoincSystemId, "LOINC", "History of medication use"};
  meds.title = "Medications";
  CdaEntry obs;
  obs.kind = CdaEntry::Kind::kObservation;
  obs.observation.code = {"404684003", kSnomedSystemId, "SNOMED CT", "Finding"};
  obs.observation.values.push_back(
      {"195967001", kSnomedSystemId, "SNOMED CT", "Asthma"});
  obs.observation.original_text_ref = "m1";
  meds.entries.push_back(obs);
  CdaEntry sub;
  sub.kind = CdaEntry::Kind::kSubstanceAdministration;
  sub.substance_administration.content_id = "m1";
  sub.substance_administration.drug_name = "Theophylline";
  sub.substance_administration.instructions = " 20 mg every other day.";
  sub.substance_administration.drug_code = {"66493003", kSnomedSystemId,
                                            "SNOMED CT", "Theophylline"};
  meds.entries.push_back(sub);
  doc.sections.push_back(meds);
  return doc;
}

TEST(CdaToXmlTest, FollowsFigureOneShape) {
  XmlDocument xml = CdaToXml(SampleDocument(), 5);
  XmlNode root = xml.root();
  EXPECT_EQ(root.tag(), "ClinicalDocument");
  EXPECT_EQ(xml.doc_id(), 5u);
  ASSERT_TRUE(root.FindChildElement("author"));
  ASSERT_TRUE(root.FindChildElement("recordTarget"));
  XmlNode body =
      root.FindChildElement("component").FindChildElement("StructuredBody");
  ASSERT_TRUE(body);
  XmlNode section =
      body.FindChildElement("component").FindChildElement("section");
  ASSERT_TRUE(section);
  EXPECT_EQ(section.FindChildElement("title").InnerText(), "Medications");
}

TEST(CdaToXmlTest, CodeNodesCarryOntoRefs) {
  XmlDocument xml = CdaToXml(SampleDocument(), 0);
  size_t snomed_refs = 0;
  xml.root().Visit([&](const XmlNode& node) {
    if (node.onto_ref().has_value() &&
        node.onto_ref()->system == kSnomedSystemId) {
      ++snomed_refs;
    }
  });
  // Finding code + Asthma value + Theophylline drug code.
  EXPECT_EQ(snomed_refs, 3u);
}

TEST(CdaToXmlTest, OriginalTextReferenceEmitted) {
  XmlDocument xml = CdaToXml(SampleDocument(), 0);
  XmlNode reference;
  xml.root().Visit([&](const XmlNode& node) {
    if (node.is_element() && node.tag() == "reference") reference = node;
  });
  ASSERT_TRUE(reference);
  EXPECT_EQ(reference.GetAttribute("value").value(), "m1");
}

TEST(CdaToXmlTest, SubstanceAdministrationNesting) {
  XmlDocument xml = CdaToXml(SampleDocument(), 0);
  XmlNode drug;
  xml.root().Visit([&](const XmlNode& node) {
    if (node.is_element() && node.tag() == "manufacturedLabeledDrug") {
      drug = node;
    }
  });
  ASSERT_TRUE(drug);
  // consumable → manufacturedProduct → manufacturedLabeledDrug → code.
  EXPECT_EQ(drug.parent().tag(), "manufacturedProduct");
  EXPECT_EQ(drug.parent().parent().tag(), "consumable");
  ASSERT_TRUE(drug.FindChildElement("code"));
}

TEST(CdaToXmlTest, RoundTripsThroughParser) {
  XmlDocument xml = CdaToXml(SampleDocument(), 0);
  std::string serialized = WriteXml(xml);
  auto reparsed = ParseXml(serialized);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->NodeCount(), xml.NodeCount());
  // Onto refs re-detected after the round trip.
  size_t refs = 0;
  reparsed->root().Visit([&](const XmlNode& node) {
    if (node.onto_ref().has_value()) ++refs;
  });
  EXPECT_GE(refs, 3u);
}

// ---- Generator ----

class CdaGeneratorFixture : public ::testing::Test {
 protected:
  CdaGeneratorFixture() : onto_(BuildSnomedCardiologyFragment()) {}
  Ontology onto_;
};

TEST_F(CdaGeneratorFixture, DeterministicPerSeed) {
  CdaGeneratorOptions options;
  options.num_documents = 3;
  options.seed = 99;
  CdaGenerator gen_a(onto_, options), gen_b(onto_, options);
  for (uint32_t i = 0; i < 3; ++i) {
    XmlDocument a = CdaToXml(gen_a.GenerateDocument(i), i);
    XmlDocument b = CdaToXml(gen_b.GenerateDocument(i), i);
    EXPECT_EQ(WriteXml(a), WriteXml(b));
  }
}

TEST_F(CdaGeneratorFixture, DocumentsDifferAcrossIndices) {
  CdaGeneratorOptions options;
  options.num_documents = 2;
  CdaGenerator gen(onto_, options);
  EXPECT_NE(WriteXml(CdaToXml(gen.GenerateDocument(0), 0)),
            WriteXml(CdaToXml(gen.GenerateDocument(1), 1)));
}

TEST_F(CdaGeneratorFixture, CorpusStatsInRealisticRange) {
  CdaGeneratorOptions options;
  options.num_documents = 10;
  CdaGenerator gen(onto_, options);
  Corpus corpus = gen.GenerateCorpus();
  CdaCorpusStats stats = CdaGenerator::ComputeStats(corpus);
  EXPECT_EQ(stats.documents, 10u);
  EXPECT_GT(stats.AvgOntoRefs(), 30.0);
  EXPECT_GT(stats.AvgElements(), 100.0);
  EXPECT_GT(stats.AvgKilobytes(), 5.0);
}

TEST_F(CdaGeneratorFixture, EveryDocumentParsesAndHasStructure) {
  CdaGeneratorOptions options;
  options.num_documents = 5;
  CdaGenerator gen(onto_, options);
  for (const XmlDocument& doc : gen.GenerateCorpus()) {
    auto reparsed = ParseXml(WriteXml(doc));
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_EQ(doc.root().tag(), "ClinicalDocument");
    EXPECT_TRUE(doc.root().FindDescendantElement("StructuredBody"));
    EXPECT_TRUE(doc.root().FindDescendantElement("section"));
  }
}

TEST_F(CdaGeneratorFixture, AllRefsResolveInOntology) {
  CdaGeneratorOptions options;
  options.num_documents = 4;
  CdaGenerator gen(onto_, options);
  for (const XmlDocument& doc : gen.GenerateCorpus()) {
    doc.root().Visit([&](const XmlNode& node) {
      if (!node.onto_ref().has_value()) return;
      if (node.onto_ref()->system != onto_.system_id()) return;  // LOINC etc.
      EXPECT_NE(onto_.FindByCode(node.onto_ref()->code), kInvalidConcept)
          << node.onto_ref()->code;
    });
  }
}

TEST_F(CdaGeneratorFixture, WorksOnSyntheticOntologyWithoutCuratedRoots) {
  OntologyGeneratorOptions gen_options;
  Ontology synthetic = [&] {
    OntologyGeneratorOptions o;
    o.num_concepts = 100;
    return GenerateOntology(o);
  }();
  CdaGeneratorOptions options;
  options.num_documents = 2;
  CdaGenerator gen(synthetic, options);
  Corpus corpus = gen.GenerateCorpus();
  EXPECT_EQ(corpus.size(), 2u);
  CdaCorpusStats stats = CdaGenerator::ComputeStats(corpus);
  EXPECT_GT(stats.total_onto_refs, 0u);
}

}  // namespace
}  // namespace xontorank
