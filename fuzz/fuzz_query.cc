// Harness: the query surface — ParseQuery over arbitrary text plus the
// full Search entry point with fuzz-derived SearchOptions against a
// small baked-in engine (tiny ontology + three CDA documents, built once
// per process). Invariant: any (query text, options) pair answers exactly
// what the naive Eq. 1-5 reference evaluator (tests/reference_eval.h)
// computes over the same documents — the same elements in the same order
// with bit-identical scores.

#include <string>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "core/search_api.h"
#include "core/xontorank.h"
#include "fuzz_target.h"
#include "ir/query.h"
#include "onto/ontology.h"
#include "tests/reference_eval.h"
#include "xml/xml_parser.h"

namespace {

using xontorank::Corpus;
using xontorank::Ontology;
using xontorank::QueryResult;
using xontorank::XmlDocument;
using xontorank::XOntoRank;
using xontorank::reference::TreeEvaluator;

constexpr size_t kMaxQueryBytes = 512;

Ontology BuildOntology() {
  Ontology onto("test.sys", "FuzzOnto");
  auto root = onto.AddConcept("1", "Root concept");
  auto disease = onto.AddConcept("2", "Disease");
  auto structure = onto.AddConcept("3", "Structure");
  auto asthma = onto.AddConcept("4", "Asthma", {"bronchial asthma"});
  auto bronchus = onto.AddConcept("6", "Bronchus");
  auto drug = onto.AddConcept("8", "Drug", {"theophylline"});
  XO_CHECK(onto.AddIsA(disease, root).ok());
  XO_CHECK(onto.AddIsA(structure, root).ok());
  XO_CHECK(onto.AddIsA(asthma, disease).ok());
  XO_CHECK(onto.AddIsA(bronchus, structure).ok());
  XO_CHECK(onto.AddIsA(drug, root).ok());
  XO_CHECK(onto.AddRelationship(asthma, "finding_site_of", bronchus).ok());
  XO_CHECK(onto.AddRelationship(drug, "treats", asthma).ok());
  XO_CHECK(onto.Validate().ok());
  return onto;
}

XmlDocument MustParse(std::string_view xml, uint32_t doc_id) {
  auto result = xontorank::ParseXml(xml);
  XO_CHECK(result.ok());
  XmlDocument doc = std::move(result).value();
  doc.set_doc_id(doc_id);
  return doc;
}

const char* const kDocuments[] = {
    R"(<ClinicalDocument><section>
        <title>Problems</title>
        <entry><Observation>
          <value code="4" codeSystem="test.sys" displayName="Asthma"/>
        </Observation></entry>
        <entry><SubstanceAdministration>
          <text>Theophylline 20 mg daily</text>
          <code code="8" codeSystem="test.sys" displayName="Drug"/>
        </SubstanceAdministration></entry>
      </section></ClinicalDocument>)",
    R"(<ClinicalDocument><section>
        <title>Findings</title>
        <entry><Observation>
          <value code="6" codeSystem="test.sys" displayName="Bronchus"/>
          <text>bronchial structure inflamed, wheezing pulse 96</text>
        </Observation></entry>
      </section></ClinicalDocument>)",
    R"(<ClinicalDocument><section>
        <title>Vitals</title>
        <text>Pulse 86 per minute, asthma attack resolved</text>
      </section></ClinicalDocument>)",
};

std::vector<XmlDocument> ParseDocuments() {
  std::vector<XmlDocument> docs;
  for (const char* xml : kDocuments) {
    docs.push_back(MustParse(xml, static_cast<uint32_t>(docs.size())));
  }
  return docs;
}

/// The engine under test and the reference over the same documents and
/// options. Leaked singletons: the ontology is borrowed by both and must
/// live for the whole campaign.
struct Fixture {
  const XOntoRank* engine;
  const TreeEvaluator* reference;
};

const Fixture& GetFixture() {
  static const Fixture fixture = [] {
    // xo-lint: allow(new-delete) — process-lifetime fixture.
    auto* onto = new Ontology(BuildOntology());
    // xo-lint: allow(new-delete) — process-lifetime fixture.
    auto* engine = new XOntoRank(ParseDocuments(), *onto, {});
    // xo-lint: allow(new-delete) — process-lifetime fixture.
    auto* reference = new TreeEvaluator(Corpus(ParseDocuments()), *onto, {});
    return Fixture{engine, reference};
  }();
  return fixture;
}

void CheckEqual(const std::vector<QueryResult>& got,
                const std::vector<QueryResult>& want) {
  XO_CHECK_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    XO_CHECK(got[i].element == want[i].element);
    XO_CHECK(got[i].score == want[i].score);
    XO_CHECK(got[i].keyword_scores == want[i].keyword_scores);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  xontorank::fuzz::FuzzInput input(data, size);
  xontorank::SearchOptions options;
  options.top_k = input.TakeByte() % 17;                  // 0 = everything
  options.parallelism = input.TakeByte() % 4;             // 0 = per-core
  options.use_cache = (input.TakeByte() & 1) != 0;
  options.pruning = (input.TakeByte() & 1) != 0
                        ? xontorank::PruningMode::kBlockMax
                        : xontorank::PruningMode::kExact;

  std::string_view text = input.Rest().substr(
      0, std::min(input.remaining(), kMaxQueryBytes));

  xontorank::KeywordQuery parsed = xontorank::ParseQuery(text);
  XO_CHECK(parsed.ToString().size() <= 4 * text.size() + 2 * parsed.size());

  const Fixture& fixture = GetFixture();
  std::vector<QueryResult> expected =
      fixture.reference->Evaluate(parsed, options.top_k);
  CheckEqual(fixture.engine->Search(text, options).results, expected);
  CheckEqual(fixture.engine->Search(parsed, options).results, expected);
  return 0;
}
