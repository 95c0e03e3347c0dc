// Harness: ParseXml over arbitrary bytes — the CDA ingestion surface.
// Invariants: every input yields a ParseError Status or a document; a
// parsed document is walkable (Visit terminates, node accessors are
// safe); and parsing is idempotent: the document's WriteXml output
// re-parses to an equal tree (kinds, tags, attributes in order, text,
// ordinals, code nodes), which writes back byte for byte. Exercised with
// the default options and with a tight max_depth (the depth cap is itself
// a fuzz-campaign fix: unbounded nesting used to recurse the parser off
// the stack).

#include <string>
#include <string_view>

#include "common/check.h"
#include "fuzz_target.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace {
constexpr size_t kMaxInput = size_t{1} << 20;
}

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > kMaxInput) return 0;
  std::string_view input(reinterpret_cast<const char*>(data), size);
  for (size_t max_depth : {xontorank::XmlParseOptions{}.max_depth,
                           size_t{16}}) {
    xontorank::XmlParseOptions options;
    options.max_depth = max_depth;
    auto doc = xontorank::ParseXml(input, options);
    if (!doc.ok()) {
      XO_CHECK(!doc.status().message().empty());
      continue;
    }
    size_t nodes = 0;
    doc->root().Visit([&nodes](const xontorank::XmlNode& node) {
      ++nodes;
      (void)node.onto_ref();
      (void)node.attributes().size();
    });
    XO_CHECK(nodes == doc->NodeCount());

    std::string written = xontorank::WriteXml(*doc);
    auto again = xontorank::ParseXml(written, options);
    XO_CHECK(again.ok());
    XO_CHECK(xontorank::SameTree(doc->root(), again->root()));
    XO_CHECK(xontorank::WriteXml(*again) == written);
  }
  return 0;
}
