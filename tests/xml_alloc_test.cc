// Counts the heap allocations ParseXml makes. A document is one node
// array, one attribute array and its source text (plus a string arena when
// it holds references), so the count must not grow with the node count.
// This binary replaces the global operator new to count.

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "gtest/gtest.h"
#include "xml/xml_parser.h"

namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace xontorank {
namespace {

/// A CDA-shaped document with `sections` sections, each holding elements,
/// attributes (some code nodes), text and an entity reference.
std::string DocumentWithSections(size_t sections) {
  std::string xml =
      "<?xml version=\"1.0\"?><ClinicalDocument xmlns=\"urn:hl7-org:v3\">"
      "<component><StructuredBody>";
  for (size_t i = 0; i < sections; ++i) {
    std::string n = std::to_string(i);
    xml += "<component><section><code code=\"" + n +
           "\" codeSystem=\"2.16.840.1.113883.6.96\" displayName=\"Section " +
           n + "\"/><title>Problems &amp; findings " + n +
           "</title><text>Patient stable; asthma noted.</text>"
           "<entry><Observation><value code=\"195967001\""
           " codeSystem=\"2.16.840.1.113883.6.96\" displayName=\"Asthma\"/>"
           "</Observation></entry></section></component>";
  }
  xml += "</StructuredBody></component></ClinicalDocument>";
  return xml;
}

/// Allocations of one parse of `xml`, after a warm-up parse (the parser
/// reuses per-thread scratch arrays, as a loader reading many documents
/// does). Sets `*nodes` to the document's node count.
size_t AllocationsToParse(const std::string& xml, size_t* nodes) {
  {
    auto warm = ParseXml(xml);
    EXPECT_TRUE(warm.ok()) << warm.status().ToString();
  }
  size_t before = g_allocations.load();
  auto doc = ParseXml(xml);
  size_t after = g_allocations.load();
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  *nodes = doc.ok() ? doc->NodeCount() : 0;
  return after - before;
}

TEST(XmlParseAllocationTest, TenTimesTheNodesMakeFewerThanTwiceTheAllocations) {
  size_t small_nodes = 0;
  size_t large_nodes = 0;
  size_t small = AllocationsToParse(DocumentWithSections(10), &small_nodes);
  size_t large = AllocationsToParse(DocumentWithSections(100), &large_nodes);
  ASSERT_GE(large_nodes, 9 * small_nodes);
  EXPECT_GT(small, 0u);
  EXPECT_LT(large, 2 * small) << small_nodes << " nodes: " << small
                              << " allocations; " << large_nodes
                              << " nodes: " << large << " allocations";
}

TEST(XmlParseAllocationTest, AdoptedBufferIsNotCopied) {
  std::string xml = DocumentWithSections(10);
  size_t nodes = 0;
  size_t copying = AllocationsToParse(xml, &nodes);
  std::string buffer = xml;
  size_t before = g_allocations.load();
  auto doc = ParseXml(std::move(buffer));
  size_t after = g_allocations.load();
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(after - before, copying - 1);
}

}  // namespace
}  // namespace xontorank
