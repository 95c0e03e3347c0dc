#include "core/xontorank.h"

namespace xontorank {

XOntoRank::XOntoRank(Corpus corpus, OntologySet systems,
                     IndexBuildOptions options)
    : writer_(std::move(corpus), std::move(systems), options) {}

SearchResponse XOntoRank::Search(const KeywordQuery& query,
                                 const SearchOptions& options) const {
  return snapshot()->Search(query, options);
}

SearchResponse XOntoRank::Search(std::string_view query_text,
                                 const SearchOptions& options) const {
  return Search(ParseQuery(query_text), options);
}

uint32_t XOntoRank::AddDocument(XmlDocument doc) {
  return writer_.AddDocument(std::move(doc));
}

uint32_t XOntoRank::StageDocument(XmlDocument doc) {
  return writer_.StageDocument(std::move(doc));
}

void XOntoRank::Commit() { writer_.Commit(); }

const XmlNode* XOntoRank::ResolveResult(const QueryResult& result) const {
  return snapshot()->ResolveResult(result);
}

std::string XOntoRank::ResultFragmentXml(const QueryResult& result) const {
  return snapshot()->ResultFragmentXml(result);
}

}  // namespace xontorank
