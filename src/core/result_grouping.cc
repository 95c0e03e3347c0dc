#include "core/result_grouping.h"

#include <algorithm>
#include <map>

namespace xontorank {

std::string PathSignature(const XmlDocument& doc, const DeweyId& element) {
  XmlNode node = doc.Resolve(element);
  if (!node) return "";
  std::vector<XmlNode> chain;
  for (XmlNode cur = node; cur; cur = cur.parent()) chain.push_back(cur);
  std::string signature;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (!signature.empty()) signature.push_back('/');
    signature += it->tag();
  }
  return signature;
}

std::vector<ResultGroup> GroupResultsByPath(
    const std::vector<QueryResult>& results, const Corpus& corpus) {
  std::map<std::string, ResultGroup> by_signature;
  for (const QueryResult& result : results) {
    if (result.element.empty()) continue;
    uint32_t doc_id = result.element.doc_id();
    if (doc_id >= corpus.size()) continue;
    std::string signature = PathSignature(corpus[doc_id], result.element);
    if (signature.empty()) continue;
    ResultGroup& group = by_signature[signature];
    group.signature = signature;
    group.results.push_back(result);
  }
  std::vector<ResultGroup> groups;
  groups.reserve(by_signature.size());
  for (auto& [signature, group] : by_signature) {
    std::sort(group.results.begin(), group.results.end(),
              [](const QueryResult& a, const QueryResult& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.element < b.element;
              });
    groups.push_back(std::move(group));
  }
  std::sort(groups.begin(), groups.end(),
            [](const ResultGroup& a, const ResultGroup& b) {
              if (a.best_score() != b.best_score()) {
                return a.best_score() > b.best_score();
              }
              return a.signature < b.signature;
            });
  return groups;
}

}  // namespace xontorank
