#include "core/ontology_context.h"

#include <algorithm>
#include <iterator>

#include "common/check.h"

namespace xontorank {

OntoScoreRowCache::Row OntoScoreRowCache::Find(
    size_t system, const std::string& canonical) const {
  MutexLock lock(mutex_);
  auto it = rows_.find(Key{system, canonical});
  return it == rows_.end() ? nullptr : it->second;
}

OntoScoreRowCache::Row OntoScoreRowCache::Insert(size_t system,
                                                 const std::string& canonical,
                                                 OntoScoreRow row) {
  auto shared = std::make_shared<const OntoScoreRow>(std::move(row));
  MutexLock lock(mutex_);
  auto [it, inserted] = rows_.emplace(Key{system, canonical}, shared);
  return it->second;
}

size_t OntoScoreRowCache::size() const {
  MutexLock lock(mutex_);
  return rows_.size();
}

std::shared_ptr<const OntologyContext> OntologyContext::Create(
    OntologySet systems, const IndexBuildOptions& options) {
  XO_CHECK(!systems.empty() && "at least one ontological system is required");
  // xo-lint: allow(new-delete) — private constructor, make_shared cannot.
  auto context = std::shared_ptr<OntologyContext>(new OntologyContext());
  context->systems_ = std::move(systems);
  context->strategy_ = options.strategy;
  context->score_ = options.score;
  context->cache_rows_ = options.cache_onto_score_rows;
  std::vector<std::string>& vocabulary = context->vocabulary_;
  for (size_t s = 0; s < context->systems_.size(); ++s) {
    context->indexes_.push_back(std::make_unique<OntologyIndex>(
        context->systems_.system(s), options.score.bm25));
    std::vector<std::string> part = context->indexes_.back()->Vocabulary();
    vocabulary.insert(vocabulary.end(), std::make_move_iterator(part.begin()),
                      std::make_move_iterator(part.end()));
  }
  std::sort(vocabulary.begin(), vocabulary.end());
  vocabulary.erase(std::unique(vocabulary.begin(), vocabulary.end()),
                   vocabulary.end());
  return context;
}

OntoScoreRowCache::Row OntologyContext::GetRow(size_t system,
                                               const Keyword& keyword) const {
  std::string canonical = keyword.Canonical();
  if (cache_rows_) {
    if (OntoScoreRowCache::Row row = row_cache_.Find(system, canonical)) {
      return row;
    }
  }
  // Compute outside any lock; a racing thread may duplicate the work, in
  // which case the first insert wins.
  OntoScoreRow row =
      ComputeDenseOntoScores(*indexes_[system], keyword, strategy_, score_);
  if (!cache_rows_) {
    return std::make_shared<const OntoScoreRow>(std::move(row));
  }
  return row_cache_.Insert(system, canonical, std::move(row));
}

}  // namespace xontorank
