#ifndef XONTORANK_CORE_ONTOLOGY_CONTEXT_H_
#define XONTORANK_CORE_ONTOLOGY_CONTEXT_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/sync.h"
#include "core/onto_score.h"
#include "core/options.h"
#include "ir/query.h"
#include "onto/ontology_index.h"
#include "onto/ontology_set.h"

namespace xontorank {

/// Thread-safe memo of OntoScore rows: (system, keyword) → OS(w, ·), stored
/// dense (OntoScoreRow: one double per concept of the system, 0.0 where the
/// keyword does not reach) because that is the form stage 3 reads — one
/// indexed load per code node. A row depends only on the ontology, the
/// strategy and the score knobs — never on the corpus — so rows computed
/// for one index snapshot remain exact for every later snapshot of the
/// same engine. This is what makes a writer commit cheap: re-deriving the
/// XOnto-DILs for a grown corpus redoes only the (fast) textual BM25
/// component and reuses the (dominant) Algorithm-1 expansions.
///
/// Rows are returned as shared_ptr so concurrent readers and superseded
/// snapshots can keep using a row without copying it.
class OntoScoreRowCache {
 public:
  using Row = std::shared_ptr<const OntoScoreRow>;

  /// The cached row for (system, canonical keyword), or nullptr.
  Row Find(size_t system, const std::string& canonical) const
      XO_EXCLUDES(mutex_);

  /// Inserts a row; if a racing thread inserted one first, the existing row
  /// wins and is returned (callers discard their duplicate computation).
  Row Insert(size_t system, const std::string& canonical, OntoScoreRow row)
      XO_EXCLUDES(mutex_);

  size_t size() const XO_EXCLUDES(mutex_);

 private:
  struct Key {
    size_t system;
    std::string canonical;
    bool operator==(const Key& other) const {
      return system == other.system && canonical == other.canonical;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& key) const {
      return std::hash<std::string>()(key.canonical) * 31 + key.system;
    }
  };

  mutable Mutex mutex_;
  std::unordered_map<Key, Row, KeyHash> rows_ XO_GUARDED_BY(mutex_);
};

/// The corpus-independent half of an engine, shared by every index snapshot
/// the engine ever publishes: the ontological systems, their stage-1 BM25
/// indexes, and the OntoScore row cache. Immutable after Create (the row
/// cache is a synchronized memo, logically const).
///
/// The cache is only sound while strategy and score options are fixed, so a
/// context is bound to the options it was created with; CorpusIndex asserts
/// the binding.
class OntologyContext {
 public:
  /// Builds the per-system ontology indexes. The ontologies inside
  /// `systems` must outlive the context.
  static std::shared_ptr<const OntologyContext> Create(
      OntologySet systems, const IndexBuildOptions& options);

  const OntologySet& systems() const { return systems_; }
  const OntologyIndex& index(size_t system) const {
    return *indexes_[system];
  }
  Strategy strategy() const { return strategy_; }
  const ScoreOptions& score() const { return score_; }

  /// Every system's indexed vocabulary, sorted and unique: the ontology
  /// half of a kCorpusAndOntology vocabulary, computed once here rather
  /// than by every segment build.
  const std::vector<std::string>& vocabulary() const { return vocabulary_; }

  /// The dense row for (system, keyword), computed via Algorithm 1 on first
  /// use and memoized when row caching is enabled. Never nullptr; sized by
  /// the system's concept_count(), or empty when the keyword reaches no
  /// concept (always under Strategy::kXRank).
  OntoScoreRowCache::Row GetRow(size_t system, const Keyword& keyword) const;

  /// Rows currently memoized (stats/tests).
  size_t cached_rows() const { return row_cache_.size(); }

 private:
  OntologyContext() = default;

  OntologySet systems_;
  std::vector<std::unique_ptr<OntologyIndex>> indexes_;
  std::vector<std::string> vocabulary_;
  Strategy strategy_ = Strategy::kRelationships;
  ScoreOptions score_;
  bool cache_rows_ = true;
  mutable OntoScoreRowCache row_cache_;
};

}  // namespace xontorank

#endif  // XONTORANK_CORE_ONTOLOGY_CONTEXT_H_
