#ifndef XONTORANK_CORE_INDEX_SNAPSHOT_H_
#define XONTORANK_CORE_INDEX_SNAPSHOT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "core/index_builder.h"
#include "core/index_segment.h"
#include "core/ontology_context.h"
#include "core/query_processor.h"
#include "core/ranked_query_processor.h"
#include "core/search_api.h"
#include "xml/corpus.h"
#include "xml/xml_node.h"

namespace xontorank {

/// One immutable, self-consistent serving state of the engine: a corpus,
/// the ordered set of immutable segments whose document ranges tile it
/// (DESIGN.md §15), and a handle on the shared ontology context. Snapshots
/// are created by the IndexWriter (or the engine store's load path),
/// published to readers through one atomic shared_ptr swap, and never
/// mutated afterwards — a reader holding a snapshot can answer queries
/// indefinitely without observing any effect of concurrent writes.
///
/// Structural sharing across successive snapshots of one engine:
///   - documents (shared_ptr inside Corpus — extending the corpus copies
///     pointers, never documents),
///   - segments (a commit adds one; every earlier segment is shared),
///   - the ontology systems and their stage-1 BM25 indexes
///     (OntologyContext),
///   - the OntoScore rows of stage 2 (the context's row cache).
///
/// Thread-safety: all methods are const and safe to call from any number of
/// threads concurrently. Query evaluation over precomputed entries is
/// lock-free; only the on-demand entry cache (out-of-vocabulary keywords,
/// phrases) synchronizes internally.
class IndexSnapshot {
 public:
  /// Serves from `segments`, whose document ranges must tile
  /// [0, corpus.size()) in order; empty only for an empty corpus. Search
  /// results are bit-identical for any segmentation of the same corpus
  /// (the lsm_segment_test parity property).
  IndexSnapshot(Corpus corpus, std::shared_ptr<const OntologyContext> context,
                IndexBuildOptions options,
                std::vector<std::shared_ptr<const IndexSegment>> segments);

  IndexSnapshot(const IndexSnapshot&) = delete;
  IndexSnapshot& operator=(const IndexSnapshot&) = delete;

  const Corpus& corpus() const { return corpus_; }
  size_t corpus_size() const { return corpus_.size(); }
  const XmlDocument& document(uint32_t doc_id) const {
    return corpus_[doc_id];
  }

  /// The ordered segment set. Segments cover disjoint ascending document
  /// ranges tiling the corpus.
  const std::vector<std::shared_ptr<const IndexSegment>>& segments() const {
    return segments_;
  }

  /// The CorpusIndex of the segment holding `doc_id`; nullptr for an
  /// out-of-range doc. This is what explain/node-support tooling should
  /// use — per-document support values ARE the serving scores.
  const CorpusIndex* SegmentIndexForDoc(uint32_t doc_id) const;

  const std::shared_ptr<const OntologyContext>& context() const {
    return context_;
  }
  const IndexBuildOptions& options() const { return options_; }
  const IndexBuildStats& build_stats() const { return stats_; }

  /// The unified query entry point: executes `query` under `options` —
  /// exhaustive (optionally sharded-parallel) or ranked, cached or not —
  /// and returns results plus execution stats. Invalid options (the one
  /// rule: rdil needs top_k >= 1) yield an empty response, never UB.
  ///
  /// The result cache is owned by this snapshot: entries are keyed by the
  /// normalized query + top_k (execution strategy, shard count and pruning
  /// mode are hints that provably do not change results) and can never
  /// outlive or cross snapshots.
  SearchResponse Search(const KeywordQuery& query,
                        const SearchOptions& options) const;

  /// Resolves a result to its XML element; nullptr if the Dewey id does not
  /// address a node of this snapshot's corpus.
  const XmlNode* ResolveResult(const QueryResult& result) const;

  /// Serializes the result's XML fragment (e.g. Fig. 4), pretty-printed.
  std::string ResultFragmentXml(const QueryResult& result) const;

  /// Cache observability (hits/misses/evictions of this snapshot's cache).
  LruCache<std::string, std::vector<QueryResult>>::Stats cache_stats() const {
    return result_cache_.stats();
  }

 private:
  /// One list vector per segment, same keyword order in each. Precomputed
  /// keywords resolve to their flat lists (no lock); the rest to one-list
  /// flat dils in the demand cache.
  std::vector<std::vector<DilListRef>> CollectSegmentLists(
      const KeywordQuery& query) const;

  std::shared_ptr<const OntologyContext> context_;
  IndexBuildOptions options_;
  Corpus corpus_;
  /// Segments pin their own mapped files (IndexSegment's backing).
  std::vector<std::shared_ptr<const IndexSegment>> segments_;
  IndexBuildStats stats_;  ///< the segments' aggregate
  QueryProcessor processor_;
  RankedQueryProcessor ranked_processor_;
  /// Snapshot-scoped result cache (see Search). Mutable: caching is not
  /// observable through results, and the cache synchronizes internally.
  mutable LruCache<std::string, std::vector<QueryResult>> result_cache_;
};

}  // namespace xontorank

#endif  // XONTORANK_CORE_INDEX_SNAPSHOT_H_
