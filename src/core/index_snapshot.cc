#include "core/index_snapshot.h"

#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "xml/xml_writer.h"

namespace xontorank {

namespace {

/// Cache key: the canonical query rendering plus top_k. Execution
/// strategy, shard count and pruning mode are deliberately excluded —
/// dil/rdil, every shard count and exact/blockmax all return identical
/// results by construction (the parity property tests assert this), so
/// distinguishing them would only lower the hit rate.
std::string ResultCacheKey(const KeywordQuery& query, size_t top_k) {
  std::string key = query.ToString();
  key.push_back('\x1f');
  key += std::to_string(top_k);
  return key;
}

}  // namespace

IndexSnapshot::IndexSnapshot(
    Corpus corpus, std::shared_ptr<const OntologyContext> context,
    IndexBuildOptions options,
    std::vector<std::shared_ptr<const IndexSegment>> segments)
    : context_(std::move(context)),
      options_(options),
      corpus_(std::move(corpus)),
      segments_(std::move(segments)),
      processor_(options.score),
      ranked_processor_(options.score),
      result_cache_(options.query_cache_entries) {
  // Segments must tile the corpus: disjoint, ascending, gap-free.
  uint32_t expect_doc = 0;
  for (const auto& segment : segments_) {
    XO_CHECK(segment != nullptr);
    XO_CHECK(segment->first_doc() == expect_doc &&
             "segments must tile the corpus in document order");
    expect_doc = segment->end_doc();
    stats_.indexed_nodes += segment->index().stats().indexed_nodes;
    stats_.code_nodes += segment->index().stats().code_nodes;
    stats_.precomputed_keywords +=
        segment->index().stats().precomputed_keywords;
    stats_.total_postings += segment->index().stats().total_postings;
    stats_.build_millis += segment->index().stats().build_millis;
  }
  XO_CHECK(expect_doc == corpus_.size() &&
           "segments must cover the whole corpus");
  stats_.documents = corpus_.size();
}

const CorpusIndex* IndexSnapshot::SegmentIndexForDoc(uint32_t doc_id) const {
  if (doc_id >= corpus_.size()) return nullptr;
  // Segments are few and doc-ordered; linear scan with an upper-bound
  // shape would both be fine. Keep it simple.
  for (const auto& segment : segments_) {
    if (doc_id >= segment->first_doc() && doc_id < segment->end_doc()) {
      return &segment->index();
    }
  }
  return nullptr;
}

std::vector<std::vector<DilListRef>> IndexSnapshot::CollectSegmentLists(
    const KeywordQuery& query) const {
  std::vector<std::vector<DilListRef>> segment_lists;
  segment_lists.reserve(segments_.size());
  for (const auto& segment : segments_) {
    std::vector<DilListRef> lists;
    lists.reserve(query.size());
    for (const Keyword& kw : query.keywords) {
      lists.push_back(segment->index().GetListRef(kw));
    }
    segment_lists.push_back(std::move(lists));
  }
  return segment_lists;
}

SearchResponse IndexSnapshot::Search(const KeywordQuery& query,
                                     const SearchOptions& options) const {
  Timer timer;
  SearchResponse response;
  if (query.empty() || !options.Validate().ok()) {
    response.stats.wall_micros = timer.ElapsedMicros();
    return response;
  }

  std::string cache_key;
  const bool use_cache =
      options.use_cache && result_cache_.capacity() > 0;
  if (use_cache) {
    cache_key = ResultCacheKey(query, options.top_k);
    if (auto hit = result_cache_.Get(cache_key)) {
      response.results = *hit;
      response.stats.cache_hit = true;
      response.stats.wall_micros = timer.ElapsedMicros();
      return response;
    }
  }

  std::vector<std::vector<DilListRef>> segment_lists =
      CollectSegmentLists(query);
  if (options.strategy == QueryExecution::kRdil) {
    // Per-segment ranked execution is exact for the segment's documents
    // (the RankedQueryProcessor contract), and segments partition the
    // corpus, so the k-way merge of the per-segment top-k's is the global
    // top-k.
    std::vector<std::vector<QueryResult>> parts;
    parts.reserve(segment_lists.size());
    size_t postings_consumed = 0;
    for (const std::vector<DilListRef>& lists : segment_lists) {
      RankedQueryStats ranked_stats;
      parts.push_back(
          ranked_processor_.Execute(lists, options.top_k, &ranked_stats));
      postings_consumed += ranked_stats.postings_consumed;
    }
    response.results =
        QueryProcessor::MergeTopK(std::move(parts), options.top_k);
    response.stats.postings_scanned = postings_consumed;
    response.stats.shards = 1;
  } else {
    ExecuteStats exec_stats;
    ThreadPool* pool =
        options.parallelism == 1 ? nullptr : &ThreadPool::Shared();
    size_t shards = options.parallelism == 0
                        ? ThreadPool::Shared().num_threads()
                        : options.parallelism;
    response.results =
        processor_.ExecuteSegments(segment_lists, options.top_k, shards, pool,
                                   &exec_stats, options.pruning);
    response.stats.postings_scanned = exec_stats.postings_scanned;
    response.stats.shards = exec_stats.shards;
    response.stats.postings_scored = exec_stats.postings_scored;
    response.stats.blocks_scored = exec_stats.blocks_scored;
    response.stats.blocks_skipped = exec_stats.blocks_skipped;
    response.stats.threshold_updates = exec_stats.threshold_updates;
  }

  if (use_cache) {
    result_cache_.Put(
        cache_key,
        std::make_shared<const std::vector<QueryResult>>(response.results));
  }
  response.stats.wall_micros = timer.ElapsedMicros();
  return response;
}

const XmlNode* IndexSnapshot::ResolveResult(const QueryResult& result) const {
  if (result.element.empty()) return nullptr;
  uint32_t doc_id = result.element.doc_id();
  if (doc_id >= corpus_.size()) return nullptr;
  return corpus_[doc_id].Resolve(result.element);
}

std::string IndexSnapshot::ResultFragmentXml(const QueryResult& result) const {
  const XmlNode* node = ResolveResult(result);
  if (node == nullptr) return "";
  XmlWriteOptions options;
  options.pretty = true;
  options.emit_declaration = false;
  return WriteXml(*node, options);
}

}  // namespace xontorank
