#ifndef XONTORANK_CORE_SEARCH_API_H_
#define XONTORANK_CORE_SEARCH_API_H_

#include <cstddef>
#include <string_view>
#include <vector>

#include "core/query_processor.h"

namespace xontorank {

/// Human-readable pruning-mode name ("exact" / "blockmax").
std::string_view PruningModeName(PruningMode mode);

/// Per-call knobs of the unified Search entry point. Every combination is
/// valid.
///
/// `top_k` has ONE meaning everywhere: 0 returns all results, k >= 1
/// returns the k best.
struct SearchOptions {
  /// 0 = all results; k >= 1 = the k best (score desc, ties by Dewey).
  size_t top_k = 10;

  /// Shard count for the parallel DIL merge: 1 = serial, 0 = one shard per
  /// hardware core. Sharding is exact — postings are partitioned at
  /// document boundaries, which the merge stack never crosses, so any
  /// shard count returns bit-identical results.
  size_t parallelism = 1;

  /// Consult (and fill) the snapshot's result cache. Cached entries live
  /// and die with their snapshot, so a hit can never serve stale data.
  bool use_cache = true;

  /// Top-k pruning of the DIL merge (see PruningMode). Like
  /// `parallelism`, an execution hint: results are identical under either
  /// mode, so it is excluded from the cache key. The default prunes
  /// whenever admissible; with `top_k == 0` (no threshold exists) or a
  /// decay > 1 the merge silently scores every aligned document.
  PruningMode pruning = PruningMode::kBlockMax;
};

/// What one Search call did (returned alongside the results).
struct QueryStats {
  /// Postings fed into the merge. 0 when the result came from the cache or
  /// a keyword matched nothing.
  size_t postings_scanned = 0;
  /// Shards the merge actually ran with (after partitioning; a tiny corpus
  /// may yield fewer than requested). 0 on a cache hit — nothing ran.
  size_t shards = 0;
  /// True when the results were served from the snapshot's result cache.
  bool cache_hit = false;
  /// End-to-end wall time of the call, microseconds.
  double wall_micros = 0.0;

  // Phase split of an uncached call (all 0 on a cache hit); the phases
  // are disjoint parts of wall_micros.
  /// Resolving every keyword's list in every segment, including the
  /// demand builds (and their OntoScore settles) this call ran.
  double resolve_micros = 0.0;
  /// The merge over the resolved lists (ExecuteSegments).
  double merge_micros = 0.0;
  /// Demand-list builds this call ran: one per keyword and segment that
  /// had not built that keyword's list before.
  size_t lists_built = 0;

  // Work counters of the DIL merge (0 on a cache hit).
  /// Postings actually decoded and scored; under block-max pruning this is
  /// postings_scanned minus everything leapfrogged.
  size_t postings_scored = 0;
  /// Blocks the merge drew at least one posting from.
  size_t blocks_scored = 0;
  /// Blocks skipped wholesale because their summed score upper bounds
  /// could not beat the running k-th score.
  size_t blocks_skipped = 0;
  /// Documents skipped whole because the sum of each keyword's best score
  /// in them could not beat the running k-th score (checked after the
  /// block test passes).
  size_t docs_skipped = 0;
  /// Times the k-th-score pruning threshold was set or raised.
  size_t threshold_updates = 0;
};

/// The unified Search result: the ranked results plus execution stats.
struct SearchResponse {
  std::vector<QueryResult> results;
  QueryStats stats;
};

}  // namespace xontorank

#endif  // XONTORANK_CORE_SEARCH_API_H_
