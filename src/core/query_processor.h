#ifndef XONTORANK_CORE_QUERY_PROCESSOR_H_
#define XONTORANK_CORE_QUERY_PROCESSOR_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/flat_dil.h"
#include "core/options.h"
#include "core/xonto_dil.h"
#include "xml/dewey_id.h"

namespace xontorank {

class ThreadPool;

/// One query result: the most specific element whose subtree is associated
/// with every query keyword (Eq. 1), with its overall score (Eq. 4) and the
/// per-keyword subtree scores it aggregates (Eq. 3).
struct QueryResult {
  DeweyId element;
  double score = 0.0;
  std::vector<double> keyword_scores;
};

/// Whether a top-k merge may skip work that provably cannot change the
/// result set. Both modes return identical results (parity is
/// property-tested); the choice only moves work around.
enum class PruningMode {
  /// Score every aligned document (the reference path; required for
  /// top_k == 0, where there is no threshold to prune against).
  kExact,
  /// Block-Max-WAND upper-bound pruning: keep the running k-th score in a
  /// bounded heap and leapfrog all cursors past document ranges whose
  /// summed per-block score upper bounds cannot beat it. Requires every
  /// list to carry the block-max column (flat, built or v2-mapped);
  /// otherwise the merge silently falls back to kExact.
  kBlockMax,
};

/// Work counters of one (possibly sharded) execution. The block/threshold
/// counters are filled by the pruned merge; the exact path leaves them 0
/// (except postings_scored, counted on both paths).
struct ExecuteStats {
  size_t postings_scanned = 0;  ///< postings fed into the merge
  size_t shards = 1;            ///< shards the merge actually ran with
  size_t postings_scored = 0;   ///< postings actually consumed/scored
  size_t blocks_scored = 0;     ///< blocks the pruned merge decoded into
  size_t blocks_skipped = 0;    ///< blocks leapfrogged by upper bound
  size_t threshold_updates = 0; ///< times the k-th score threshold rose
};

/// Evaluates keyword queries by a single sort-merge pass over XOnto Dewey
/// inverted lists (XRANK's DIL algorithm, §V).
///
/// The processor walks all postings of all keywords in global Dewey
/// (document) order while maintaining a stack mirroring the current root-to-
/// node path. Each stack frame accumulates, per keyword, the maximum
/// NS·decay^distance seen in the frame's subtree (Eq. 2/3, max-combined).
/// When a frame pops with every keyword's score positive and no strict
/// descendant already emitted, it is a result (the Eq. 1 minimality
/// condition); its score is the keyword-score sum (Eq. 4).
///
/// Complexity: O(P·d) for P total postings of depth ≤ d, independent of
/// result count.
class QueryProcessor {
 public:
  explicit QueryProcessor(const ScoreOptions& options) : options_(options) {}

  /// Runs the merge over one inverted list per query keyword. Null list
  /// pointers are treated as empty lists (the keyword matches nothing, so
  /// there are no results). Returns up to `top_k` results ordered by
  /// descending score, ties broken by Dewey order; `top_k == 0` means all.
  std::vector<QueryResult> Execute(const std::vector<const DilEntry*>& lists,
                                   size_t top_k) const;

  /// Zero-copy variant over posting ranges (each span must be sorted by
  /// Dewey id); used by the ranked processor to evaluate single documents
  /// without materializing slice copies.
  std::vector<QueryResult> Execute(
      const std::vector<std::span<const DilPosting>>& lists,
      size_t top_k) const;

  /// Cursor-based merge — the flat serving path. One cursor per keyword
  /// (flat or span backed, already restricted to the range to evaluate);
  /// the merge consumes DeweyRefs and keeps its path stack in flat reused
  /// arrays, so it performs no per-posting or per-frame allocation. The
  /// conjunctive merge also leapfrogs over documents missing any keyword
  /// (DilCursor::SeekDoc through the block skip table) — exact, because
  /// scores never propagate across a document boundary. Bit-identical to
  /// the span Execute (property-tested).
  std::vector<QueryResult> Execute(std::vector<DilCursor> cursors,
                                   size_t top_k) const;

  /// Same, with a pruning mode. kBlockMax runs the Block-Max-WAND merge
  /// when it is admissible — a finite top_k, every cursor flat with a
  /// block-max column, and a decay <= 1 (the bound argument needs scores
  /// to never grow while propagating) — and falls back to the exact merge
  /// otherwise, so the result set is identical either way (DESIGN.md §12
  /// gives the threshold algebra). `stats`, if non-null, is *added to*
  /// (never reset): postings_scored plus the pruned path's block and
  /// threshold counters.
  std::vector<QueryResult> Execute(std::vector<DilCursor> cursors,
                                   size_t top_k, PruningMode pruning,
                                   ExecuteStats* stats) const;

  /// Parallel variant: partitions the postings into up to `num_shards`
  /// document ranges (PartitionListsByDocument), merges each range
  /// independently on `pool` into a shard-local top-k, and k-way merges
  /// the shard results. Bit-identical to the serial Execute for every
  /// shard count — the merge stack never spans a document boundary, so a
  /// doc-granular partition changes nothing but the work distribution.
  /// `num_shards <= 1` (or a null pool, or too little work to split) falls
  /// back to the serial pass. `stats`, if non-null, receives work counters.
  std::vector<QueryResult> ExecuteSharded(
      const std::vector<std::span<const DilPosting>>& lists, size_t top_k,
      size_t num_shards, ThreadPool* pool, ExecuteStats* stats = nullptr) const;

  /// The snapshot serving entry point (DESIGN.md §15): `segment_lists`
  /// holds one list vector per segment — same keyword order in each — for
  /// segments covering disjoint, ascending document ranges (the snapshot
  /// layout; a single index is the one-segment case `{lists}`). Bit-identical to evaluating one concatenated list per
  /// keyword: segments never share a document, so the merge stack and the
  /// conjunctive/pruning arguments all localize per segment, and the
  /// segment results compose through one shared top-k. Serially the
  /// segments run in document order against one global heap (block-max
  /// segments continue Block-Max-WAND with the carried threshold;
  /// non-prunable ones run exact and feed the heap); with a pool and
  /// num_shards > 1 the segments shard into (segment, doc range) items
  /// whose exact local top-k's k-way merge is the global answer — the
  /// same argument as ExecuteSharded. Under kBlockMax each item prunes
  /// against its own local threshold; every local top-k is exact, so the
  /// result is bit-identical to the serial exact pass.
  std::vector<QueryResult> ExecuteSegments(
      const std::vector<std::vector<DilListRef>>& segment_lists, size_t top_k,
      size_t num_shards, ThreadPool* pool, ExecuteStats* stats = nullptr,
      PruningMode pruning = PruningMode::kExact) const;

  /// K-way merges independently produced top-k lists (e.g. one per
  /// segment under ranked execution) into the global (score desc, Dewey)
  /// order, truncated to `top_k` (0 = keep all). Exact whenever the parts
  /// cover disjoint document sets and each part is exact for its set.
  static std::vector<QueryResult> MergeTopK(
      std::vector<std::vector<QueryResult>> parts, size_t top_k);

 private:
  ScoreOptions options_;
};

}  // namespace xontorank

#endif  // XONTORANK_CORE_QUERY_PROCESSOR_H_
