#ifndef XONTORANK_CORE_QUERY_PROCESSOR_H_
#define XONTORANK_CORE_QUERY_PROCESSOR_H_

#include <cstddef>
#include <vector>

#include "core/flat_dil.h"
#include "core/options.h"
#include "core/query_result.h"

namespace xontorank {

class ThreadPool;

/// Whether a top-k merge may skip work that provably cannot change the
/// result set. Both modes return identical results (parity is
/// property-tested); the choice only moves work around.
enum class PruningMode {
  /// Score every aligned document (the reference path; required for
  /// top_k == 0, where there is no threshold to prune against).
  kExact,
  /// Block-Max-WAND upper-bound pruning: keep the running k-th score in a
  /// bounded heap and leapfrog all cursors past document ranges whose
  /// summed per-block score upper bounds cannot beat it. Admissible only
  /// with top_k >= 1 and decay <= 1; otherwise the merge scores every
  /// aligned document, as under kExact.
  kBlockMax,
};

/// Work counters of one (possibly sharded) execution. The block, document
/// and threshold counters are filled only by a merge that prunes; one that
/// does not leaves them 0. postings_scored is counted either way.
struct ExecuteStats {
  size_t postings_scanned = 0;  ///< postings fed into the merge
  size_t shards = 1;            ///< shards the merge actually ran with
  size_t postings_scored = 0;   ///< postings actually consumed/scored
  size_t blocks_scored = 0;     ///< blocks a pruning merge decoded into
  size_t blocks_skipped = 0;    ///< blocks leapfrogged by upper bound
  size_t docs_skipped = 0;      ///< documents passed over by their bound
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
/// Complexity: O(P·(k + d)) for P scored postings of depth ≤ d over k
/// keywords, independent of result count. Choosing the next posting
/// compares only components past the prefix each cursor shares with the
/// stack's path (DESIGN.md §7), so the d term is what a posting does not
/// share with its predecessor plus the frames it pops, not its whole
/// depth. Under kBlockMax, documents whose bound loses to the k-th score
/// are passed over, costing at most one read of their scores (DESIGN.md
/// §12).
class QueryProcessor {
 public:
  explicit QueryProcessor(const ScoreOptions& options) : options_(options) {}

  /// Runs the merge over one cursor per query keyword, each already
  /// restricted to the range to evaluate. Returns up to `top_k` results
  /// ordered by descending score, ties broken by Dewey order; `top_k == 0`
  /// means all. A keyword whose cursor is exhausted matches nothing, so
  /// there are no results (Eq. 1 is conjunctive).
  ///
  /// The merge consumes DeweyRefs and keeps its path stack in flat reused
  /// arrays, so it performs no per-posting or per-frame allocation. It
  /// also leapfrogs over documents missing any keyword (DilCursor::SeekDoc
  /// through the block skip table) — exact, because scores never
  /// propagate across a document boundary. Bit-identical to the reference
  /// evaluator of Eq. 1-4 (tests/reference_eval.h; property-tested).
  std::vector<QueryResult> Execute(std::vector<DilCursor> cursors,
                                   size_t top_k) const;

  /// Same, with a pruning mode. kBlockMax prunes when it is admissible —
  /// a finite top_k and a decay <= 1 (the bound argument needs scores to
  /// never grow while propagating) — and scores every aligned document
  /// otherwise, so the result set is identical either way (DESIGN.md §12
  /// gives the threshold algebra). `stats`, if non-null, is *added to*
  /// (never reset): postings_scored plus, when pruning, the block,
  /// document and threshold counters.
  std::vector<QueryResult> Execute(std::vector<DilCursor> cursors,
                                   size_t top_k, PruningMode pruning,
                                   ExecuteStats* stats) const;

  /// The snapshot serving entry point (DESIGN.md §15): `segment_lists`
  /// holds one list vector per segment — same keyword order in each — for
  /// segments covering disjoint, ascending document ranges (the snapshot
  /// layout; a single index is the one-segment case `{lists}`).
  /// Bit-identical to evaluating one concatenated list per keyword:
  /// segments never share a document, so the merge stack and the
  /// conjunctive/pruning arguments all localize per segment, and the
  /// segment results compose through one shared top-k. Serially the
  /// segments run in document order, each continuing the merge against
  /// the heap (and, when pruning, the threshold) the earlier ones left;
  /// with a pool and num_shards > 1 the segments shard into (segment, doc
  /// range) items whose exact local top-k's k-way merge is the global
  /// answer: the merge stack never spans a document boundary, so a
  /// doc-granular partition (PartitionListsByDocument) changes nothing but
  /// the work distribution.
  /// Under kBlockMax each item prunes against its own local threshold;
  /// every local top-k is exact, so the result is bit-identical to the
  /// serial pass without pruning. `num_shards <= 1` or a null pool runs
  /// serially.
  std::vector<QueryResult> ExecuteSegments(
      const std::vector<std::vector<DilListRef>>& segment_lists, size_t top_k,
      size_t num_shards, ThreadPool* pool, ExecuteStats* stats = nullptr,
      PruningMode pruning = PruningMode::kExact) const;

 private:
  ScoreOptions options_;
};

}  // namespace xontorank

#endif  // XONTORANK_CORE_QUERY_PROCESSOR_H_
