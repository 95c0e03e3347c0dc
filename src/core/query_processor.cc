#include "core/query_processor.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace xontorank {

namespace {

/// The result order every path in this file produces: score descending,
/// ties broken by Dewey order. Doubles as the heap comparator of the
/// top-k merge (comp = "a beats b" puts the *worst* kept result at the
/// heap top, which is exactly the running k-th threshold).
bool BetterResult(const QueryResult& a, const QueryResult& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.element < b.element;
}

/// The DIL merge. Postings arrive through DilCursors as DeweyRefs and the
/// stack is three flat reused arrays — path components, emitted flags, and
/// a depth × keyword score matrix — so pushing or popping a frame never
/// allocates. This is where the columnar layout pays off: the hot loop
/// touches contiguous memory only. With top_k >= 1 the results live in a
/// k-heap, so an emitted frame that cannot enter the top k costs no
/// allocation.
class CursorMerger {
 public:
  CursorMerger(std::vector<DilCursor>& cursors, const ScoreOptions& options)
      : cursors_(cursors),
        options_(options),
        num_keywords_(cursors.size()),
        lcp_(cursors.size(), 0),
        doc_bounds_(cursors.size()) {}

  /// Merges every aligned document into `results`, which it continues:
  /// with top_k == 0 an unsorted list of every result, otherwise a
  /// BetterResult heap of at most top_k results from documents before
  /// these cursors' (empty for the first segment or shard). On return
  /// `results` is the updated, still unsorted, list or heap.
  ///
  /// `prune` turns on Block-Max-WAND (DESIGN.md §12); the caller sets it
  /// only when it is admissible (top_k >= 1 and decay <= 1). The output is
  /// the same either way, by the threshold algebra: once the heap holds k
  /// results, a document range whose summed per-list block maxima is <=
  /// the k-th score cannot produce a result that enters the heap — Eq. 4
  /// sums per-keyword subtree maxima, each bounded by its list's window
  /// max (decay <= 1 keeps propagation non-increasing), and a tie on the
  /// threshold loses to the already-kept result from an earlier document
  /// under the Dewey tiebreak. The same argument holds against a heap
  /// carried from earlier segments, which hold earlier documents
  /// (DESIGN.md §15). Only a pruning run counts blocks, skipped documents
  /// and threshold updates in `stats`.
  void Run(bool prune, size_t top_k, ExecuteStats* stats,
           std::vector<QueryResult>* results) {
    prune_ = prune;
    top_k_ = top_k;
    stats_ = stats != nullptr ? stats : &local_stats_;
    results_ = std::move(*results);
    results_.reserve(top_k);
    if (top_k_ > 0 && results_.size() == top_k_) {
      threshold_ = results_.front().score;
    }
    if (prune_) last_counted_block_.assign(num_keywords_, UINT32_MAX);
    while (AlignOnSharedDocument()) {
      uint32_t doc = cursors_[0].doc();
      if (prune_ && results_.size() == top_k_) {
        double bound = 0.0;
        uint32_t next_doc = UINT32_MAX;
        for (size_t w = 0; w < num_keywords_; ++w) {
          DilCursor::BlockBound b = cursors_[w].BlockUpperBound(doc);
          bound += b.max_score;
          next_doc = std::min(next_doc, b.next_doc);
        }
        if (bound <= threshold_) {
          // Nothing in [doc, next_doc) can beat the kept k; leapfrog all
          // cursors there (next_doc == UINT32_MAX: every window runs to
          // its range end, so nothing at all remains).
          for (size_t w = 0; w < num_keywords_; ++w) {
            DilCursor& cursor = cursors_[w];
            uint32_t before = cursor.block();
            if (next_doc == UINT32_MAX) {
              cursor.SkipToEnd();
            } else {
              cursor.SeekDoc(next_doc);
            }
            uint32_t after = cursor.AtEnd() ? cursor.range_last_block() + 1
                                            : cursor.block();
            stats_->blocks_skipped += after - before;
          }
          continue;
        }
        // The same test at document grain with exact scores (DESIGN.md
        // §12): a frame's keyword score never exceeds the best posting
        // score of that keyword in the document, and the bound sums those
        // maxima in keyword order exactly as PopTo sums a frame's scores.
        // A scan stops early once the running bound exceeds the
        // threshold, computing that sum as the line below does, so any
        // early stop leaves bound > threshold_ and the document is
        // drained; only complete scans decide a skip.
        bound = 0.0;
        for (size_t w = 0; w < num_keywords_ && bound <= threshold_; ++w) {
          doc_bounds_[w] = cursors_[w].CurrentDocumentBound(bound, threshold_);
          bound += doc_bounds_[w].max_score;
        }
        if (bound <= threshold_) {
          for (size_t w = 0; w < num_keywords_; ++w) {
            cursors_[w].SkipDocument(doc_bounds_[w]);
          }
          ++stats_->docs_skipped;
          continue;
        }
      }
      DrainDocument(doc);
      // Document boundary: flush the finished frames into the output now
      // so the next prune decision sees the freshest threshold.
      PopTo(0);
    }
    *results = std::move(results_);
  }

 private:
  /// Drains every posting of `doc` with the min-Dewey merge, exactly as
  /// the oblivious pass would. Selection by shared prefix (DESIGN.md §7):
  /// lcp_[w] is how many components cursor w's posting shares with the
  /// open path, which is the last consumed posting. Every unconsumed
  /// posting sorts at or after the path, so the smallest one has the
  /// longest lcp_; ties compare only past the shared components, and equal
  /// ids go to the lowest keyword index. Consuming from cursor c changes
  /// only lcp_[c] and the lcp_ of cursors that tied with c; kDrained
  /// marks a cursor that has left the document.
  void DrainDocument(uint32_t doc) {
    // Every cursor sits on `doc`, and the path is empty or lies in an
    // earlier document: nothing is shared yet.
    std::fill(lcp_.begin(), lcp_.end(), 0);
    while (true) {
      int chosen = -1;
      int32_t longest = kDrained;
      for (size_t w = 0; w < num_keywords_; ++w) {
        const int32_t lcp = lcp_[w];
        if (lcp < longest || lcp == kDrained) continue;
        if (lcp > longest ||
            CompareDeweyFrom(cursors_[w].dewey(),
                             cursors_[static_cast<size_t>(chosen)].dewey(),
                             static_cast<size_t>(lcp)) < 0) {
          chosen = static_cast<int>(w);
          longest = lcp;
        }
      }
      if (chosen < 0) break;
      const size_t c = static_cast<size_t>(chosen);
      DilCursor& cursor = cursors_[c];
      ++stats_->postings_scored;
      if (prune_) {
        // Count each block once, the first time a posting is drawn from it.
        uint32_t block = cursor.block();
        if (block != last_counted_block_[c]) {
          last_counted_block_[c] = block;
          ++stats_->blocks_scored;
        }
      }
      Consume(cursor.dewey(), cursor.score(), c,
              static_cast<size_t>(longest));
      // The path is now the consumed posting. A cursor that shared fewer
      // components with the old path diverges from the new one where it
      // did before; one that shared as many may share more now.
      for (size_t w = 0; w < num_keywords_; ++w) {
        if (w != c && lcp_[w] == longest) {
          lcp_[w] = ExtendShared(cursors_[w].dewey(), lcp_[w]);
        }
      }
      cursor.Next();
      if (cursor.AtEnd() || cursor.doc() != doc) {
        lcp_[c] = kDrained;
      } else {
        // The stored shared length is exact against the consumed posting,
        // and a lower bound (0) at a block restart.
        lcp_[c] = ExtendShared(
            cursor.dewey(),
            static_cast<int32_t>(std::min<size_t>(cursor.shared(), depth_)));
      }
    }
  }

  /// Extends `shared`, a count of leading components `id` is known to
  /// share with the open path, to the full common prefix length.
  int32_t ExtendShared(DeweyRef id, int32_t shared) const {
    size_t n = static_cast<size_t>(shared);
    const size_t limit = std::min(id.size(), depth_);
    while (n < limit && id[n] == path_[n]) ++n;
    return static_cast<int32_t>(n);
  }

  /// Whether a frame at the current path scoring `total` belongs in the
  /// output: always with top_k == 0 or a heap not yet full, otherwise only
  /// if it beats the worst kept result under BetterResult. Decided before
  /// the QueryResult is built, so losing frames never allocate.
  bool EntersOutput(double total) const {
    if (top_k_ == 0 || results_.size() < top_k_) return true;
    const QueryResult& worst = results_.front();
    if (total != worst.score) return total > worst.score;
    return CompareDewey(DeweyRef(path_.data(), depth_),
                        DeweyRef(worst.element)) < 0;
  }

  /// Routes a finished frame that passed EntersOutput into the output.
  /// top_k == 0 appends (the final sort orders everything); otherwise
  /// results_ is a k-element heap whose top is the worst kept result —
  /// the pruning threshold.
  void Emit(QueryResult result) {
    if (top_k_ == 0) {
      results_.push_back(std::move(result));
      return;
    }
    // A run without pruning keeps the same heap but reports no pruning
    // work.
    if (results_.size() < top_k_) {
      results_.push_back(std::move(result));
      std::push_heap(results_.begin(), results_.end(), BetterResult);
      if (results_.size() == top_k_) {
        threshold_ = results_.front().score;
        if (prune_) ++stats_->threshold_updates;
      }
      return;
    }
    std::pop_heap(results_.begin(), results_.end(), BetterResult);
    results_.back() = std::move(result);
    std::push_heap(results_.begin(), results_.end(), BetterResult);
    if (results_.front().score > threshold_) {
      threshold_ = results_.front().score;
      if (prune_) ++stats_->threshold_updates;
    }
  }

  /// Leapfrogs the cursors onto the next document present in every list,
  /// skipping whole documents through the block skip table. Exact: Eq. 1 is
  /// conjunctive and subtree scores never propagate across a document
  /// boundary, so documents missing any keyword cannot contribute to any
  /// emitted frame — consuming their postings is pure overhead. Returns
  /// false once any list is exhausted (same argument: nothing left to emit).
  bool AlignOnSharedDocument() {
    while (true) {
      uint32_t max_doc = 0;
      for (size_t w = 0; w < num_keywords_; ++w) {
        if (cursors_[w].AtEnd()) return false;
        max_doc = std::max(max_doc, cursors_[w].doc());
      }
      bool aligned = true;
      for (size_t w = 0; w < num_keywords_; ++w) {
        if (cursors_[w].doc() < max_doc) {
          cursors_[w].SeekDoc(max_doc);
          aligned = false;
        }
      }
      if (aligned) return true;
    }
  }

  /// Makes `dewey` the open path and records `score` at its frame.
  /// `common` is the number of leading components it shares with the
  /// current path (the selection already knows it).
  void Consume(DeweyRef dewey, double score, size_t keyword, size_t common) {
    PopTo(common);
    if (dewey.size() > path_.size()) {
      // The frame arrays only grow, to the deepest frame seen.
      path_.resize(dewey.size());
      emitted_.resize(dewey.size());
      scores_.resize(dewey.size() * num_keywords_);
    }
    for (; depth_ < dewey.size(); ++depth_) {
      path_[depth_] = dewey[depth_];
      emitted_[depth_] = 0;
      std::fill_n(scores_.data() + depth_ * num_keywords_, num_keywords_,
                  0.0);
    }
    double& slot = scores_[(depth_ - 1) * num_keywords_ + keyword];
    if (score > slot) slot = score;
  }

  void PopTo(size_t depth) {
    while (depth_ > depth) {
      size_t f = depth_ - 1;
      double* frame = scores_.data() + f * num_keywords_;
      bool has_all = true;
      double total = 0.0;
      for (size_t w = 0; w < num_keywords_; ++w) {
        if (frame[w] <= 0.0) {
          has_all = false;
          break;
        }
        total += frame[w];
      }
      bool emit = has_all && emitted_[f] == 0;
      // A frame that loses to a full heap still counts as emitted: its
      // ancestors must not become results either (Eq. 1 minimality).
      if (emit && EntersOutput(total)) {
        QueryResult result;
        result.element = DeweyId(
            std::vector<uint32_t>(path_.data(), path_.data() + depth_));
        result.score = total;
        result.keyword_scores.assign(frame, frame + num_keywords_);
        Emit(std::move(result));
      }
      if (f > 0) {
        double* parent = frame - num_keywords_;
        for (size_t w = 0; w < num_keywords_; ++w) {
          double propagated = frame[w] * options_.decay;
          if (propagated > parent[w]) parent[w] = propagated;
        }
        if (emit || emitted_[f] != 0) emitted_[f - 1] = 1;
      }
      depth_ = f;
    }
  }

  /// lcp_ of a cursor with no posting left in the current document.
  static constexpr int32_t kDrained = -1;

  std::vector<DilCursor>& cursors_;
  ScoreOptions options_;
  size_t num_keywords_;
  /// Per cursor: components its posting shares with the open path, or
  /// kDrained (DrainDocument).
  std::vector<int32_t> lcp_;
  // The frame stack: frames [0, depth_) are live; the arrays are sized to
  // the deepest frame seen, so a push or pop never touches the allocator.
  size_t depth_ = 0;
  std::vector<uint32_t> path_;     ///< current stack's Dewey components
  std::vector<uint8_t> emitted_;   ///< per-frame descendant-emitted flag
  std::vector<double> scores_;     ///< depth × num_keywords_ score matrix
  /// All results (top_k_ == 0), else a BetterResult heap of at most k.
  std::vector<QueryResult> results_;
  size_t top_k_ = 0;
  double threshold_ = 0.0;  ///< k-th best score once the heap is full

  // Pruning state (Run with prune set).
  bool prune_ = false;  ///< block-max leapfrogging on; block stats counted
  std::vector<uint32_t> last_counted_block_;  ///< per keyword, for stats
  /// Per keyword, the current document's bound (Run's scratch).
  std::vector<DilCursor::DocumentBound> doc_bounds_;
  ExecuteStats* stats_ = nullptr;  ///< added to, never reset; never null
  ExecuteStats local_stats_;       ///< sink when the caller passed none
};

/// Whether a merge may prune as `pruning` asks (DESIGN.md §12): pruning
/// needs a threshold (top_k >= 1) and non-increasing score propagation
/// (decay <= 1), so a window's block maxima bound every frame its
/// documents can emit. Without it the merge scores every aligned
/// document; the results are the same.
bool PruneAdmissible(PruningMode pruning, size_t top_k,
                     const ScoreOptions& options) {
  return pruning == PruningMode::kBlockMax && top_k >= 1 &&
         options.decay <= 1.0;
}

/// Flattens per-shard top-k lists into the global (score desc, Dewey) order
/// the serial pass produces, truncated to `top_k`.
std::vector<QueryResult> MergeShardResults(
    std::vector<std::vector<QueryResult>> shard_results, size_t top_k) {
  std::vector<QueryResult> merged;
  size_t total_results = 0;
  for (const auto& shard : shard_results) total_results += shard.size();
  merged.reserve(total_results);
  for (auto& shard : shard_results) {
    for (QueryResult& r : shard) merged.push_back(std::move(r));
  }
  std::sort(merged.begin(), merged.end(), BetterResult);
  if (top_k > 0 && merged.size() > top_k) merged.resize(top_k);
  return merged;
}

}  // namespace

std::vector<QueryResult> QueryProcessor::Execute(
    std::vector<DilCursor> cursors, size_t top_k) const {
  return Execute(std::move(cursors), top_k, PruningMode::kExact, nullptr);
}

std::vector<QueryResult> QueryProcessor::Execute(
    std::vector<DilCursor> cursors, size_t top_k, PruningMode pruning,
    ExecuteStats* stats) const {
  std::vector<QueryResult> results;
  if (cursors.empty()) return results;
  CursorMerger(cursors, options_)
      .Run(PruneAdmissible(pruning, top_k, options_), top_k, stats,
           &results);
  std::sort(results.begin(), results.end(), BetterResult);
  return results;
}

std::vector<QueryResult> QueryProcessor::ExecuteSegments(
    const std::vector<std::vector<DilListRef>>& segment_lists, size_t top_k,
    size_t num_shards, ThreadPool* pool, ExecuteStats* stats,
    PruningMode pruning) const {
  if (stats != nullptr) *stats = ExecuteStats{};
  // Conjunctive short-circuit per segment: a segment where any keyword
  // matches nothing contributes no results and is dropped up front.
  std::vector<const std::vector<DilListRef>*> eligible;
  size_t total_postings = 0;
  for (const auto& lists : segment_lists) {
    if (lists.empty()) continue;
    bool all_nonempty = true;
    size_t postings = 0;
    for (const DilListRef& list : lists) {
      if (list.empty()) {
        all_nonempty = false;
        break;
      }
      postings += list.size();
    }
    if (!all_nonempty) continue;
    eligible.push_back(&lists);
    total_postings += postings;
  }
  if (eligible.empty()) return {};
  if (stats != nullptr) stats->postings_scanned = total_postings;

  // Merges segment s (within `range`, if any) into `results`.
  const bool prune = PruneAdmissible(pruning, top_k, options_);
  auto run = [&](size_t s, const DocRange* range, ExecuteStats* run_stats,
                 std::vector<QueryResult>* results) {
    std::vector<DilCursor> cursors;
    cursors.reserve(eligible[s]->size());
    for (const DilListRef& list : *eligible[s]) {
      cursors.push_back(range == nullptr ? list.OpenCursor()
                                         : list.OpenCursor(*range));
    }
    CursorMerger(cursors, options_).Run(prune, top_k, run_stats, results);
  };

  // Parallel plan: flatten into (segment, document range) work items —
  // segments are doc-disjoint, so the items partition the corpus at
  // document granularity. Each item prunes against its own local
  // threshold: every item's local top-k is exact for its range, so the
  // final k-way merge is the global top-k, bit-identical to the serial
  // pass.
  std::vector<std::pair<size_t, DocRange>> items;
  if (num_shards > 1 && pool != nullptr) {
    size_t per_segment = std::max<size_t>(1, num_shards / eligible.size());
    for (size_t s = 0; s < eligible.size(); ++s) {
      for (const DocRange& range :
           PartitionListsByDocument(*eligible[s], per_segment)) {
        if (!range.empty()) items.emplace_back(s, range);
      }
    }
  }
  if (items.size() > 1) {
    if (stats != nullptr) stats->shards = items.size();
    std::vector<std::vector<QueryResult>> item_results(items.size());
    std::vector<ExecuteStats> item_stats(items.size());
    pool->ParallelFor(items.size(), [&](size_t i) {
      const auto& [s, range] = items[i];
      run(s, &range, &item_stats[i], &item_results[i]);
    });
    if (stats != nullptr) {
      for (const ExecuteStats& s : item_stats) {
        stats->postings_scored += s.postings_scored;
        stats->blocks_scored += s.blocks_scored;
        stats->blocks_skipped += s.blocks_skipped;
        stats->docs_skipped += s.docs_skipped;
        stats->threshold_updates += s.threshold_updates;
      }
    }
    return MergeShardResults(std::move(item_results), top_k);
  }

  // Serial plan: one top-k heap carried across the segments in ascending
  // document order, so a later segment prunes against the threshold the
  // earlier ones raised.
  std::vector<QueryResult> results;
  for (size_t s = 0; s < eligible.size(); ++s) {
    run(s, nullptr, stats, &results);
  }
  std::sort(results.begin(), results.end(), BetterResult);
  return results;
}

}  // namespace xontorank
