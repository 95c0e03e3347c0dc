#include "core/query_processor.h"

#include <algorithm>
#include <cassert>

#include "common/thread_pool.h"

namespace xontorank {

namespace {

/// The result order every path in this file produces: score descending,
/// ties broken by Dewey order. Doubles as the heap comparator of the
/// pruned merge (comp = "a beats b" puts the *worst* kept result at the
/// heap top, which is exactly the running k-th threshold).
bool BetterResult(const QueryResult& a, const QueryResult& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.element < b.element;
}

/// A stack frame mirrors one component of the current Dewey path.
struct Frame {
  uint32_t component;
  std::vector<double> scores;  ///< per-keyword subtree max (Eq. 3)
  bool descendant_emitted = false;
};

class Merger {
 public:
  Merger(const std::vector<std::span<const DilPosting>>& lists,
         const ScoreOptions& options)
      : lists_(lists), options_(options), num_keywords_(lists.size()) {}

  std::vector<QueryResult> Run() {
    cursors_.assign(num_keywords_, 0);
    while (true) {
      // Pick the smallest current Dewey id across lists.
      int chosen = -1;
      for (size_t w = 0; w < num_keywords_; ++w) {
        if (cursors_[w] >= lists_[w].size()) continue;
        if (chosen < 0 ||
            lists_[w][cursors_[w]].dewey <
                lists_[chosen][cursors_[chosen]].dewey) {
          chosen = static_cast<int>(w);
        }
      }
      if (chosen < 0) break;
      const DilPosting& posting = lists_[chosen][cursors_[chosen]++];
      Consume(posting, static_cast<size_t>(chosen));
    }
    PopTo(0);
    SortAndTruncate();
    return std::move(results_);
  }

  void set_top_k(size_t top_k) { top_k_ = top_k; }

 private:
  void Consume(const DilPosting& posting, size_t keyword) {
    // Common prefix of the stack path and the posting's Dewey id.
    size_t common = 0;
    while (common < stack_.size() && common < posting.dewey.size() &&
           stack_[common].component == posting.dewey[common]) {
      ++common;
    }
    PopTo(common);
    while (stack_.size() < posting.dewey.size()) {
      Frame frame;
      frame.component = posting.dewey[stack_.size()];
      frame.scores.assign(num_keywords_, 0.0);
      stack_.push_back(std::move(frame));
    }
    Frame& top = stack_.back();
    top.scores[keyword] = std::max(top.scores[keyword], posting.score);
  }

  /// Pops frames until the stack has `depth` frames, emitting results and
  /// propagating subtree scores upward with decay (Eq. 2).
  void PopTo(size_t depth) {
    while (stack_.size() > depth) {
      Frame frame = std::move(stack_.back());
      stack_.pop_back();
      bool has_all = true;
      double total = 0.0;
      for (double s : frame.scores) {
        if (s <= 0.0) {
          has_all = false;
          break;
        }
        total += s;
      }
      bool emitted = false;
      if (has_all && !frame.descendant_emitted) {
        QueryResult result;
        result.element = CurrentDewey(frame.component);
        result.score = total;
        result.keyword_scores = frame.scores;
        results_.push_back(std::move(result));
        emitted = true;
      }
      if (!stack_.empty()) {
        Frame& parent = stack_.back();
        for (size_t w = 0; w < num_keywords_; ++w) {
          parent.scores[w] =
              std::max(parent.scores[w], frame.scores[w] * options_.decay);
        }
        parent.descendant_emitted |=
            emitted || frame.descendant_emitted;
      }
    }
  }

  /// Dewey id of the node formed by the current stack plus `last`.
  DeweyId CurrentDewey(uint32_t last) const {
    std::vector<uint32_t> comps;
    comps.reserve(stack_.size() + 1);
    for (const Frame& f : stack_) comps.push_back(f.component);
    comps.push_back(last);
    return DeweyId(std::move(comps));
  }

  void SortAndTruncate() {
    std::sort(results_.begin(), results_.end(), BetterResult);
    if (top_k_ > 0 && results_.size() > top_k_) results_.resize(top_k_);
  }

  const std::vector<std::span<const DilPosting>>& lists_;
  ScoreOptions options_;
  size_t num_keywords_;
  std::vector<size_t> cursors_;
  std::vector<Frame> stack_;
  std::vector<QueryResult> results_;
  size_t top_k_ = 0;
};

/// The flat-path twin of Merger: same emission and propagation logic (the
/// parity property tests pin the two to bit-identical output), but postings
/// arrive through DilCursors as DeweyRefs and the stack is three flat
/// reused arrays — path components, emitted flags, and a depth × keyword
/// score matrix — so pushing or popping a frame never allocates. This is
/// where the columnar layout pays off: the hot loop touches contiguous
/// memory only. With top_k >= 1 every run keeps its results in a k-heap,
/// so an emitted frame that cannot enter the top k costs no allocation.
class CursorMerger {
 public:
  CursorMerger(std::vector<DilCursor>& cursors, const ScoreOptions& options)
      : cursors_(cursors), options_(options), num_keywords_(cursors.size()) {}

  /// The exact merge: scores every aligned document. top_k == 0 keeps
  /// every result; otherwise a BetterResult k-heap keeps the best k (same
  /// output as sorting everything and truncating).
  std::vector<QueryResult> Run(size_t top_k, ExecuteStats* stats) {
    Start(top_k, stats);
    results_.reserve(top_k);
    while (AlignOnSharedDocument()) {
      DrainDocument(cursors_[0].doc());
    }
    PopTo(0);
    std::sort(results_.begin(), results_.end(), BetterResult);
    return std::move(results_);
  }

  /// Block-Max-WAND merge (DESIGN.md §12). Same output as Run, proven by
  /// the threshold algebra: once the heap holds k results, a document range
  /// whose summed per-list block maxima is <= the k-th score cannot produce
  /// a result that enters the heap — Eq. 4 sums per-keyword subtree maxima,
  /// each bounded by its list's window max (decay <= 1 keeps propagation
  /// non-increasing), and a tie on the threshold loses to the already-kept
  /// earlier-document result under the Dewey tiebreak. Callers must ensure
  /// every cursor has_block_max(), top_k >= 1, and decay <= 1.
  std::vector<QueryResult> RunPruned(size_t top_k, ExecuteStats* stats) {
    Start(top_k, stats);
    pruned_ = true;
    results_.reserve(top_k);
    last_counted_block_.assign(num_keywords_, UINT32_MAX);
    RunPrunedLoop();
    std::sort(results_.begin(), results_.end(), BetterResult);
    return std::move(results_);
  }

  /// Cross-segment step of the pruned merge (DESIGN.md §15): continues a
  /// *shared* global top-k carried across segments. `heap` is a
  /// BetterResult heap of at most top_k results from earlier segments; on
  /// return it holds the updated (still unsorted) heap. Pruning against the
  /// carried threshold stays exact for the same tie argument as within one
  /// segment: segments are visited in ascending document order, so a
  /// later candidate that merely ties the k-th score loses the Dewey
  /// tiebreak to the already-kept result and could never enter the heap.
  void RunPrunedShared(size_t top_k, ExecuteStats* stats,
                       std::vector<QueryResult>* heap) {
    Start(top_k, stats);
    pruned_ = true;
    results_ = std::move(*heap);
    results_.reserve(top_k);
    if (results_.size() == top_k_) threshold_ = results_.front().score;
    last_counted_block_.assign(num_keywords_, UINT32_MAX);
    RunPrunedLoop();
    *heap = std::move(results_);
  }

 private:
  void Start(size_t top_k, ExecuteStats* stats) {
    top_k_ = top_k;
    stats_ = stats != nullptr ? stats : &local_stats_;
  }

  /// The Block-Max-WAND loop shared by RunPruned and RunPrunedShared.
  void RunPrunedLoop() {
    while (AlignOnSharedDocument()) {
      uint32_t doc = cursors_[0].doc();
      if (results_.size() == top_k_) {
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
      }
      DrainDocument(doc);
      // Document boundary: flush the finished frames into the heap now so
      // the next prune decision sees the freshest threshold.
      PopTo(0);
    }
    PopTo(0);
  }

  /// Drains every posting of `doc` with the min-Dewey merge, exactly as
  /// the oblivious pass would.
  void DrainDocument(uint32_t doc) {
    while (true) {
      int chosen = -1;
      for (size_t w = 0; w < num_keywords_; ++w) {
        if (cursors_[w].AtEnd() || cursors_[w].doc() != doc) continue;
        if (chosen < 0 || cursors_[w].dewey() < cursors_[chosen].dewey()) {
          chosen = static_cast<int>(w);
        }
      }
      if (chosen < 0) break;
      DilCursor& cursor = cursors_[chosen];
      ++stats_->postings_scored;
      if (pruned_) {
        // Count each block once, the first time a posting is drawn from it.
        uint32_t block = cursor.block();
        if (block != last_counted_block_[static_cast<size_t>(chosen)]) {
          last_counted_block_[static_cast<size_t>(chosen)] = block;
          ++stats_->blocks_scored;
        }
      }
      Consume(cursor.dewey(), cursor.score(), static_cast<size_t>(chosen));
      cursor.Next();
    }
  }

  /// Whether a frame at the current path scoring `total` belongs in the
  /// output: always with top_k == 0 or a heap not yet full, otherwise only
  /// if it beats the worst kept result under BetterResult. Decided before
  /// the QueryResult is built, so losing frames never allocate.
  bool EntersOutput(double total) const {
    if (top_k_ == 0 || results_.size() < top_k_) return true;
    const QueryResult& worst = results_.front();
    if (total != worst.score) return total > worst.score;
    return CompareDewey(DeweyRef(path_.data(), path_.size()),
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
    // The exact merge keeps the same heap but reports no pruning work.
    if (results_.size() < top_k_) {
      results_.push_back(std::move(result));
      std::push_heap(results_.begin(), results_.end(), BetterResult);
      if (results_.size() == top_k_) {
        threshold_ = results_.front().score;
        if (pruned_) ++stats_->threshold_updates;
      }
      return;
    }
    std::pop_heap(results_.begin(), results_.end(), BetterResult);
    results_.back() = std::move(result);
    std::push_heap(results_.begin(), results_.end(), BetterResult);
    if (results_.front().score > threshold_) {
      threshold_ = results_.front().score;
      if (pruned_) ++stats_->threshold_updates;
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

  void Consume(DeweyRef dewey, double score, size_t keyword) {
    size_t common = 0;
    while (common < path_.size() && common < dewey.size() &&
           path_[common] == dewey[common]) {
      ++common;
    }
    PopTo(common);
    while (path_.size() < dewey.size()) {
      path_.push_back(dewey[path_.size()]);
      emitted_.push_back(0);
      scores_.resize(scores_.size() + num_keywords_, 0.0);
    }
    double& slot = scores_[(path_.size() - 1) * num_keywords_ + keyword];
    if (score > slot) slot = score;
  }

  void PopTo(size_t depth) {
    while (path_.size() > depth) {
      size_t f = path_.size() - 1;
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
        result.element =
            DeweyId(std::vector<uint32_t>(path_.begin(), path_.end()));
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
      path_.pop_back();
      emitted_.pop_back();
      scores_.resize(scores_.size() - num_keywords_);
    }
  }

  std::vector<DilCursor>& cursors_;
  ScoreOptions options_;
  size_t num_keywords_;
  std::vector<uint32_t> path_;     ///< current stack's Dewey components
  std::vector<uint8_t> emitted_;   ///< per-frame descendant-emitted flag
  std::vector<double> scores_;     ///< depth × num_keywords_ score matrix
  /// All results (top_k_ == 0), else a BetterResult heap of at most k.
  std::vector<QueryResult> results_;
  size_t top_k_ = 0;
  double threshold_ = 0.0;  ///< k-th best score once the heap is full

  // Pruned-merge state (RunPruned / RunPrunedShared only).
  bool pruned_ = false;  ///< block-max leapfrogging on; block stats counted
  std::vector<uint32_t> last_counted_block_;  ///< per keyword, for stats
  ExecuteStats* stats_ = nullptr;  ///< added to, never reset; never null
  ExecuteStats local_stats_;       ///< sink when the caller passed none
};

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
    const std::vector<const DilEntry*>& lists, size_t top_k) const {
  std::vector<std::span<const DilPosting>> spans;
  spans.reserve(lists.size());
  for (const DilEntry* list : lists) {
    spans.push_back(list == nullptr
                        ? std::span<const DilPosting>()
                        : std::span<const DilPosting>(list->postings));
  }
  return Execute(spans, top_k);
}

std::vector<QueryResult> QueryProcessor::Execute(
    const std::vector<std::span<const DilPosting>>& lists,
    size_t top_k) const {
  if (lists.empty()) return {};
  // A keyword with no postings can never be covered: no results (Eq. 1 is
  // conjunctive). Short-circuit to avoid a full merge.
  for (const auto& list : lists) {
    if (list.empty()) return {};
  }
  Merger merger(lists, options_);
  merger.set_top_k(top_k);
  return merger.Run();
}

std::vector<QueryResult> QueryProcessor::Execute(
    std::vector<DilCursor> cursors, size_t top_k) const {
  return Execute(std::move(cursors), top_k, PruningMode::kExact, nullptr);
}

std::vector<QueryResult> QueryProcessor::Execute(
    std::vector<DilCursor> cursors, size_t top_k, PruningMode pruning,
    ExecuteStats* stats) const {
  if (cursors.empty()) return {};
  for (const DilCursor& cursor : cursors) {
    if (cursor.AtEnd()) return {};  // conjunctive short-circuit
  }
  // Admissibility: pruning needs a threshold (top_k >= 1), per-block
  // bounds on every list, and non-increasing score propagation
  // (decay <= 1) so the window max bounds every frame a document range
  // can emit. Anything else runs the exact merge — same results.
  bool prunable = pruning == PruningMode::kBlockMax && top_k >= 1 &&
                  options_.decay <= 1.0;
  if (prunable) {
    for (const DilCursor& cursor : cursors) {
      if (!cursor.has_block_max()) {
        prunable = false;
        break;
      }
    }
  }
  CursorMerger merger(cursors, options_);
  return prunable ? merger.RunPruned(top_k, stats)
                  : merger.Run(top_k, stats);
}

std::vector<QueryResult> QueryProcessor::ExecuteSharded(
    const std::vector<std::span<const DilPosting>>& lists, size_t top_k,
    size_t num_shards, ThreadPool* pool, ExecuteStats* stats) const {
  if (stats != nullptr) *stats = ExecuteStats{};
  if (lists.empty()) return {};
  size_t total_postings = 0;
  for (const auto& list : lists) {
    if (list.empty()) return {};  // conjunctive: no results, nothing scanned
    total_postings += list.size();
  }
  if (stats != nullptr) stats->postings_scanned = total_postings;

  std::vector<DocRange> ranges;
  if (num_shards > 1 && pool != nullptr) {
    ranges = PartitionListsByDocument(lists, num_shards);
  }
  if (ranges.size() <= 1) {
    return Execute(lists, top_k);
  }
  if (stats != nullptr) stats->shards = ranges.size();

  // Each shard merges its document range into a shard-local top-k. Shards
  // are independent by construction (the stack empties between documents),
  // so any element of the global top-k is in its shard's local top-k.
  std::vector<std::vector<QueryResult>> shard_results(ranges.size());
  pool->ParallelFor(ranges.size(), [&](size_t s) {
    std::vector<std::span<const DilPosting>> slices;
    slices.reserve(lists.size());
    for (const auto& list : lists) {
      slices.push_back(SliceDocRange(list, ranges[s]));
    }
    shard_results[s] = Execute(slices, top_k);
  });

  // Final k-way merge: the same (score desc, Dewey) order the serial pass
  // uses, so the output is bit-identical to it.
  return MergeShardResults(std::move(shard_results), top_k);
}

std::vector<QueryResult> QueryProcessor::MergeTopK(
    std::vector<std::vector<QueryResult>> parts, size_t top_k) {
  return MergeShardResults(std::move(parts), top_k);
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

  auto open_all = [&eligible](size_t s, const DocRange* range) {
    std::vector<DilCursor> cursors;
    cursors.reserve(eligible[s]->size());
    for (const DilListRef& list : *eligible[s]) {
      cursors.push_back(range == nullptr ? list.OpenCursor()
                                         : list.OpenCursor(*range));
    }
    return cursors;
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
      item_results[i] =
          Execute(open_all(s, &range), top_k, pruning, &item_stats[i]);
    });
    if (stats != nullptr) {
      for (const ExecuteStats& s : item_stats) {
        stats->postings_scored += s.postings_scored;
        stats->blocks_scored += s.blocks_scored;
        stats->blocks_skipped += s.blocks_skipped;
        stats->threshold_updates += s.threshold_updates;
      }
    }
    return MergeShardResults(std::move(item_results), top_k);
  }
  // One live segment: the plain serial merge.
  if (eligible.size() == 1) {
    return Execute(open_all(0, nullptr), top_k, pruning, stats);
  }

  // Serial plan: one global top-k heap shared across segments, visited in
  // ascending document order. Prunable segments (block-max admissible)
  // continue the Block-Max-WAND merge against the carried threshold;
  // non-prunable ones run the exact merge locally — their local top-k
  // contains every candidate that could enter the shared heap, because
  // scores never interact across (doc-disjoint) segments.
  std::vector<QueryResult> heap;  // BetterResult heap, <= top_k entries
  auto emit_shared = [&heap, top_k](std::vector<QueryResult> results) {
    for (QueryResult& r : results) {
      if (top_k == 0) {
        heap.push_back(std::move(r));
        continue;
      }
      if (heap.size() < top_k) {
        heap.push_back(std::move(r));
        std::push_heap(heap.begin(), heap.end(), BetterResult);
        continue;
      }
      if (!BetterResult(r, heap.front())) continue;
      std::pop_heap(heap.begin(), heap.end(), BetterResult);
      heap.back() = std::move(r);
      std::push_heap(heap.begin(), heap.end(), BetterResult);
    }
  };
  for (size_t s = 0; s < eligible.size(); ++s) {
    std::vector<DilCursor> cursors = open_all(s, nullptr);
    bool prunable = pruning == PruningMode::kBlockMax && top_k >= 1 &&
                    options_.decay <= 1.0;
    if (prunable) {
      for (const DilCursor& cursor : cursors) {
        if (!cursor.has_block_max()) {
          prunable = false;
          break;
        }
      }
    }
    CursorMerger merger(cursors, options_);
    if (prunable) {
      merger.RunPrunedShared(top_k, stats, &heap);
    } else {
      emit_shared(merger.Run(top_k, stats));
    }
  }
  std::sort(heap.begin(), heap.end(), BetterResult);
  if (top_k > 0 && heap.size() > top_k) heap.resize(top_k);
  return heap;
}

}  // namespace xontorank
