#ifndef XONTORANK_CORE_INDEX_WRITER_H_
#define XONTORANK_CORE_INDEX_WRITER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/sync.h"
#include "core/index_snapshot.h"
#include "xml/corpus.h"

namespace xontorank {

/// The engine's write/build path: absorbs new documents, batches them, and
/// publishes a fresh immutable IndexSnapshot per commit. Readers are never
/// blocked — they keep serving from the previously published snapshot while
/// a commit builds, and switch over via one atomic shared_ptr store.
///
/// Publication protocol:
///   1. writer (under the writer mutex) extends the corpus value —
///      structural sharing: only document pointers are copied;
///   2. writer builds a complete IndexSnapshot off to the side, reusing the
///      shared OntologyContext (ontology indexes + OntoScore row cache);
///   3. writer atomically stores the new snapshot into `published_`
///      (release); readers pick it up with an acquire load.
/// A reader therefore observes either the entire old snapshot or the entire
/// new one, never a partially built index.
///
/// Scores match a fresh build over the extended corpus exactly. Scores are
/// document-scoped (DESIGN.md §15), so a commit seals ONLY the staged delta
/// into a new immutable IndexSegment and publishes a snapshot sharing every
/// previous segment — commit cost is O(delta). The expensive ontological
/// rows are reused from the context's cache (see IndexSnapshot's
/// structural-sharing notes).
///
/// A background compactor runs beside the commits: when the segment set
/// accumulates lsm.compaction_fanin contiguous segments of the same
/// document-count tier, a detached task on the shared ThreadPool merges
/// them (MergeSegments — bit-identical to fresh-sealing the union) and
/// publishes the compacted snapshot. At most one compaction drain is in
/// flight per writer; commits never wait for it. CompactNow() and
/// WaitForCompactionIdle() give tests and shutdown paths a deterministic
/// handle on it.
///
/// Thread-safety: snapshot() is safe from any thread and lock-free on the
/// reader side. StageDocument/Commit/AddDocument serialize on an internal
/// writer mutex that readers never touch. The compactor's
/// in-flight flag lives under a second mutex ordered strictly after the
/// writer mutex (see the lock-order table in common/sync.h).
class IndexWriter {
 public:
  /// Builds and publishes the initial snapshot over `corpus`. The
  /// ontologies inside `systems` must outlive the writer.
  IndexWriter(Corpus corpus, OntologySet systems, IndexBuildOptions options);

  /// Adopts an externally built snapshot (the engine store's load path) as
  /// the published state; subsequent commits extend it, resuming its
  /// segment set (fresh segment ids continue past the largest adopted id).
  explicit IndexWriter(std::shared_ptr<const IndexSnapshot> initial);

  /// Waits for any in-flight compaction before tearing down (the detached
  /// compactor task captures `this`).
  ~IndexWriter();

  IndexWriter(const IndexWriter&) = delete;
  IndexWriter& operator=(const IndexWriter&) = delete;

  /// The currently published snapshot; never nullptr. One atomic acquire
  /// load — this is the whole reader hot path.
  std::shared_ptr<const IndexSnapshot> snapshot() const {
    return published_.load(std::memory_order_acquire);
  }

  /// Stages one document for the next commit and assigns its doc id (its
  /// final corpus position). The document is NOT searchable until Commit.
  uint32_t StageDocument(XmlDocument doc) XO_EXCLUDES(mutex_);

  /// Documents staged but not yet committed.
  size_t pending() const XO_EXCLUDES(mutex_);

  /// Builds and publishes a snapshot covering all staged documents; returns
  /// the published snapshot (the current one if nothing was staged).
  /// Queries against the result are identical to a fresh engine built over
  /// the full corpus.
  std::shared_ptr<const IndexSnapshot> Commit() XO_EXCLUDES(mutex_);

  /// Stage + Commit in one step: the document is searchable on return.
  uint32_t AddDocument(XmlDocument doc) XO_EXCLUDES(mutex_);

  /// Runs the compaction policy to a fixed point on the calling thread
  /// (claiming the single in-flight slot first, so it never races a
  /// background drain) and returns when no further merge is eligible — at
  /// once if nothing is. Deterministic handle for tests and for
  /// `auto_compact = false` setups.
  void CompactNow() XO_EXCLUDES(mutex_, compaction_mutex_);

  /// Blocks until no compaction is in flight. Note the next commit may
  /// schedule a new one; call under quiesced writers for a stable state.
  void WaitForCompactionIdle() XO_EXCLUDES(mutex_, compaction_mutex_);

 private:
  /// Commits the staged batch under the already-held writer mutex: seals
  /// the delta into one new segment, publishes, and (auto_compact) nudges
  /// the compactor. Holding the writer mutex across the seal is what
  /// serializes commits; readers never wait on it.
  std::shared_ptr<const IndexSnapshot> CommitLocked() XO_REQUIRES(mutex_);

  /// Publishes a snapshot over the current corpus_/segments_.
  std::shared_ptr<const IndexSnapshot> Publish() XO_REQUIRES(mutex_);

  /// Tiered compaction policy: returns true with [*begin, *begin + *count)
  /// set to the first contiguous run of `compaction_fanin` segments sharing
  /// a size tier (tier = ⌊log_fanin(documents)⌋). N single-document
  /// commits then leave at most 1 + (fanin − 1)·(⌊log_fanin N⌋ + 1)
  /// segments once compaction drains.
  bool PickCompaction(size_t* begin, size_t* count) const
      XO_REQUIRES(mutex_);

  /// Schedules a background CompactionDrain if one is eligible and none is
  /// in flight.
  void MaybeScheduleCompaction() XO_REQUIRES(mutex_);

  /// The compactor body: repeatedly {pick + claim a merged id under mutex_,
  /// merge UNLOCKED, splice + publish under mutex_} until no merge is
  /// eligible, then clears the in-flight flag under compaction_mutex_
  /// ALONE (never while holding mutex_ — the destructor may win the wake-up
  /// race and destroy the writer the moment the flag reads false, so
  /// touching any other member afterwards would be use-after-free). The
  /// window between the final pick check and the flag clear can swallow one
  /// scheduling attempt; that is benign — the next commit re-picks.
  void CompactionDrain() XO_EXCLUDES(mutex_, compaction_mutex_);

  std::shared_ptr<const OntologyContext> context_;
  IndexBuildOptions options_;

  mutable Mutex mutex_;  ///< serializes writers; readers never take it
  /// Committed corpus value.
  Corpus corpus_ XO_GUARDED_BY(mutex_);
  /// Staged batch for the next Commit.
  std::vector<XmlDocument> pending_ XO_GUARDED_BY(mutex_);
  /// The committed segment set (what Publish snapshots) and the next
  /// fresh segment id.
  std::vector<std::shared_ptr<const IndexSegment>> segments_
      XO_GUARDED_BY(mutex_);
  uint64_t next_segment_id_ XO_GUARDED_BY(mutex_) = 0;

  /// Compactor rendezvous. Ordered strictly after mutex_ (the scheduler
  /// checks the flag while holding mutex_); never the other way around —
  /// the drain loop takes them in alternation, not nested.
  mutable Mutex compaction_mutex_ XO_ACQUIRED_AFTER(mutex_);
  bool compaction_inflight_ XO_GUARDED_BY(compaction_mutex_) = false;
  CondVar compaction_idle_;

  /// The serving snapshot. Not guarded: readers load it lock-free with
  /// acquire ordering; only Publish (under mutex_) stores it.
  std::atomic<std::shared_ptr<const IndexSnapshot>> published_;
};

}  // namespace xontorank

#endif  // XONTORANK_CORE_INDEX_WRITER_H_
