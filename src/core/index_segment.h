#ifndef XONTORANK_CORE_INDEX_SEGMENT_H_
#define XONTORANK_CORE_INDEX_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/index_builder.h"
#include "core/ontology_context.h"
#include "core/options.h"
#include "xml/corpus.h"

namespace xontorank {

/// One immutable segment of a snapshot (DESIGN.md §15): a
/// contiguous document range [first_doc, end_doc) of the corpus together
/// with the CorpusIndex built over exactly those documents. Segments are
/// sealed once (a commit turns the writer's staged delta into a segment) or
/// produced by compaction (MergeSegments), and never mutated afterwards; a
/// snapshot holds an ordered, disjoint, corpus-tiling sequence of them.
///
/// Dewey ids are absolute (component 0 is the global doc id), so a
/// segment's posting lists are globally addressed: the cross-segment merge
/// never rewrites ids, and results resolve against the snapshot's full
/// corpus. Scores are document-scoped (DocumentUnits), so a segment's
/// postings are bit-identical to what any other segmentation of
/// the same documents would produce — the property the cross-segment merge
/// and compaction rely on.
///
/// Thread-safety: serves the same answers for its whole life, like
/// CorpusIndex; the only internal synchronization is the index's: its
/// one-time stage-1 build (adopted segments) and its demand cache.
class IndexSegment {
 public:
  /// Seals a segment over `docs` (document ids [first_doc,
  /// first_doc + docs->size()), already absolute inside the documents):
  /// runs the full stage-1..3 build per `options`.
  static std::shared_ptr<const IndexSegment> Build(
      uint64_t id, std::shared_ptr<const Corpus> docs, uint32_t first_doc,
      std::shared_ptr<const OntologyContext> context,
      const IndexBuildOptions& options);

  /// Adopts an already-built FlatDil (the engine-store load path) as the
  /// segment's precomputed vocabulary, empty or not; a mapped view pins
  /// its own mapping for the segment's lifetime. Stage 1 over `docs` is
  /// deferred to its first use (a demand-built list, explain, a merge,
  /// build stats): vocabulary queries never read it, so a load re-indexes
  /// nothing.
  static std::shared_ptr<const IndexSegment> Adopt(
      uint64_t id, std::shared_ptr<const Corpus> docs, uint32_t first_doc,
      std::shared_ptr<const OntologyContext> context,
      const IndexBuildOptions& options, FlatDil adopted);

  /// Segment id: unique within one engine lifetime, strictly increasing in
  /// creation order (compacted segments get fresh, higher ids), and the
  /// basis of the on-disk file name (seg-<id>.xoseg).
  uint64_t id() const { return id_; }
  uint32_t first_doc() const { return first_doc_; }
  uint32_t end_doc() const { return end_doc_; }
  size_t num_docs() const { return end_doc_ - first_doc_; }

  const CorpusIndex& index() const { return *index_; }
  const Corpus& docs() const { return *docs_; }

 private:
  friend std::shared_ptr<const IndexSegment> MergeSegments(
      std::span<const std::shared_ptr<const IndexSegment>> inputs,
      uint64_t id, std::shared_ptr<const OntologyContext> context,
      const IndexBuildOptions& options);

  IndexSegment() = default;

  /// The segment's own sub-corpus (handles shared with the snapshot's full
  /// corpus — no document is ever copied). Heap-owned so index_'s corpus
  /// reference stays stable wherever the segment moves.
  std::shared_ptr<const Corpus> docs_;
  std::unique_ptr<const CorpusIndex> index_;  ///< refers to *docs_
  uint64_t id_ = 0;
  uint32_t first_doc_ = 0;
  uint32_t end_doc_ = 0;
};

/// Compaction: merges adjacent segments (ascending, contiguous document
/// ranges) into one segment with id `id`, re-indexing nothing: the merged
/// segment shares its inputs' per-document stage-1 records, and its flat
/// dil concatenates the inputs' lists in document order, decoded through
/// DilCursors into an exactly sized FlatDil::Builder. Demand-built lists
/// any input has cached are concatenated the same way into the merged
/// segment's demand cache.
///
/// The result is bit-identical to sealing the union of the inputs'
/// documents as one fresh segment, under every VocabularyMode. Scores are
/// document-scoped, so each input's list for a keyword is exactly the
/// fresh segment's list restricted to that input's documents. The fresh
/// segment's vocabulary is the union of the inputs' vocabularies (corpus
/// tokens are per document; ontology tokens are shared), but an input
/// whose own vocabulary lacks a union keyword may still match it — under
/// kCorpusOnly, through its code nodes' ontology scores. Such an input
/// contributes its demand-built list for the keyword, the same list it
/// serves queries.
std::shared_ptr<const IndexSegment> MergeSegments(
    std::span<const std::shared_ptr<const IndexSegment>> inputs, uint64_t id,
    std::shared_ptr<const OntologyContext> context,
    const IndexBuildOptions& options);

}  // namespace xontorank

#endif  // XONTORANK_CORE_INDEX_SEGMENT_H_
