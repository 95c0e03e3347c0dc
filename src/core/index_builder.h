#ifndef XONTORANK_CORE_INDEX_BUILDER_H_
#define XONTORANK_CORE_INDEX_BUILDER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/sync.h"
#include "core/flat_dil.h"
#include "core/onto_score.h"
#include "core/ontology_context.h"
#include "core/options.h"
#include "core/xonto_dil.h"
#include "ir/query.h"
#include "ir/text_index.h"
#include "onto/ontology.h"
#include "onto/ontology_index.h"
#include "onto/ontology_set.h"
#include "xml/corpus.h"
#include "xml/xml_node.h"

namespace xontorank {

/// Index-construction statistics (reported by Table III's bench).
struct IndexBuildStats {
  size_t documents = 0;
  size_t indexed_nodes = 0;
  size_t code_nodes = 0;
  size_t precomputed_keywords = 0;
  size_t total_postings = 0;
  double build_millis = 0.0;
};

/// A code node resolved against its ontological system.
struct CodeUnit {
  uint32_t unit;
  uint32_t system;
  ConceptId concept_id;
};

/// The stage-1 record (§V-B stage 1) of one document: every element node
/// becomes an IR unit of the document's own BM25 collection over its §III
/// textual description, with its Dewey id and, for a code node, its
/// resolved concept. Unit ids are local to the record (0-based, preorder).
///
/// Each document is its own BM25 collection, so its postings never depend
/// on which segment holds it. The record is built once, when the document
/// is sealed or loaded, and shared by every segment that later contains
/// the document: compaction re-indexes nothing. ElemRank is scoped the
/// same way: its hyperlink edges never leave their document, so with
/// IndexBuildOptions::use_elem_rank the record also holds each unit's
/// ElemRank over the document alone.
///
/// Immutable after construction; safe to share across threads.
class DocumentUnits {
 public:
  /// Indexes document `doc` of `corpus`.
  DocumentUnits(const Corpus& corpus, size_t doc, const OntologySet& systems,
                const IndexBuildOptions& options);

  const TextIndex& text() const { return text_; }
  /// Local unit id → node address, ascending.
  const std::vector<DeweyId>& deweys() const { return deweys_; }
  /// The code nodes, in unit order.
  const std::vector<CodeUnit>& code_units() const { return code_units_; }
  /// Local unit id → ElemRank within the document (maximum 1); empty
  /// unless the record was built with use_elem_rank.
  const std::vector<double>& elem_ranks() const { return elem_ranks_; }
  size_t unit_count() const { return deweys_.size(); }

 private:
  TextIndex text_;
  std::vector<DeweyId> deweys_;
  std::vector<CodeUnit> code_units_;
  std::vector<double> elem_ranks_;
};

/// The queryable XOntoRank index over a CDA corpus and an ontology.
///
/// Construction runs the three §V-B stages:
///   1. *Full-text indexing*: every element node of every document becomes
///      an IR unit scored by BM25 over its §III textual description; the
///      ontology's concepts are indexed the same way (shared through the
///      OntologyContext, so successive snapshots of a growing corpus never
///      re-index the ontology).
///   2. *OntoScore computation*: per keyword, Algorithm 1 (merged
///      best-first expansion) produces the OntoScore hash-map row. Rows are
///      memoized in the context's row cache: rebuilding the index after a
///      corpus extension reuses them untouched.
///   3. *DIL creation*: per keyword, a Dewey inverted list whose posting
///      scores are NS(w,v) = max(IRS(w,v), ω·OS(w, concept(v))) (Eq. 5).
///
/// Entries for keywords outside the precomputed vocabulary (notably quoted
/// phrases) are built on demand and cached; results are identical either
/// way.
///
/// Every list is served from an immutable FlatDil (columnar postings, skip
/// tables, block-max — core/flat_dil.h): the precomputed vocabulary as one
/// shared dil, each demand-built list as its own one-list dil. Both are
/// built by the same path (unit scores in unit-id order, expanded to
/// Dewey ids only inside FlatDil::Builder), so query execution reads every
/// list through GetListRef without materializing legacy entries, and every
/// list can take part in block-max pruning.
///
/// Thread-safety: a CorpusIndex is immutable after construction. Any number
/// of threads may call the const accessors concurrently; GetListRef serves
/// precomputed (and adopted) lists without taking any lock, and
/// synchronizes only the on-demand side cache. Returned entry pointers and
/// list references are stable for the life of the index.
// xo-analyze: allow(backing-before-view) intentional propagation: the
// holder pins the mapping (IndexSegment declares backing_ first).
class CorpusIndex {
 public:
  /// Full constructor: `corpus` must outlive the index (the IndexSegment
  /// layer owns both and guarantees this); `context` carries the ontology
  /// half and must have been created with the same strategy/score options.
  /// Stage 1 runs once per document. A non-empty `adopted` dil (a segment
  /// file's mapped view) replaces stage 2+3 entirely: its lists are served
  /// as the precomputed set and the vocabulary precomputation is skipped.
  /// Its lists must have been built with the same corpus, systems and
  /// options or queries will be inconsistent.
  CorpusIndex(const Corpus& corpus,
              std::shared_ptr<const OntologyContext> context,
              IndexBuildOptions options, FlatDil adopted = {});

  /// On-demand lists by canonical keyword, each a one-list FlatDil;
  /// nullptr marks a keyword that matches nothing.
  using DemandLists = std::map<std::string, std::unique_ptr<const FlatDil>>;

  /// Over already-built stage-1 records, one per document of `corpus`, in
  /// order (the compactor's path: a merged segment shares its inputs'
  /// records instead of re-running stage 1). `adopted` as above;
  /// `demand` seeds the demand cache, and each of its lists must equal
  /// what DemandList would build here.
  CorpusIndex(const Corpus& corpus,
              std::vector<std::shared_ptr<const DocumentUnits>> documents,
              std::shared_ptr<const OntologyContext> context,
              IndexBuildOptions options, FlatDil adopted,
              DemandLists demand = {});

  /// Convenience for standalone use (tests, benches, the query-expansion
  /// baseline): builds a private OntologyContext. The ontologies inside
  /// `systems` must outlive the index; a bare `Ontology&` converts
  /// implicitly to a one-system collection.
  CorpusIndex(const Corpus& corpus, OntologySet systems,
              IndexBuildOptions options);

  const IndexBuildStats& stats() const { return stats_; }
  const IndexBuildOptions& options() const { return options_; }

  /// The shared ontology half (systems, stage-1 indexes, row cache).
  const std::shared_ptr<const OntologyContext>& context() const {
    return context_;
  }

  /// The registered ontological systems collection (§III).
  const OntologySet& systems() const { return context_->systems(); }

  /// Convenience: the primary (first) system.
  const Ontology& ontology() const { return systems().system(0); }
  const OntologyIndex& ontology_index(size_t system = 0) const {
    return context_->index(system);
  }
  const Corpus& corpus() const { return *corpus_; }

  /// The stage-1 records this index serves from, one per document.
  const std::vector<std::shared_ptr<const DocumentUnits>>& documents() const {
    return documents_;
  }

  /// The inverted list for `keyword` as an execution reference — always a
  /// flat list. Keywords in the precomputed vocabulary resolve to their
  /// list of flat_dil() — zero copies, no lock; anything else (phrases,
  /// out-of-vocabulary tokens) is built once into the demand cache as a
  /// one-list FlatDil. This is the serving path's entry point.
  DilListRef GetListRef(const Keyword& keyword) const
      XO_EXCLUDES(demand_mutex_);

  /// The inverted list for `keyword` as a legacy materialized entry,
  /// thawed from the list GetListRef serves and cached. The returned
  /// pointer is stable for the life of the index; nullptr is never
  /// returned (an unmatched keyword yields an empty list). Used by explain
  /// and query expansion; prefer GetListRef on hot paths — this copies the
  /// list into per-posting DeweyIds on first request.
  const DilEntry* GetEntry(const Keyword& keyword) const
      XO_EXCLUDES(demand_mutex_);

  /// The precomputed vocabulary's flat serving representation.
  const FlatDil& flat_dil() const { return flat_; }

  /// Builds the inverted list for `keyword` without touching the entry or
  /// row caches (used by the Table III bench to time entry creation from
  /// scratch).
  std::vector<DilPosting> BuildPostings(const Keyword& keyword) const;

  /// The OntoScore hash-map row for `keyword` within one ontological
  /// system (stage 2 output), computed fresh; empty under the XRANK
  /// strategy.
  OntoScoreMap ComputeOntoScoreRow(const Keyword& keyword,
                                   size_t system = 0) const;

  /// The precomputed single-token vocabulary.
  std::vector<std::string> PrecomputedVocabulary() const;

  /// Per-node support breakdown backing Eq. 5, used by the explain API:
  /// the node's textual IRS for the keyword, and — when the node is a code
  /// node — its concept and OntoScore under this index's strategy.
  struct NodeSupport {
    double textual_irs = 0.0;
    bool is_code_node = false;
    size_t system = 0;
    ConceptId concept_id = kInvalidConcept;
    double onto_score = 0.0;
  };
  /// `dewey` must address an element of this corpus; returns a zero
  /// NodeSupport for unknown addresses.
  NodeSupport ComputeNodeSupport(const DeweyId& dewey,
                                 const Keyword& keyword) const;

  /// The keywords whose demand-built list is cached so far, ascending.
  std::vector<std::string> DemandKeywords() const XO_EXCLUDES(demand_mutex_);

  /// Total postings currently materialized (precomputed + demand-built).
  size_t TotalPostings() const XO_EXCLUDES(demand_mutex_);

 private:
  /// One posting before its unit is expanded to a Dewey id.
  struct UnitScore {
    uint32_t unit;
    double score;  ///< NS(w, v) (Eq. 5), ElemRank blend applied
  };
  /// A keyword's list in unit form, keyed by its canonical string.
  using UnitList = std::pair<std::string, std::vector<UnitScore>>;

  /// The constructors' shared tail: checks the context, lays the records'
  /// units out under global ids, then adopts `adopted` or runs stage 2+3,
  /// and fills stats_.
  void Init(FlatDil adopted);
  void Precompute();
  /// The keyword's postings in unit form, sorted by unit id — which is
  /// Dewey order, since units are numbered in document order. Stage 3's
  /// one build path: precomputed, demand-built and BuildPostings lists all
  /// start here.
  std::vector<UnitScore> ScoreUnits(
      const Keyword& keyword,
      const std::vector<OntoScoreRowCache::Row>& rows) const;
  /// ScoreUnits through the context's row cache (exact same output; used
  /// by Precompute and the demand cache so snapshot rebuilds share rows).
  std::vector<UnitScore> ScoreUnitsCached(const Keyword& keyword) const;
  /// Freezes `lists` (sorted by keyword, unique) into one FlatDil, with
  /// every column reserved exactly, so Builder::Finish copies nothing.
  FlatDil FreezeLists(const std::vector<UnitList>& lists) const;

  /// The flat dil and list index serving `keyword`: the precomputed list,
  /// or the demand-built one (built and cached on first request).
  std::pair<const FlatDil*, uint32_t> ResolveList(const Keyword& keyword)
      const XO_EXCLUDES(demand_mutex_);
  /// The cached demand-built list for `canonical`, building it on first
  /// request; never null (a keyword matching nothing maps to a shared
  /// empty list). The list is index 0 of the returned dil.
  const FlatDil* DemandList(const Keyword& keyword,
                            const std::string& canonical) const
      XO_EXCLUDES(demand_mutex_);

  /// Stage-1 matches for `keyword` across the whole corpus, sorted by
  /// (global) unit id: the records' matches concatenated, which is already
  /// sorted because records are in document order.
  std::vector<ScoredUnit> LookupUnits(const Keyword& keyword) const;

  /// The corpus half of the precomputed vocabulary, sorted and unique.
  std::vector<std::string> CorpusVocabulary() const;

  const Corpus* corpus_;
  std::shared_ptr<const OntologyContext> context_;
  IndexBuildOptions options_;

  /// Stage 1, shared: record r's local unit u is global unit
  /// (units of records before r) + u, so global unit ids ascend in
  /// document order.
  std::vector<std::shared_ptr<const DocumentUnits>> documents_;
  /// The first global unit id of each record, then the unit count.
  std::vector<uint32_t> record_base_;
  /// Every record's code units, with global unit ids, in unit order.
  std::vector<CodeUnit> code_units_;

  /// Precomputed (or adopted) lists, frozen columnar; immutable once the
  /// constructor returns, so lookups need no synchronization.
  FlatDil flat_;
  /// The mutex guards only the two side caches below; list construction
  /// itself runs outside the lock. Pointers handed out remain stable after
  /// the lock is dropped (neither cache ever moves or erases a value),
  /// which is an invariant the annotations cannot express — hence cached
  /// lists and entries escape the guarded region by design.
  mutable Mutex demand_mutex_;
  /// On-demand lists (out-of-vocabulary keywords, phrases) by canonical
  /// keyword, each frozen into a one-list FlatDil. nullptr marks a keyword
  /// that matches nothing here — the common case for single-document
  /// segments — and costs no dil.
  mutable DemandLists demand_ XO_GUARDED_BY(demand_mutex_);
  /// GetEntry's thawed copies of served lists.
  mutable XOntoDil thawed_ XO_GUARDED_BY(demand_mutex_);
  IndexBuildStats stats_;
};

}  // namespace xontorank

#endif  // XONTORANK_CORE_INDEX_BUILDER_H_
