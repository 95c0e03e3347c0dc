#ifndef XONTORANK_CORE_INDEX_BUILDER_H_
#define XONTORANK_CORE_INDEX_BUILDER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/sync.h"
#include "core/flat_dil.h"
#include "core/onto_score.h"
#include "core/ontology_context.h"
#include "core/options.h"
#include "ir/query.h"
#include "ir/text_index.h"
#include "onto/ontology.h"
#include "onto/ontology_index.h"
#include "onto/ontology_set.h"
#include "xml/corpus.h"
#include "xml/dewey_ref.h"
#include "xml/xml_node.h"

namespace xontorank {

class ThreadPool;

/// Index-construction statistics (reported by Table III's bench). The
/// phase times split build_millis for an eager build (the other
/// constructors leave them 0): stage 1 with each chunk's share of the
/// corpus vocabulary, the vocabulary's final merge, scoring (stages 2 and
/// 3 in unit form) and the freeze into flat columns. A snapshot sums them
/// over its segments like build_millis.
struct IndexBuildStats {
  size_t documents = 0;
  size_t indexed_nodes = 0;
  size_t code_nodes = 0;
  size_t precomputed_keywords = 0;
  size_t total_postings = 0;
  double build_millis = 0.0;
  double stage1_millis = 0.0;
  double vocabulary_millis = 0.0;
  double score_millis = 0.0;
  double freeze_millis = 0.0;
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
/// The addresses are flat: one u32 arena holding every unit's Dewey id
/// back to back (doc id, then the child ordinals from the root down), and
/// unit_count()+1 offsets into it, so unit u's address is the contiguous
/// run [offsets[u], offsets[u+1]) read as a DeweyRef — no allocation per
/// unit, and one sequential read per posting when lists are frozen.
///
/// Each document is its own BM25 collection, so its postings never depend
/// on which segment holds it. The record is built once — when the document
/// is sealed, or on first use after a load (CorpusIndex defers stage 1 for
/// adopted segments) — and shared by every segment that later contains the
/// document: compaction re-indexes nothing. ElemRank is scoped the
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
  /// Local unit `u`'s node address (valid while the record lives); the
  /// addresses ascend with u.
  DeweyRef dewey(uint32_t u) const {
    return DeweyRef(dewey_arena_.data() + dewey_offsets_[u],
                    dewey_offsets_[u + 1] - dewey_offsets_[u]);
  }
  /// The code nodes, in unit order.
  const std::vector<CodeUnit>& code_units() const { return code_units_; }
  /// Local unit id → ElemRank within the document (maximum 1); empty
  /// unless the record was built with use_elem_rank.
  const std::vector<double>& elem_ranks() const { return elem_ranks_; }
  size_t unit_count() const { return dewey_offsets_.size() - 1; }

 private:
  TextIndex text_;
  /// Every unit's address, in unit order, back to back.
  std::vector<uint32_t> dewey_arena_;
  /// Unit u's address starts at dewey_offsets_[u]; the last entry is the
  /// arena size.
  std::vector<uint32_t> dewey_offsets_{0};
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
/// An index over an adopted dil (a loaded segment) defers stage 1 to its
/// first use: vocabulary keywords resolve in the adopted lists and never
/// read the stage-1 records, so a load does not re-index its documents.
///
/// Thread-safety: a CorpusIndex serves the same answers for its whole life.
/// Any number of threads may call the const accessors concurrently;
/// GetListRef serves precomputed (and adopted) lists without taking any
/// lock. The only internal synchronization is the one-time stage-1 build
/// of an adopted index (std::call_once) and the on-demand side cache.
/// Returned list references are stable for the life of the index.
class CorpusIndex {
 public:
  /// Full constructor: `corpus` must outlive the index (the IndexSegment
  /// layer owns both and guarantees this); `context` carries the ontology
  /// half and must have been created with the same strategy/score options.
  /// Runs stage 1 once per document, then precomputes the vocabulary per
  /// options.vocabulary_mode. This eager build runs on ThreadPool::Shared()
  /// in chunks sized by their work (a small build stays one inline chunk),
  /// so it must not be called from a task of that pool.
  CorpusIndex(const Corpus& corpus,
              std::shared_ptr<const OntologyContext> context,
              IndexBuildOptions options);

  /// Over an already-built dil (a segment file's mapped view): `adopted`
  /// IS the precomputed vocabulary, empty or not, and replaces stage 2+3
  /// entirely. Stage 1 is deferred to the first use that needs it (a
  /// demand-built list, explain, a merge, stats()). The lists must have
  /// been built with the same corpus, systems and options or queries will
  /// be inconsistent.
  CorpusIndex(const Corpus& corpus,
              std::shared_ptr<const OntologyContext> context,
              IndexBuildOptions options, FlatDil adopted);

  /// On-demand lists by canonical keyword, each a one-list FlatDil;
  /// nullptr marks a keyword that matches nothing.
  using DemandLists = std::map<std::string, std::unique_ptr<const FlatDil>>;

  /// Over already-built stage-1 records, one per document of `corpus`, in
  /// order (the compactor's path: a merged segment shares its inputs'
  /// records instead of re-running stage 1). `adopted` is the merged
  /// vocabulary, as above; `demand` seeds the demand cache, and each of
  /// its lists must equal what DemandList would build here.
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

  /// Build statistics; the node counts read the stage-1 records (so on an
  /// adopted index the first call builds them).
  IndexBuildStats stats() const;
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
    return records().documents;
  }

  /// The inverted list for `keyword` as an execution reference — always a
  /// flat list. Keywords in the precomputed vocabulary resolve to their
  /// list of flat_dil() — zero copies, no lock; anything else (phrases,
  /// out-of-vocabulary tokens) is built once into the demand cache as a
  /// one-list FlatDil. This is the serving path's entry point.
  /// `lists_built`, if non-null, is incremented when this call ran a
  /// demand build (a keyword matching nothing counts too: its settle and
  /// scoring ran).
  DilListRef GetListRef(const Keyword& keyword,
                        size_t* lists_built = nullptr) const
      XO_EXCLUDES(demand_mutex_);

  /// The precomputed vocabulary's flat serving representation.
  const FlatDil& flat_dil() const { return flat_; }

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
  /// A keyword's list in unit form, keyed by its canonical string, with
  /// the Dewey arena words its frozen form takes.
  struct UnitList {
    std::string canonical;
    std::vector<UnitScore> units;
    size_t arena_words = 0;
  };

  /// Stage 1, shared: record r's local unit u is global unit
  /// (units of records before r) + u, so global unit ids ascend in
  /// document order.
  struct Records {
    std::vector<std::shared_ptr<const DocumentUnits>> documents;
    /// The first global unit id of each record, then the unit count.
    std::vector<uint32_t> base;
    /// Every record's code units, with global unit ids, in unit order.
    std::vector<CodeUnit> code_units;
  };

  /// The stage-1 records, built exactly once: by the Build and merge
  /// constructors before they return, or on first use for an adopted
  /// index. Every reader goes through here once per list build (or
  /// lookup), never once per unit.
  const Records& records() const;
  /// The one-time body of records(): runs stage 1 over the corpus unless
  /// the merge constructor supplied the documents' records, then lays
  /// their units out under global ids. Stage 1 runs in chunks of
  /// documents on `pool`, or serially without one; with `vocabularies`, it
  /// also leaves there each chunk's corpus vocabulary, sorted and unique.
  void BuildRecords(ThreadPool* pool,
                    std::vector<std::vector<std::string>>* vocabularies) const;
  /// The constructors' shared head and tail: check the context; record the
  /// list counts and the build time in stats_.
  void CheckContext() const;
  void FinishStats(double build_millis);
  /// Stages 2 and 3 over the vocabulary (the corpus vocabularies stage 1
  /// gathered, plus the ontology's per options), scored in chunks of
  /// keywords and frozen in chunks of lists on `pool`.
  void Precompute(std::vector<std::vector<std::string>> corpus_vocabularies,
                  ThreadPool& pool);
  /// The keyword's postings in unit form, sorted by unit id — which is
  /// Dewey order, since units are numbered in document order — and the
  /// arena words they take once frozen, measured in the same walk; the
  /// canonical key is left to the caller. Stage 3's one build path:
  /// precomputed and demand-built lists both start here. The OntoScore
  /// rows come through the context's row cache, so snapshot rebuilds share
  /// them.
  UnitList ScoreUnits(const Keyword& keyword) const;
  /// Freezes measured `lists` (sorted by keyword, unique) into one
  /// FlatDil: the columns are sized once from the lists' shapes, then
  /// every list writes its own slice — in chunks of lists on `pool`, or
  /// serially without one.
  FlatDil FreezeLists(const std::vector<UnitList>& lists,
                      ThreadPool* pool) const;

  /// The flat dil and list index serving `keyword`: the precomputed list,
  /// or the demand-built one (built and cached on first request).
  std::pair<const FlatDil*, uint32_t> ResolveList(const Keyword& keyword,
                                                  size_t* lists_built) const
      XO_EXCLUDES(demand_mutex_);
  /// The cached demand-built list for `canonical`, building it on first
  /// request (and counting that build in `lists_built`, if non-null);
  /// never null (a keyword matching nothing maps to a shared empty list).
  /// The list is index 0 of the returned dil.
  const FlatDil* DemandList(const Keyword& keyword,
                            const std::string& canonical,
                            size_t* lists_built) const
      XO_EXCLUDES(demand_mutex_);

  const Corpus* corpus_;
  std::shared_ptr<const OntologyContext> context_;
  IndexBuildOptions options_;

  /// Written only inside records_once_ (so every reader that passed
  /// through records() sees it complete), and never after.
  mutable std::once_flag records_once_;
  mutable Records records_;

  /// Precomputed (or adopted) lists, frozen columnar; immutable once the
  /// constructor returns, so lookups need no synchronization.
  FlatDil flat_;
  /// The mutex guards only the demand cache below; list construction
  /// itself runs outside the lock. Pointers handed out remain stable after
  /// the lock is dropped (the cache never moves or erases a value), which
  /// is an invariant the annotations cannot express — hence cached lists
  /// escape the guarded region by design.
  mutable Mutex demand_mutex_;
  /// On-demand lists (out-of-vocabulary keywords, phrases) by canonical
  /// keyword, each frozen into a one-list FlatDil. nullptr marks a keyword
  /// that matches nothing here — the common case for single-document
  /// segments — and costs no dil.
  mutable DemandLists demand_ XO_GUARDED_BY(demand_mutex_);
  /// Every field but the node counts, which stats() reads off records_.
  IndexBuildStats stats_;
};

}  // namespace xontorank

#endif  // XONTORANK_CORE_INDEX_BUILDER_H_
