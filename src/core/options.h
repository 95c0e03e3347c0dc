#ifndef XONTORANK_CORE_OPTIONS_H_
#define XONTORANK_CORE_OPTIONS_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "ir/bm25.h"

namespace xontorank {

/// The four ranking strategies evaluated in the paper (§VII-A).
enum class Strategy {
  /// Baseline: no ontology use; keywords must occur textually (XRANK).
  kXRank,
  /// §IV-A: ontology viewed as an undirected, unlabeled graph; authority
  /// decays uniformly per edge.
  kGraph,
  /// §IV-B: is-a links only; subclasses satisfy superclass queries fully,
  /// superclasses are damped by their subclass fan-out.
  kTaxonomy,
  /// §IV-C: description-logic view including all relationship types via
  /// existential role restrictions.
  kRelationships,
};

/// Human-readable strategy name as used in the paper's tables.
std::string_view StrategyName(Strategy s);

/// All four strategies in table order.
inline constexpr Strategy kAllStrategies[] = {
    Strategy::kXRank, Strategy::kGraph, Strategy::kTaxonomy,
    Strategy::kRelationships};

/// Tunables of OntoScore propagation and result scoring. Paper defaults
/// (§VII): decay = 0.5, threshold = 0.1, ω = 0.5.
struct ScoreOptions {
  /// Semantic-relevance decay per traversed edge (Graph strategy) or per
  /// dotted link (Relationships strategy), and per containment edge during
  /// result-score propagation (Eq. 2).
  double decay = 0.5;

  /// OntoScore values below this are neither stored nor expanded
  /// (Algorithm 1); bounds the BFS and the XOnto-DIL size.
  double threshold = 0.1;

  /// Weight ω of the ontological association in Eq. 5:
  /// NS(w,v) = max(IRS(w,v), ω·OS(w, concept(v))).
  double ontology_weight = 0.5;

  /// Approximation cap (§IX future work: "approximation and early pruning
  /// techniques"): at most this many concepts receive an OntoScore per
  /// keyword; 0 = unlimited. Because the expansion settles nodes in
  /// descending score order, a cap of N keeps exactly the N highest-scoring
  /// concepts of the exact computation (ties at the boundary aside) — a
  /// principled, monotone approximation that bounds both time and DIL size.
  size_t max_concepts_per_keyword = 0;

  /// IR scoring knobs (the paper uses BM25).
  Bm25Params bm25;
};

/// Segment-set knobs (DESIGN.md §15). The engine's serving state is an
/// ordered set of immutable segments: a commit seals only the staged delta
/// into a new segment — O(delta), not O(corpus) — and a background
/// compactor merges small segments under the same snapshot-publish
/// discipline.
///
/// Scoring is *document-scoped*: each document is its own BM25 collection
/// (stage 1 builds one TextIndex per document) and, with use_elem_rank,
/// its own ElemRank graph, so a posting's score depends only on its own
/// document and the ontology — never on collection statistics. That is
/// what makes segment results composable: any grouping of the same
/// documents into segments produces bit-identical search results (the
/// lsm_segment_test parity property), which in turn is what lets a commit
/// avoid touching existing segments.
struct LsmOptions {
  /// Ignored: segment sets are the only serving state. Kept only so that
  /// callers which still assign it compile; no code reads it.
  bool enabled = true;

  /// Tiered compaction triggers when this many contiguous segments share a
  /// size tier; the compactor merges exactly this many per step. Tier t
  /// holds segments of [fanin^t, fanin^(t+1)) documents. Values below 2
  /// are clamped to 2.
  size_t compaction_fanin = 4;

  /// Schedule compaction automatically on the shared ThreadPool after each
  /// commit. Disable for deterministic tests (CompactNow() remains
  /// available either way).
  bool auto_compact = true;
};

/// Options of the preprocessing phase (§V).
struct IndexBuildOptions {
  /// Which OntoScore strategy the XOnto-DILs embed. kXRank disables the
  /// ontology entirely (the baseline).
  Strategy strategy = Strategy::kRelationships;

  /// Decay / threshold / ω / BM25 knobs.
  ScoreOptions score;

  /// Which keywords get precomputed DIL entries (§V-B "Vocabulary").
  enum class VocabularyMode {
    /// Tokens occurring in the CDA corpus only.
    kCorpusOnly,
    /// Union of corpus tokens and ontology term tokens — the paper's full
    /// Vocabulary definition. Keywords that appear only in the ontology can
    /// still match documents through code nodes.
    kCorpusAndOntology,
    /// No precomputation; every entry is built on demand (lazy). Queries
    /// return identical results; only build cost moves to query time.
    kNone,
  };
  VocabularyMode vocabulary_mode = VocabularyMode::kCorpusAndOntology;

  /// If true, posting scores are modulated by ElemRank, XRANK's structural
  /// PageRank over elements (§V-A: "ElemRank could be incorporated in NS").
  /// The paper disabled it (its corpus had no ID-IDREF edges); our CDA
  /// corpus carries reference→content links, so the extension is
  /// exercisable. Those links never leave their document, so ElemRank runs
  /// per document (DocumentUnits). Final score:
  /// NS · ((1-λ) + λ·ElemRank(v)), with ElemRank's default knobs.
  bool use_elem_rank = false;

  /// Blend λ between pure NS (0) and fully ElemRank-modulated (1).
  double elem_rank_blend = 0.5;

  /// Capacity (in entries) of the per-snapshot query-result cache consulted
  /// by the unified Search API when SearchOptions::use_cache is set. Each
  /// published snapshot owns a fresh cache, so immutability makes
  /// invalidation free: a commit simply starts empty while pinned old
  /// snapshots keep serving their own consistent entries. 0 disables
  /// result caching entirely.
  size_t query_cache_entries = 256;

  /// If true, OntoScore rows (stage 2 output) are memoized in the engine's
  /// OntologyContext and reused by every index snapshot the engine
  /// publishes. Rows depend only on the ontology and the score knobs, so
  /// the memo is exact; it trades memory (one row per vocabulary keyword
  /// per system) for much cheaper writer commits. Disable for one-shot
  /// static indexes where the memory matters more.
  bool cache_onto_score_rows = true;

  /// Segment-set and compaction knobs (DESIGN.md §15).
  LsmOptions lsm;
};

/// Attribute names whose values are excluded from a node's textual
/// description (§III: "an expert specifies the attributes that should not be
/// included" — code strings, OIDs, ids are unlikely query keywords).
const std::unordered_set<std::string>& DefaultExcludedAttributes();

}  // namespace xontorank

#endif  // XONTORANK_CORE_OPTIONS_H_
