#ifndef XONTORANK_IR_TEXT_INDEX_H_
#define XONTORANK_IR_TEXT_INDEX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/bm25.h"
#include "ir/query.h"
#include "ir/tokenizer.h"

namespace xontorank {

/// A unit matched by a keyword, with its normalized relevance score.
struct ScoredUnit {
  uint32_t unit_id;
  double score;  ///< normalized IRS in [0, 1]

  bool operator==(const ScoredUnit& other) const {
    return unit_id == other.unit_id && score == other.score;
  }
};

/// Positional full-text index over arbitrary "virtual documents" (units).
///
/// The paper applies one IR function to two collections: each XML node's
/// textual description (§III) and each ontology concept's terms (§IV). Both
/// are indexed through this class; a unit is identified by a caller-chosen
/// uint32 id. Scores returned by Lookup are BM25 values normalized per
/// keyword to [0, 1] (the paper requires IRS ∈ [0,1] for Eq. 5), so the best
/// textual match for a keyword always scores 1.
///
/// Usage: AddUnit() for every unit, then Finalize(), then Lookup(). Lookups
/// before Finalize() or adds after it are programming errors (assert).
///
/// Finalize() freezes the index into sorted flat columns and frees the
/// build state: the terms in one character arena (sorted, with offsets)
/// behind a Bloom filter that rejects most absent tokens in one load,
/// each term's range of postings, one unit id per posting, every posting's
/// range of token positions in one positions column, and the unit lengths
/// indexed by unit id. A (term, unit) pair costs two u32s plus one per
/// occurrence, with no heap block of its own; a term lookup is a binary
/// search over the arena. Unit ids index the length column, so they should
/// be dense (every caller numbers its units from 0).
class TextIndex {
 public:
  explicit TextIndex(Bm25Params params = {}, TokenizerOptions tokenizer = {})
      : params_(params), tokenizer_(tokenizer) {}

  /// Indexes `text` under `unit_id`. May be called repeatedly with the same
  /// id to extend a unit (token positions continue from the previous call),
  /// and with ids in any order.
  void AddUnit(uint32_t unit_id, std::string_view text);

  /// Freezes the index into its columns and computes collection
  /// statistics.
  void Finalize();

  bool finalized() const { return finalized_; }

  /// All units matching `keyword` (conjunction of adjacent tokens for
  /// phrases), each with a normalized BM25 score in (0, 1]. Sorted by
  /// unit id. Empty if no unit matches.
  std::vector<ScoredUnit> Lookup(const Keyword& keyword) const;

  /// Lookup's matches appended to `out`, each unit id offset by
  /// `unit_base` (a caller laying several indexes out under one id space).
  void AppendLookup(const Keyword& keyword, uint32_t unit_base,
                    std::vector<ScoredUnit>* out) const;

  /// Number of distinct units indexed, including units with no tokens.
  size_t unit_count() const { return unit_count_; }

  /// Number of distinct terms indexed.
  size_t term_count() const {
    return finalized_ ? term_postings_.size() - 1 : term_ids_.size();
  }

  /// The indexed vocabulary (distinct single tokens), sorted.
  std::vector<std::string> Vocabulary() const;

  /// True if at least one unit contains the token.
  bool ContainsTerm(std::string_view token) const;

  /// Heap bytes the frozen columns hold: the sum of their capacities (0
  /// before Finalize). Finalize sizes every column exactly.
  size_t MemoryBytes() const;

 private:
  /// One token occurrence, recorded while adding.
  struct Occurrence {
    uint32_t term;  ///< interned id, in first-seen order
    uint32_t unit;
    uint32_t position;
  };

  /// Transparent hashing and equality, so that interning by string_view
  /// builds no std::string for a term already seen.
  struct TermHash {
    using is_transparent = void;
    size_t operator()(std::string_view term) const {
      return std::hash<std::string_view>{}(term);
    }
  };

  /// Sorted term `t` (finalized only).
  std::string_view Term(size_t t) const {
    return {term_arena_.data() + term_offsets_[t],
            term_offsets_[t + 1] - term_offsets_[t]};
  }
  /// Bits the term filter spends per term. A term sets three bits of one
  /// 64-bit word, so a few absent tokens in a hundred pass the filter.
  static constexpr size_t kFilterBitsPerTerm = 8;
  /// The filter word and the bits of a term hashing to `hash`.
  size_t FilterWord(uint64_t hash) const {
    return (hash >> 32) & (term_filter_.size() - 1);
  }
  static uint64_t FilterMask(uint64_t hash) {
    return (uint64_t{1} << (hash & 63)) | (uint64_t{1} << ((hash >> 6) & 63)) |
           (uint64_t{1} << ((hash >> 12) & 63));
  }
  /// False when `token` is certainly not a term; true when it may be.
  bool MayContain(std::string_view token) const;
  /// The posting range [first, second) of `token`; empty if absent.
  std::pair<uint32_t, uint32_t> FindPostings(std::string_view token) const;
  /// Occurrences of posting `p`.
  uint32_t TermFrequency(uint32_t p) const {
    return posting_positions_[p + 1] - posting_positions_[p];
  }
  /// Appends (unit, phrase occurrence count) for every unit holding the
  /// phrase `keyword`, the count in ScoredUnit::score.
  void AppendPhraseCounts(const Keyword& keyword,
                          std::vector<ScoredUnit>* out) const;

  Bm25Params params_;
  TokenizerOptions tokenizer_;
  bool finalized_ = false;
  size_t unit_count_ = 0;
  double avg_unit_length_ = 0.0;

  // Build state, freed by Finalize.
  std::unordered_map<std::string, uint32_t, TermHash, std::equal_to<>>
      term_ids_;
  std::vector<Occurrence> occurrences_;

  // Frozen columns.
  /// Every term's characters, in sorted term order, back to back.
  std::vector<char> term_arena_;
  /// Term t is term_arena_[term_offsets_[t], term_offsets_[t + 1]).
  std::vector<uint32_t> term_offsets_;
  /// A blocked Bloom filter over the terms, a power-of-two number of
  /// words. Most lookups into a document's index are for terms it lacks
  /// (about 96% on the lazy Fig. 11 workload), and the filter answers
  /// those with one load instead of a binary search over the arena.
  std::vector<uint64_t> term_filter_;
  /// Term t's postings are [term_postings_[t], term_postings_[t + 1]),
  /// ascending by unit.
  std::vector<uint32_t> term_postings_;
  /// The unit of each posting.
  std::vector<uint32_t> posting_units_;
  /// Posting p's positions are
  /// positions_[posting_positions_[p], posting_positions_[p + 1]).
  std::vector<uint32_t> posting_positions_;
  /// Every posting's token positions within its unit, ascending per
  /// posting.
  std::vector<uint32_t> positions_;
  /// Token length (raw tokens, kept or dropped) by unit id. While adding,
  /// an id never added holds kNoUnit; Finalize turns those into 0.
  std::vector<uint32_t> unit_lengths_;
};

}  // namespace xontorank

#endif  // XONTORANK_IR_TEXT_INDEX_H_
