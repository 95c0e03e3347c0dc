#ifndef XONTORANK_IR_TEXT_INDEX_H_
#define XONTORANK_IR_TEXT_INDEX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
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
class TextIndex {
 public:
  explicit TextIndex(Bm25Params params = {}, TokenizerOptions tokenizer = {})
      : params_(params), tokenizer_(tokenizer) {}

  /// Indexes `text` under `unit_id`. May be called repeatedly with the same
  /// id to extend a unit (token positions continue from the previous call).
  void AddUnit(uint32_t unit_id, std::string_view text);

  /// Freezes the index and computes collection statistics.
  void Finalize();

  /// Reopens a finalized index for further AddUnit calls; Finalize() must
  /// be called again before lookups. Existing postings are kept (they are
  /// re-sorted and re-merged on the next Finalize), so appending units is
  /// equivalent to having indexed everything in one pass.
  void Reopen();

  bool finalized() const { return finalized_; }

  /// All units matching `keyword` (conjunction of adjacent tokens for
  /// phrases), each with a normalized BM25 score in (0, 1]. Sorted by
  /// unit id. Empty if no unit matches.
  std::vector<ScoredUnit> Lookup(const Keyword& keyword) const;

  /// Raw (unnormalized) BM25 score of `keyword` for one unit; 0 if the unit
  /// does not match.
  double RawScore(uint32_t unit_id, const Keyword& keyword) const;

  /// Number of distinct units indexed.
  size_t unit_count() const { return unit_lengths_.size(); }

  /// Number of distinct terms indexed.
  size_t term_count() const { return postings_.size(); }

  /// The indexed vocabulary (distinct single tokens), sorted.
  std::vector<std::string> Vocabulary() const;

  /// True if at least one unit contains the token.
  bool ContainsTerm(std::string_view token) const;

 private:
  struct Posting {
    uint32_t unit_id;
    std::vector<uint32_t> positions;  // sorted token positions within unit
  };
  using PostingList = std::vector<Posting>;

  /// Occurrence count of `keyword` in each unit (phrase-aware); pairs of
  /// (unit, tf), sorted by unit id.
  std::vector<std::pair<uint32_t, uint32_t>> MatchCounts(
      const Keyword& keyword) const;

  const PostingList* FindPostings(std::string_view token) const;

  /// Transparent hashing and equality, so that lookups by string_view
  /// build no std::string.
  struct TermHash {
    using is_transparent = void;
    size_t operator()(std::string_view term) const {
      return std::hash<std::string_view>{}(term);
    }
  };

  Bm25Params params_;
  TokenizerOptions tokenizer_;
  bool finalized_ = false;
  std::unordered_map<std::string, PostingList, TermHash, std::equal_to<>>
      postings_;
  std::unordered_map<uint32_t, uint32_t> unit_lengths_;
  double avg_unit_length_ = 0.0;
};

}  // namespace xontorank

#endif  // XONTORANK_IR_TEXT_INDEX_H_
