#include "ir/text_index.h"

#include <algorithm>

#include "common/check.h"

namespace xontorank {

void TextIndex::AddUnit(uint32_t unit_id, std::string_view text) {
  XO_CHECK(!finalized_ && "AddUnit after Finalize");
  uint32_t& length = unit_lengths_[unit_id];  // creates entry if absent
  uint32_t raw_tokens = 0;
  std::vector<PositionedToken> tokens =
      TokenizeWithPositions(text, tokenizer_, &raw_tokens);
  for (PositionedToken& tok : tokens) {
    PostingList& list = postings_[tok.token];
    if (list.empty() || list.back().unit_id != unit_id) {
      // Units are commonly added in ascending order, making this an append;
      // out-of-order additions are fixed up in Finalize().
      list.push_back({unit_id, {}});
    }
    list.back().positions.push_back(length + tok.position);
  }
  // Advance by the RAW token count: a dropped trailing token (number,
  // stopword) still occupies a position, so tokens of the next segment can
  // never become falsely phrase-adjacent to this one.
  length += raw_tokens;
}

void TextIndex::Reopen() {
  XO_CHECK(finalized_ && "Reopen only applies to a finalized index");
  finalized_ = false;
}

void TextIndex::Finalize() {
  XO_CHECK(!finalized_);
  for (auto& [term, list] : postings_) {
    std::sort(list.begin(), list.end(),
              [](const Posting& a, const Posting& b) {
                return a.unit_id < b.unit_id;
              });
    // Merge duplicate unit entries produced by out-of-order AddUnit calls.
    PostingList merged;
    for (Posting& p : list) {
      if (!merged.empty() && merged.back().unit_id == p.unit_id) {
        merged.back().positions.insert(merged.back().positions.end(),
                                       p.positions.begin(), p.positions.end());
      } else {
        merged.push_back(std::move(p));
      }
    }
    for (Posting& p : merged) {
      std::sort(p.positions.begin(), p.positions.end());
    }
    list = std::move(merged);
  }
  double total = 0.0;
  for (const auto& [unit, len] : unit_lengths_) total += len;
  avg_unit_length_ =
      unit_lengths_.empty() ? 0.0 : total / static_cast<double>(unit_lengths_.size());
  finalized_ = true;
}

const TextIndex::PostingList* TextIndex::FindPostings(
    std::string_view token) const {
  auto it = postings_.find(token);
  return it == postings_.end() ? nullptr : &it->second;
}

std::vector<std::pair<uint32_t, uint32_t>> TextIndex::MatchCounts(
    const Keyword& keyword) const {
  XO_CHECK(finalized_ && "Lookup before Finalize");
  std::vector<std::pair<uint32_t, uint32_t>> counts;
  if (keyword.tokens.empty()) return counts;

  if (!keyword.is_phrase()) {
    const PostingList* list = FindPostings(keyword.tokens[0]);
    if (list == nullptr) return counts;
    counts.reserve(list->size());
    for (const Posting& p : *list) {
      counts.emplace_back(p.unit_id, static_cast<uint32_t>(p.positions.size()));
    }
    return counts;
  }

  // Phrase: intersect posting lists, then count adjacent position chains.
  std::vector<const PostingList*> lists;
  lists.reserve(keyword.tokens.size());
  for (const std::string& token : keyword.tokens) {
    const PostingList* list = FindPostings(token);
    if (list == nullptr) return counts;
    lists.push_back(list);
  }
  // Galloping would be overkill; a k-way pointer walk over sorted lists.
  std::vector<size_t> cursor(lists.size(), 0);
  while (true) {
    // Find the max current unit across all cursors.
    uint32_t target = 0;
    bool done = false;
    for (size_t i = 0; i < lists.size(); ++i) {
      if (cursor[i] >= lists[i]->size()) {
        done = true;
        break;
      }
      target = std::max(target, (*lists[i])[cursor[i]].unit_id);
    }
    if (done) break;
    // Advance every cursor to >= target.
    bool aligned = true;
    for (size_t i = 0; i < lists.size(); ++i) {
      while (cursor[i] < lists[i]->size() &&
             (*lists[i])[cursor[i]].unit_id < target) {
        ++cursor[i];
      }
      if (cursor[i] >= lists[i]->size() ||
          (*lists[i])[cursor[i]].unit_id != target) {
        aligned = false;
      }
    }
    if (cursor[0] >= lists[0]->size()) break;
    if (!aligned) continue;
    // All lists point at `target`; count phrase occurrences.
    uint32_t phrase_count = 0;
    const std::vector<uint32_t>& first = (*lists[0])[cursor[0]].positions;
    for (uint32_t pos : first) {
      bool chain = true;
      for (size_t i = 1; i < lists.size(); ++i) {
        const std::vector<uint32_t>& positions =
            (*lists[i])[cursor[i]].positions;
        if (!std::binary_search(positions.begin(), positions.end(),
                                pos + static_cast<uint32_t>(i))) {
          chain = false;
          break;
        }
      }
      if (chain) ++phrase_count;
    }
    if (phrase_count > 0) counts.emplace_back(target, phrase_count);
    for (size_t i = 0; i < lists.size(); ++i) ++cursor[i];
  }
  return counts;
}

std::vector<ScoredUnit> TextIndex::Lookup(const Keyword& keyword) const {
  std::vector<std::pair<uint32_t, uint32_t>> counts = MatchCounts(keyword);
  std::vector<ScoredUnit> out;
  if (counts.empty()) return out;
  const size_t df = counts.size();
  out.reserve(df);
  double max_score = 0.0;
  for (const auto& [unit, tf] : counts) {
    auto len_it = unit_lengths_.find(unit);
    size_t len = len_it == unit_lengths_.end() ? 0 : len_it->second;
    double score =
        Bm25TermScore(tf, df, unit_lengths_.size(), len, avg_unit_length_,
                      params_);
    out.push_back({unit, score});
    max_score = std::max(max_score, score);
  }
  if (max_score > 0.0) {
    for (ScoredUnit& s : out) s.score /= max_score;
  }
  return out;
}

double TextIndex::RawScore(uint32_t unit_id, const Keyword& keyword) const {
  std::vector<std::pair<uint32_t, uint32_t>> counts = MatchCounts(keyword);
  for (const auto& [unit, tf] : counts) {
    if (unit != unit_id) continue;
    auto len_it = unit_lengths_.find(unit);
    size_t len = len_it == unit_lengths_.end() ? 0 : len_it->second;
    return Bm25TermScore(tf, counts.size(), unit_lengths_.size(), len,
                         avg_unit_length_, params_);
  }
  return 0.0;
}

std::vector<std::string> TextIndex::Vocabulary() const {
  std::vector<std::string> terms;
  terms.reserve(postings_.size());
  for (const auto& [term, list] : postings_) terms.push_back(term);
  std::sort(terms.begin(), terms.end());
  return terms;
}

bool TextIndex::ContainsTerm(std::string_view token) const {
  return postings_.find(token) != postings_.end();
}

}  // namespace xontorank
