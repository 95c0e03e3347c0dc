#include "ir/text_index.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <tuple>

#include "common/check.h"

namespace xontorank {

namespace {

/// unit_lengths_ entry of an id that was never added (build state only).
constexpr uint32_t kNoUnit = UINT32_MAX;

}  // namespace

void TextIndex::AddUnit(uint32_t unit_id, std::string_view text) {
  XO_CHECK(!finalized_ && "AddUnit after Finalize");
  if (unit_id >= unit_lengths_.size()) {
    unit_lengths_.resize(size_t{unit_id} + 1, kNoUnit);
  }
  uint32_t& length = unit_lengths_[unit_id];
  if (length == kNoUnit) {
    length = 0;
    ++unit_count_;
  }
  uint32_t raw_tokens = 0;
  std::vector<PositionedToken> tokens =
      TokenizeWithPositions(text, tokenizer_, &raw_tokens);
  for (PositionedToken& tok : tokens) {
    auto it = term_ids_.find(std::string_view(tok.token));
    if (it == term_ids_.end()) {
      const auto id = static_cast<uint32_t>(term_ids_.size());
      it = term_ids_.emplace(std::move(tok.token), id).first;
    }
    occurrences_.push_back({it->second, unit_id, length + tok.position});
  }
  // Advance by the RAW token count: a dropped trailing token (number,
  // stopword) still occupies a position, so tokens of the next segment can
  // never become falsely phrase-adjacent to this one.
  length += raw_tokens;
}

void TextIndex::Finalize() {
  XO_CHECK(!finalized_);
  // Sorted term order: rank[id] is interned term id's place in it.
  const size_t terms = term_ids_.size();
  std::vector<const std::string*> spelling(terms);
  for (const auto& [term, id] : term_ids_) spelling[id] = &term;
  std::vector<uint32_t> order(terms);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&spelling](uint32_t a, uint32_t b) {
    return *spelling[a] < *spelling[b];
  });
  std::vector<uint32_t> rank(terms);
  size_t chars = 0;
  for (uint32_t r = 0; r < terms; ++r) {
    rank[order[r]] = r;
    chars += spelling[order[r]]->size();
  }
  term_arena_.reserve(chars);
  term_offsets_.reserve(terms + 1);
  term_offsets_.push_back(0);
  term_filter_.assign(
      std::bit_ceil(std::max<size_t>(
          1, (terms * kFilterBitsPerTerm + 63) / 64)),
      0);
  for (uint32_t id : order) {
    term_arena_.insert(term_arena_.end(), spelling[id]->begin(),
                       spelling[id]->end());
    term_offsets_.push_back(static_cast<uint32_t>(term_arena_.size()));
    const uint64_t hash = std::hash<std::string_view>{}(*spelling[id]);
    term_filter_[FilterWord(hash)] |= FilterMask(hash);
  }

  // Counting sort of the occurrences by term rank. It is stable, so each
  // term's run keeps the order of the AddUnit calls: ascending by (unit,
  // position) unless units were added out of order, in which case the
  // run is sorted here.
  const size_t n = occurrences_.size();
  std::vector<uint32_t> run_begin(terms + 1, 0);
  for (const Occurrence& occ : occurrences_) ++run_begin[rank[occ.term] + 1];
  std::partial_sum(run_begin.begin(), run_begin.end(), run_begin.begin());
  std::vector<uint32_t> units(n);
  positions_.resize(n);
  {
    std::vector<uint32_t> cursor(run_begin.begin(), run_begin.end() - 1);
    for (const Occurrence& occ : occurrences_) {
      const uint32_t at = cursor[rank[occ.term]]++;
      units[at] = occ.unit;
      positions_[at] = occ.position;
    }
  }
  // Assigning `{}` would keep the storage; move-assign fresh objects.
  occurrences_ = std::vector<Occurrence>();
  term_ids_ = decltype(term_ids_)();
  size_t postings = 0;
  for (size_t t = 0; t < terms; ++t) {
    const uint32_t begin = run_begin[t];
    const uint32_t end = run_begin[t + 1];
    bool sorted = true;
    for (uint32_t i = begin + 1; i < end && sorted; ++i) {
      sorted = units[i - 1] != units[i] ? units[i - 1] < units[i]
                                        : positions_[i - 1] < positions_[i];
    }
    if (!sorted) {
      std::vector<std::pair<uint32_t, uint32_t>> run;
      run.reserve(end - begin);
      for (uint32_t i = begin; i < end; ++i) {
        run.emplace_back(units[i], positions_[i]);
      }
      std::sort(run.begin(), run.end());
      for (uint32_t i = begin; i < end; ++i) {
        units[i] = run[i - begin].first;
        positions_[i] = run[i - begin].second;
      }
    }
    for (uint32_t i = begin; i < end; ++i) {
      if (i == begin || units[i] != units[i - 1]) ++postings;
    }
  }

  // One posting per (term, unit) run.
  term_postings_.reserve(terms + 1);
  posting_units_.reserve(postings);
  posting_positions_.reserve(postings + 1);
  for (size_t t = 0; t < terms; ++t) {
    term_postings_.push_back(static_cast<uint32_t>(posting_units_.size()));
    for (uint32_t i = run_begin[t]; i < run_begin[t + 1]; ++i) {
      if (i == run_begin[t] || units[i] != units[i - 1]) {
        posting_units_.push_back(units[i]);
        posting_positions_.push_back(i);
      }
    }
  }
  term_postings_.push_back(static_cast<uint32_t>(posting_units_.size()));
  posting_positions_.push_back(static_cast<uint32_t>(n));

  // Collection statistics: N counts every unit added, avgdl is the exact
  // integer length sum over N.
  uint64_t total = 0;
  for (uint32_t& length : unit_lengths_) {
    if (length == kNoUnit) length = 0;
    total += length;
  }
  unit_lengths_.shrink_to_fit();
  avg_unit_length_ = unit_count_ == 0 ? 0.0
                                      : static_cast<double>(total) /
                                            static_cast<double>(unit_count_);
  finalized_ = true;
}

bool TextIndex::MayContain(std::string_view token) const {
  const uint64_t hash = std::hash<std::string_view>{}(token);
  const uint64_t mask = FilterMask(hash);
  return (term_filter_[FilterWord(hash)] & mask) == mask;
}

std::pair<uint32_t, uint32_t> TextIndex::FindPostings(
    std::string_view token) const {
  if (!MayContain(token)) return {0, 0};
  size_t lo = 0;
  size_t hi = term_postings_.size() - 1;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (Term(mid) < token) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == term_postings_.size() - 1 || Term(lo) != token) return {0, 0};
  return {term_postings_[lo], term_postings_[lo + 1]};
}

void TextIndex::AppendPhraseCounts(const Keyword& keyword,
                                   std::vector<ScoredUnit>* out) const {
  // Intersect the tokens' posting ranges, then count adjacent position
  // chains in every unit they share.
  const size_t k = keyword.tokens.size();
  std::vector<uint32_t> cursor(k);
  std::vector<uint32_t> end(k);
  for (size_t i = 0; i < k; ++i) {
    std::tie(cursor[i], end[i]) = FindPostings(keyword.tokens[i]);
    if (cursor[i] == end[i]) return;
  }
  // A k-way walk over the sorted unit ranges.
  while (true) {
    // Find the max current unit across all cursors.
    uint32_t target = 0;
    for (size_t i = 0; i < k; ++i) {
      if (cursor[i] == end[i]) return;
      target = std::max(target, posting_units_[cursor[i]]);
    }
    // Advance every cursor to >= target.
    bool aligned = true;
    for (size_t i = 0; i < k; ++i) {
      while (cursor[i] < end[i] && posting_units_[cursor[i]] < target) {
        ++cursor[i];
      }
      if (cursor[i] == end[i] || posting_units_[cursor[i]] != target) {
        aligned = false;
      }
    }
    if (!aligned) continue;
    // All ranges point at `target`; count phrase occurrences.
    uint32_t phrase_count = 0;
    for (uint32_t p = posting_positions_[cursor[0]];
         p < posting_positions_[cursor[0] + 1]; ++p) {
      bool chain = true;
      for (size_t i = 1; i < k && chain; ++i) {
        const uint32_t* first =
            positions_.data() + posting_positions_[cursor[i]];
        const uint32_t* last =
            positions_.data() + posting_positions_[cursor[i] + 1];
        chain = std::binary_search(first, last,
                                   positions_[p] + static_cast<uint32_t>(i));
      }
      if (chain) ++phrase_count;
    }
    if (phrase_count > 0) {
      out->push_back({target, static_cast<double>(phrase_count)});
    }
    for (size_t i = 0; i < k; ++i) ++cursor[i];
  }
}

void TextIndex::AppendLookup(const Keyword& keyword, uint32_t unit_base,
                             std::vector<ScoredUnit>* out) const {
  XO_CHECK(finalized_ && "Lookup before Finalize");
  if (keyword.tokens.empty()) return;
  // First every matching unit with its term frequency (in the score
  // field), then, with df known, the BM25 scores in place.
  const size_t first = out->size();
  if (keyword.is_phrase()) {
    AppendPhraseCounts(keyword, out);
  } else {
    const auto [begin, end] = FindPostings(keyword.tokens[0]);
    for (uint32_t p = begin; p < end; ++p) {
      out->push_back(
          {posting_units_[p], static_cast<double>(TermFrequency(p))});
    }
  }
  const size_t df = out->size() - first;
  double max_score = 0.0;
  for (size_t i = first; i < out->size(); ++i) {
    ScoredUnit& unit = (*out)[i];
    unit.score = Bm25TermScore(static_cast<size_t>(unit.score), df,
                               unit_count_, unit_lengths_[unit.unit_id],
                               avg_unit_length_, params_);
    max_score = std::max(max_score, unit.score);
  }
  for (size_t i = first; i < out->size(); ++i) {
    ScoredUnit& unit = (*out)[i];
    if (max_score > 0.0) unit.score /= max_score;
    unit.unit_id += unit_base;
  }
}

std::vector<ScoredUnit> TextIndex::Lookup(const Keyword& keyword) const {
  std::vector<ScoredUnit> out;
  AppendLookup(keyword, 0, &out);
  return out;
}

std::vector<std::string> TextIndex::Vocabulary() const {
  XO_CHECK(finalized_);
  std::vector<std::string> terms;
  terms.reserve(term_count());
  for (size_t t = 0; t < term_count(); ++t) terms.emplace_back(Term(t));
  return terms;
}

bool TextIndex::ContainsTerm(std::string_view token) const {
  XO_CHECK(finalized_);
  const auto [begin, end] = FindPostings(token);
  return begin != end;
}

size_t TextIndex::MemoryBytes() const {
  if (!finalized_) return 0;
  auto bytes = [](const auto& column) {
    return column.capacity() * sizeof(column[0]);
  };
  return bytes(term_arena_) + bytes(term_offsets_) + bytes(term_filter_) +
         bytes(term_postings_) + bytes(posting_units_) +
         bytes(posting_positions_) + bytes(positions_) +
         bytes(unit_lengths_);
}

}  // namespace xontorank
