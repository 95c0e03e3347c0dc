#include "core/index_segment.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"
#include "core/flat_dil.h"
#include "ir/query.h"

namespace xontorank {

std::shared_ptr<const IndexSegment> IndexSegment::Build(
    uint64_t id, std::shared_ptr<const Corpus> docs, uint32_t first_doc,
    std::shared_ptr<const OntologyContext> context,
    const IndexBuildOptions& options) {
  XO_CHECK(docs != nullptr);
  // xo-lint: allow(new-delete) — private ctor, unreachable by make_shared.
  auto segment = std::shared_ptr<IndexSegment>(new IndexSegment());
  segment->docs_ = std::move(docs);
  segment->index_ = std::make_unique<const CorpusIndex>(*segment->docs_,
                                                        std::move(context),
                                                        options);
  segment->id_ = id;
  segment->first_doc_ = first_doc;
  segment->end_doc_ =
      first_doc + static_cast<uint32_t>(segment->docs_->size());
  return segment;
}

std::shared_ptr<const IndexSegment> IndexSegment::Adopt(
    uint64_t id, std::shared_ptr<const Corpus> docs, uint32_t first_doc,
    std::shared_ptr<const OntologyContext> context,
    const IndexBuildOptions& options, FlatDil adopted,
    std::shared_ptr<const void> backing) {
  XO_CHECK(docs != nullptr);
  // xo-lint: allow(new-delete) — private ctor, unreachable by make_shared.
  auto segment = std::shared_ptr<IndexSegment>(new IndexSegment());
  segment->backing_ = std::move(backing);
  segment->docs_ = std::move(docs);
  segment->index_ = std::make_unique<const CorpusIndex>(
      *segment->docs_, std::move(context), options, std::move(adopted));
  segment->id_ = id;
  segment->first_doc_ = first_doc;
  segment->end_doc_ =
      first_doc + static_cast<uint32_t>(segment->docs_->size());
  return segment;
}

namespace {

/// The keyword whose canonical form is `canonical`: Keyword::Canonical
/// joins the tokens with single spaces, and no token contains one.
Keyword KeywordFromCanonical(std::string_view canonical) {
  Keyword keyword;
  for (std::string_view token : SplitString(canonical, ' ')) {
    keyword.tokens.emplace_back(token);
  }
  keyword.display = std::string(canonical);
  return keyword;
}

/// Concatenates, per keyword k (ascending), the lists
/// parts[k·n, (k+1)·n) in order into one FlatDil, n = parts / keywords.
/// A sizing pass over the same cursors first counts every column exactly,
/// so Builder::Finish copies nothing. The lists of one keyword must cover
/// ascending, disjoint document ranges, so concatenation keeps Dewey
/// order; the merged list's block restarts fall elsewhere than the
/// parts', so its arena words are counted over the decoded ids.
FlatDil ConcatLists(std::span<const std::string_view> keywords,
                    std::span<const DilListRef> parts) {
  const size_t n = keywords.empty() ? 0 : parts.size() / keywords.size();
  size_t postings = 0;
  size_t keyword_bytes = 0;
  size_t blocks = 0;
  size_t arena_words = 0;
  std::vector<uint32_t> prev;
  for (size_t k = 0; k < keywords.size(); ++k) {
    keyword_bytes += keywords[k].size();
    size_t in_list = 0;
    for (const DilListRef& part : parts.subspan(k * n, n)) {
      for (DilCursor c = part.OpenCursor(); !c.AtEnd(); c.Next(), ++in_list) {
        DeweyRef dewey = c.dewey();
        size_t shared =
            in_list % FlatDil::kBlockPostings == 0
                ? 0
                : CommonPrefixLength(DeweyRef(prev.data(), prev.size()),
                                     dewey);
        arena_words += dewey.size() - shared;
        prev.assign(dewey.data(), dewey.data() + dewey.size());
      }
    }
    postings += in_list;
    blocks += (in_list + FlatDil::kBlockPostings - 1) / FlatDil::kBlockPostings;
  }

  FlatDil::Builder builder(keywords.size(), postings, keyword_bytes, blocks,
                           arena_words);
  for (size_t k = 0; k < keywords.size(); ++k) {
    XO_CHECK(builder.BeginList(keywords[k]));
    for (const DilListRef& part : parts.subspan(k * n, n)) {
      for (DilCursor c = part.OpenCursor(); !c.AtEnd(); c.Next()) {
        DeweyRef dewey = c.dewey();
        XO_CHECK(builder.AddPosting(
            std::span<const uint32_t>(dewey.data(), dewey.size()), c.score()));
      }
    }
  }
  FlatDil dil = std::move(builder).Finish();
  XO_CHECK_EQ(dil.total_postings(), postings);
  XO_CHECK_EQ(dil.TotalBlocks(), blocks);
  XO_CHECK_EQ(dil.sections().dewey_arena.size(), arena_words);
  return dil;
}

}  // namespace

std::shared_ptr<const IndexSegment> MergeSegments(
    std::span<const std::shared_ptr<const IndexSegment>> inputs, uint64_t id,
    std::shared_ptr<const OntologyContext> context,
    const IndexBuildOptions& options) {
  XO_CHECK(!inputs.empty());
  auto docs = std::make_shared<Corpus>();
  std::vector<std::shared_ptr<const DocumentUnits>> documents;
  const uint32_t first_doc = inputs.front()->first_doc();
  uint32_t expect_doc = first_doc;
  for (const auto& input : inputs) {
    XO_CHECK(input->first_doc() == expect_doc &&
             "MergeSegments inputs must be adjacent in document order");
    expect_doc = input->end_doc();
    for (size_t d = 0; d < input->docs().size(); ++d) {
      docs->Add(input->docs().handle(d));
    }
    const auto& records = input->index().documents();
    documents.insert(documents.end(), records.begin(), records.end());
  }

  // The keyword union (a k-way walk over the inputs' sorted dictionaries)
  // and, per union keyword, each input's list for it: the precomputed one,
  // or the input's demand-built list where its vocabulary lacks the
  // keyword (see the header: under kCorpusOnly that list can hold
  // ontology-only postings). parts[k * n + i] is input i's list for
  // keywords[k]; inputs are adjacent ascending document ranges.
  const size_t n = inputs.size();
  std::vector<std::string_view> keywords;
  std::vector<DilListRef> parts;
  std::vector<uint32_t> pos(n, 0);
  while (true) {
    std::string_view keyword;
    bool any = false;
    for (size_t i = 0; i < n; ++i) {
      const FlatDil& dil = inputs[i]->index().flat_dil();
      if (pos[i] >= dil.keyword_count()) continue;
      std::string_view kw = dil.KeywordAt(pos[i]);
      if (!any || kw < keyword) {
        keyword = kw;
        any = true;
      }
    }
    if (!any) break;
    keywords.push_back(keyword);
    for (size_t i = 0; i < n; ++i) {
      const FlatDil& dil = inputs[i]->index().flat_dil();
      if (pos[i] < dil.keyword_count() && dil.KeywordAt(pos[i]) == keyword) {
        parts.push_back(DilListRef::OverFlat(dil, pos[i]++));
      } else {
        parts.push_back(
            inputs[i]->index().GetListRef(KeywordFromCanonical(keyword)));
      }
    }
  }

  FlatDil merged = ConcatLists(keywords, parts);

  // Demand-built lists carry over as well, so a merge does not cool the
  // demand cache: every keyword cached by some input gets the
  // concatenation of each input's list for it (an input that has not
  // built it yet builds it now, as a query would).
  std::vector<std::string> carried;
  for (const auto& input : inputs) {
    std::vector<std::string> cached = input->index().DemandKeywords();
    carried.insert(carried.end(), std::make_move_iterator(cached.begin()),
                   std::make_move_iterator(cached.end()));
  }
  std::sort(carried.begin(), carried.end());
  carried.erase(std::unique(carried.begin(), carried.end()), carried.end());
  CorpusIndex::DemandLists demand;
  for (const std::string& canonical : carried) {
    if (merged.FindList(canonical) != FlatDil::kNoList) continue;
    Keyword keyword = KeywordFromCanonical(canonical);
    std::vector<DilListRef> lists;
    size_t postings = 0;
    for (const auto& input : inputs) {
      lists.push_back(input->index().GetListRef(keyword));
      postings += lists.back().size();
    }
    std::unique_ptr<const FlatDil> list;
    if (postings > 0) {
      const std::string_view name = canonical;
      list = std::make_unique<const FlatDil>(
          ConcatLists(std::span(&name, 1), lists));
    }
    demand.emplace(canonical, std::move(list));
  }

  // xo-lint: allow(new-delete) — private ctor, unreachable by make_shared.
  auto segment = std::shared_ptr<IndexSegment>(new IndexSegment());
  segment->docs_ = std::move(docs);
  segment->index_ = std::make_unique<const CorpusIndex>(
      *segment->docs_, std::move(documents), std::move(context), options,
      std::move(merged), std::move(demand));
  segment->id_ = id;
  segment->first_doc_ = first_doc;
  segment->end_doc_ = expect_doc;
  return segment;
}

}  // namespace xontorank
