#include "core/index_builder.h"

#include <algorithm>
#include <thread>

#include "common/check.h"
#include "common/timer.h"
#include "core/elem_rank.h"
#include "core/node_text.h"
#include "ir/tokenizer.h"

namespace xontorank {

DocumentUnits::DocumentUnits(const Corpus& corpus, size_t doc,
                             const OntologySet& systems,
                             const IndexBuildOptions& options)
    : text_(options.score.bm25) {
  const XmlDocument& document = corpus[doc];
  if (document.root() != nullptr) {
    const auto& excluded = DefaultExcludedAttributes();
    uint32_t unit = 0;
    document.root()->Visit([&](const XmlNode& node) {
      if (!node.is_element()) return;
      text_.AddUnit(unit, TextualDescription(node, excluded));
      deweys_.push_back(document.DeweyIdOf(node));
      if (node.onto_ref().has_value()) {
        size_t system = systems.FindSystem(node.onto_ref()->system);
        if (system != OntologySet::npos) {
          ConceptId c =
              systems.system(system).FindByCode(node.onto_ref()->code);
          if (c != kInvalidConcept) {
            code_units_.push_back({unit, static_cast<uint32_t>(system), c});
          }
        }
      }
      ++unit;
    });
  }
  text_.Finalize();
  if (options.use_elem_rank) {
    // ElemRank numbers elements in the same preorder as the units above.
    Corpus one;
    one.Add(corpus.handle(doc));
    ElemRank rank(one, options.elem_rank);
    XO_CHECK_EQ(rank.size(), deweys_.size());
    elem_ranks_.reserve(rank.size());
    for (uint32_t unit = 0; unit < rank.size(); ++unit) {
      elem_ranks_.push_back(rank.rank(unit));
    }
  }
}

namespace {

/// Resolves global unit ids to node addresses through the stage-1 records
/// (`base` holds each record's first global unit, then the unit count).
/// Walking units in order, a lookup within the current record is one
/// bounds check.
class UnitAddresses {
 public:
  UnitAddresses(
      const std::vector<std::shared_ptr<const DocumentUnits>>& documents,
      const std::vector<uint32_t>& base)
      : documents_(documents), base_(base) {}

  DeweyRef operator()(uint32_t unit) {
    if (unit < begin_ || unit >= end_) Seek(unit);
    return DeweyRef(deweys_[unit - begin_]);
  }

 private:
  void Seek(uint32_t unit) {
    while (unit < base_[record_]) --record_;
    while (unit >= base_[record_ + 1]) ++record_;
    begin_ = base_[record_];
    end_ = base_[record_ + 1];
    deweys_ = documents_[record_]->deweys().data();
  }

  const std::vector<std::shared_ptr<const DocumentUnits>>& documents_;
  const std::vector<uint32_t>& base_;
  size_t record_ = 0;
  uint32_t begin_ = 0;  ///< the current record's global unit range
  uint32_t end_ = 0;
  const DeweyId* deweys_ = nullptr;  ///< the current record's addresses
};

/// Stage 1 over `corpus`: each document is its own BM25 collection (one
/// record per document), so posting scores are invariant under any
/// document → segment grouping.
std::vector<std::shared_ptr<const DocumentUnits>> IndexDocuments(
    const Corpus& corpus, const OntologySet& systems,
    const IndexBuildOptions& options) {
  std::vector<std::shared_ptr<const DocumentUnits>> documents;
  documents.reserve(corpus.size());
  for (size_t d = 0; d < corpus.size(); ++d) {
    documents.push_back(
        std::make_shared<const DocumentUnits>(corpus, d, systems, options));
  }
  return documents;
}

}  // namespace

CorpusIndex::CorpusIndex(const Corpus& corpus,
                         std::shared_ptr<const OntologyContext> context,
                         IndexBuildOptions options, FlatDil adopted)
    : corpus_(&corpus), context_(std::move(context)), options_(options) {
  XO_CHECK(context_ != nullptr && "an ontology context is required");
  Timer timer;
  documents_ = IndexDocuments(corpus, context_->systems(), options_);
  Init(std::move(adopted));
  stats_.build_millis = timer.ElapsedMillis();
}

CorpusIndex::CorpusIndex(
    const Corpus& corpus,
    std::vector<std::shared_ptr<const DocumentUnits>> documents,
    std::shared_ptr<const OntologyContext> context, IndexBuildOptions options,
    FlatDil adopted, DemandLists demand)
    : corpus_(&corpus),
      context_(std::move(context)),
      options_(options),
      documents_(std::move(documents)) {
  XO_CHECK(documents_.size() == corpus.size() &&
           "stage-1 records are per document");
  Timer timer;
  Init(std::move(adopted));
  {
    MutexLock lock(demand_mutex_);
    demand_ = std::move(demand);
  }
  stats_.build_millis = timer.ElapsedMillis();
}

CorpusIndex::CorpusIndex(const Corpus& corpus, OntologySet systems,
                         IndexBuildOptions options)
    : CorpusIndex(corpus, OntologyContext::Create(std::move(systems), options),
                  options) {}

void CorpusIndex::Init(FlatDil adopted) {
  XO_CHECK(context_ != nullptr && "an ontology context is required");
  XO_CHECK(context_->strategy() == options_.strategy &&
           "context was created for a different strategy");
  size_t code_units = 0;
  for (const auto& document : documents_) {
    code_units += document->code_units().size();
  }
  record_base_.reserve(documents_.size() + 1);
  code_units_.reserve(code_units);
  uint32_t units = 0;
  for (const auto& document : documents_) {
    record_base_.push_back(units);
    for (const CodeUnit& code_unit : document->code_units()) {
      code_units_.push_back(
          {units + code_unit.unit, code_unit.system, code_unit.concept_id});
    }
    units += static_cast<uint32_t>(document->unit_count());
  }
  record_base_.push_back(units);
  if (adopted.keyword_count() > 0) {
    flat_ = std::move(adopted);
  } else {
    Precompute();
  }
  stats_.documents = corpus_->size();
  stats_.indexed_nodes = units;
  stats_.code_nodes = code_units;
  stats_.precomputed_keywords = flat_.keyword_count();
  stats_.total_postings = flat_.total_postings();
}

std::vector<ScoredUnit> CorpusIndex::LookupUnits(const Keyword& keyword) const {
  std::vector<ScoredUnit> units;
  for (size_t r = 0; r < documents_.size(); ++r) {
    for (const ScoredUnit& unit : documents_[r]->text().Lookup(keyword)) {
      units.push_back({record_base_[r] + unit.unit_id, unit.score});
    }
  }
  return units;
}

std::vector<std::string> CorpusIndex::CorpusVocabulary() const {
  std::vector<std::string> vocab;
  for (const auto& document : documents_) {
    std::vector<std::string> part = document->text().Vocabulary();
    vocab.insert(vocab.end(), part.begin(), part.end());
  }
  std::sort(vocab.begin(), vocab.end());
  vocab.erase(std::unique(vocab.begin(), vocab.end()), vocab.end());
  return vocab;
}

void CorpusIndex::Precompute() {
  if (options_.vocabulary_mode == IndexBuildOptions::VocabularyMode::kNone) {
    return;
  }
  // Vocabulary = corpus tokens, optionally united with ontology tokens.
  std::vector<std::string> vocab = CorpusVocabulary();
  if (options_.vocabulary_mode ==
      IndexBuildOptions::VocabularyMode::kCorpusAndOntology) {
    for (size_t s = 0; s < context_->systems().size(); ++s) {
      std::vector<std::string> onto_vocab = context_->index(s).Vocabulary();
      vocab.insert(vocab.end(), onto_vocab.begin(), onto_vocab.end());
    }
    std::sort(vocab.begin(), vocab.end());
    vocab.erase(std::unique(vocab.begin(), vocab.end()), vocab.end());
  }
  size_t num_threads = options_.num_threads == 0
                           ? std::max(1u, std::thread::hardware_concurrency())
                           : options_.num_threads;
  num_threads = std::min(num_threads, vocab.size() == 0 ? 1 : vocab.size());

  // Each keyword's list lands in its vocabulary slot (workers claim slots
  // round-robin), so the result is bit-identical for any thread count.
  // Slots are then ordered by canonical keyword and frozen in one pass.
  std::vector<UnitList> lists(vocab.size());
  auto build_slot = [this, &vocab, &lists](size_t i) {
    Keyword kw = MakeKeyword(vocab[i]);
    if (kw.tokens.empty()) return;
    lists[i].first = kw.Canonical();
    lists[i].second = ScoreUnitsCached(kw);
  };
  if (num_threads <= 1) {
    for (size_t i = 0; i < vocab.size(); ++i) build_slot(i);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(num_threads);
    for (size_t t = 0; t < num_threads; ++t) {
      workers.emplace_back([t, num_threads, &vocab, &build_slot]() {
        for (size_t i = t; i < vocab.size(); i += num_threads) build_slot(i);
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  // Tokens with no keyword form leave an empty slot (a real keyword's
  // canonical form is never empty); distinct tokens that canonicalize
  // alike produce identical lists, so keeping one of them is exact.
  std::erase_if(lists, [](const UnitList& list) { return list.first.empty(); });
  std::sort(lists.begin(), lists.end(),
            [](const UnitList& a, const UnitList& b) {
              return a.first < b.first;
            });
  lists.erase(std::unique(lists.begin(), lists.end(),
                          [](const UnitList& a, const UnitList& b) {
                            return a.first == b.first;
                          }),
              lists.end());
  flat_ = FreezeLists(lists);
}

OntoScoreMap CorpusIndex::ComputeOntoScoreRow(const Keyword& keyword,
                                              size_t system) const {
  return ComputeOntoScores(context_->index(system), keyword,
                           options_.strategy, options_.score);
}

std::vector<CorpusIndex::UnitScore> CorpusIndex::ScoreUnits(
    const Keyword& keyword,
    const std::vector<OntoScoreRowCache::Row>& rows) const {
  // NS(w, v) = max(IRS(w, v), ω·OS(w, concept(v))), Eq. 5. Both components
  // are normalized to [0, 1] before combination. LookupUnits returns unit
  // order, and code_units_ is recorded in unit order, so the two
  // components are two sorted runs: merge them, then max-combine per unit.
  std::vector<UnitScore> units;
  for (const ScoredUnit& unit : LookupUnits(keyword)) {
    units.push_back({unit.unit_id, unit.score});
  }
  const size_t textual = units.size();

  // Ontological component, through the corpus's code nodes. Each system's
  // OntoScore row is applied to that system's code nodes.
  if (options_.strategy != Strategy::kXRank) {
    const double w = options_.score.ontology_weight;
    for (const CodeUnit& code_unit : code_units_) {
      if (code_unit.system >= rows.size()) continue;
      const OntoScoreRowCache::Row& row = rows[code_unit.system];
      if (row == nullptr) continue;
      auto it = row->find(code_unit.concept_id);
      if (it == row->end()) continue;
      units.push_back({code_unit.unit, w * it->second});
    }
  }

  std::inplace_merge(units.begin(),
                     units.begin() + static_cast<std::ptrdiff_t>(textual),
                     units.end(), [](const UnitScore& a, const UnitScore& b) {
                       return a.unit < b.unit;
                     });

  const double blend = options_.elem_rank_blend;
  size_t out = 0;
  size_t record = 0;  // the record holding best.unit, for its ElemRank
  for (size_t i = 0; i < units.size();) {
    UnitScore best = units[i];
    for (++i; i < units.size() && units[i].unit == best.unit; ++i) {
      best.score = std::max(best.score, units[i].score);
    }
    if (best.score <= 0.0) continue;
    if (options_.use_elem_rank) {
      while (best.unit >= record_base_[record + 1]) ++record;
      double rank = documents_[record]->elem_ranks()[best.unit -
                                                      record_base_[record]];
      best.score *= (1.0 - blend) + blend * rank;
    }
    units[out++] = best;
  }
  units.resize(out);
  return units;
}

std::vector<CorpusIndex::UnitScore> CorpusIndex::ScoreUnitsCached(
    const Keyword& keyword) const {
  std::vector<OntoScoreRowCache::Row> rows;
  if (options_.strategy != Strategy::kXRank) {
    for (size_t system = 0; system < context_->systems().size(); ++system) {
      rows.push_back(context_->GetRow(system, keyword));
    }
  }
  return ScoreUnits(keyword, rows);
}

FlatDil CorpusIndex::FreezeLists(const std::vector<UnitList>& lists) const {
  size_t postings = 0;
  size_t keyword_bytes = 0;
  size_t blocks = 0;
  size_t arena_words = 0;
  for (const auto& [canonical, units] : lists) {
    postings += units.size();
    keyword_bytes += canonical.size();
    blocks += (units.size() + FlatDil::kBlockPostings - 1) /
              FlatDil::kBlockPostings;
    UnitAddresses address(documents_, record_base_);
    arena_words += FlatDil::Builder::ArenaWords(
        units.size(),
        [&address, &units](size_t i) { return address(units[i].unit); });
  }
  FlatDil::Builder builder(lists.size(), postings, keyword_bytes, blocks,
                           arena_words);
  UnitAddresses address(documents_, record_base_);
  for (const auto& [canonical, units] : lists) {
    XO_CHECK(builder.BeginList(canonical));
    for (const UnitScore& u : units) {
      DeweyRef dewey = address(u.unit);
      XO_CHECK(builder.AddPosting(
          std::span<const uint32_t>(dewey.data(), dewey.size()), u.score));
    }
  }
  FlatDil dil = std::move(builder).Finish();
  XO_CHECK_EQ(dil.total_postings(), postings);
  XO_CHECK_EQ(dil.TotalBlocks(), blocks);
  XO_CHECK_EQ(dil.sections().dewey_arena.size(), arena_words);
  return dil;
}

std::vector<DilPosting> CorpusIndex::BuildPostings(
    const Keyword& keyword) const {
  std::vector<OntoScoreRowCache::Row> rows;
  if (options_.strategy != Strategy::kXRank) {
    for (size_t system = 0; system < context_->systems().size(); ++system) {
      rows.push_back(std::make_shared<const OntoScoreMap>(
          ComputeOntoScoreRow(keyword, system)));
    }
  }
  std::vector<DilPosting> postings;
  UnitAddresses address(documents_, record_base_);
  for (const UnitScore& u : ScoreUnits(keyword, rows)) {
    postings.push_back({address(u.unit).ToDeweyId(), u.score});
  }
  return postings;
}

DilListRef CorpusIndex::GetListRef(const Keyword& keyword) const {
  auto [dil, list] = ResolveList(keyword);
  return DilListRef::OverFlat(*dil, list);
}

std::pair<const FlatDil*, uint32_t> CorpusIndex::ResolveList(
    const Keyword& keyword) const {
  std::string canonical = keyword.Canonical();
  uint32_t list = flat_.FindList(canonical);
  if (list != FlatDil::kNoList) return {&flat_, list};
  return {DemandList(keyword, canonical), 0};
}

namespace {

/// The one-list dil every demand lookup that matches nothing resolves to.
/// Leaked on purpose: list refs into it may be read during static
/// destruction, like refs into any index.
const FlatDil& EmptyList() {
  static const FlatDil* const empty = [] {
    FlatDil::Builder builder(1, 0);
    XO_CHECK(builder.BeginList(""));
    // xo-lint: allow(new-delete) — leaked singleton, see above.
    return new FlatDil(std::move(builder).Finish());
  }();
  return *empty;
}

}  // namespace

const FlatDil* CorpusIndex::DemandList(const Keyword& keyword,
                                       const std::string& canonical) const {
  {
    MutexLock lock(demand_mutex_);
    auto it = demand_.find(canonical);
    if (it != demand_.end()) {
      return it->second != nullptr ? it->second.get() : &EmptyList();
    }
  }
  // Build outside the lock (the expensive part is read-only); a racing
  // thread may build the same list, in which case the first insert wins
  // and the duplicate work is discarded.
  std::unique_ptr<const FlatDil> built;
  std::vector<UnitList> lists(1);
  lists[0].second = ScoreUnitsCached(keyword);
  if (!lists[0].second.empty()) {
    lists[0].first = canonical;
    built = std::make_unique<const FlatDil>(FreezeLists(lists));
  }
  MutexLock lock(demand_mutex_);
  auto it = demand_.try_emplace(canonical, std::move(built)).first;
  return it->second != nullptr ? it->second.get() : &EmptyList();
}

const DilEntry* CorpusIndex::GetEntry(const Keyword& keyword) const {
  std::string canonical = keyword.Canonical();
  {
    MutexLock lock(demand_mutex_);
    if (const DilEntry* entry = thawed_.Find(canonical)) return entry;
  }
  // Thawed postings are bit-identical to the served list (scores are
  // stored as full doubles). As in DemandList, a racing duplicate thaw is
  // discarded.
  auto [dil, list] = ResolveList(keyword);
  std::vector<DilPosting> postings = dil->ThawPostings(list);
  MutexLock lock(demand_mutex_);
  if (const DilEntry* entry = thawed_.Find(canonical)) return entry;
  thawed_.Put(canonical, std::move(postings));
  return thawed_.Find(canonical);
}

CorpusIndex::NodeSupport CorpusIndex::ComputeNodeSupport(
    const DeweyId& dewey, const Keyword& keyword) const {
  NodeSupport support;
  // Each record's node addresses ascend (units are assigned in document
  // order), so the unit id can be recovered by binary search.
  uint32_t unit = 0;
  bool found = false;
  for (size_t r = 0; r < documents_.size() && !found; ++r) {
    const std::vector<DeweyId>& deweys = documents_[r]->deweys();
    auto it = std::lower_bound(deweys.begin(), deweys.end(), dewey);
    if (it != deweys.end() && *it == dewey) {
      unit = record_base_[r] + static_cast<uint32_t>(it - deweys.begin());
      found = true;
    }
  }
  if (!found) return support;

  for (const ScoredUnit& scored : LookupUnits(keyword)) {
    if (scored.unit_id == unit) {
      support.textual_irs = scored.score;
      break;
    }
  }
  for (const CodeUnit& code_unit : code_units_) {
    if (code_unit.unit != unit) continue;
    support.is_code_node = true;
    support.system = code_unit.system;
    support.concept_id = code_unit.concept_id;
    if (options_.strategy != Strategy::kXRank) {
      OntoScoreMap row = ComputeOntoScoreRow(keyword, code_unit.system);
      auto score_it = row.find(code_unit.concept_id);
      if (score_it != row.end()) support.onto_score = score_it->second;
    }
    break;
  }
  return support;
}

std::vector<std::string> CorpusIndex::PrecomputedVocabulary() const {
  std::vector<std::string> out;
  out.reserve(flat_.keyword_count());
  for (uint32_t l = 0; l < flat_.keyword_count(); ++l) {
    out.emplace_back(flat_.KeywordAt(l));
  }
  return out;
}

std::vector<std::string> CorpusIndex::DemandKeywords() const {
  std::vector<std::string> keywords;
  MutexLock lock(demand_mutex_);
  keywords.reserve(demand_.size());
  for (const auto& [kw, dil] : demand_) keywords.push_back(kw);
  return keywords;
}

size_t CorpusIndex::TotalPostings() const {
  size_t demand_postings = 0;
  {
    MutexLock lock(demand_mutex_);
    for (const auto& [kw, dil] : demand_) {
      if (dil != nullptr) demand_postings += dil->total_postings();
    }
  }
  return flat_.total_postings() + demand_postings;
}

}  // namespace xontorank
