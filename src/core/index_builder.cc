#include "core/index_builder.h"

#include <algorithm>
#include <thread>

#include "common/check.h"
#include "common/timer.h"
#include "core/node_text.h"
#include "ir/tokenizer.h"

namespace xontorank {

CorpusIndex::CorpusIndex(const Corpus& corpus,
                         std::shared_ptr<const OntologyContext> context,
                         IndexBuildOptions options, XOntoDil adopted)
    : CorpusIndex(corpus, std::move(context), options,
                  adopted.keyword_count() > 0 ? adopted.Freeze() : FlatDil{}) {}

CorpusIndex::CorpusIndex(const Corpus& corpus,
                         std::shared_ptr<const OntologyContext> context,
                         IndexBuildOptions options, FlatDil adopted)
    : corpus_(&corpus),
      context_(std::move(context)),
      options_(options),
      node_index_(options.score.bm25) {
  XO_CHECK(context_ != nullptr && "an ontology context is required");
  XO_CHECK(context_->strategy() == options_.strategy &&
           "context was created for a different strategy");
  XO_CHECK(!(options_.lsm.enabled && options_.use_elem_rank) &&
           "ElemRank is corpus-normalized, so its scores are not invariant "
           "under document->segment grouping; disable it in LSM mode");
  Timer timer;
  IndexCorpus();
  if (options_.use_elem_rank) {
    elem_rank_ = std::make_unique<ElemRank>(corpus, options_.elem_rank);
  }
  if (adopted.keyword_count() > 0) {
    flat_ = std::move(adopted);
  } else {
    Precompute();
  }
  stats_.build_millis = timer.ElapsedMillis();
  stats_.documents = corpus.size();
  stats_.precomputed_keywords = flat_.keyword_count();
  stats_.total_postings = flat_.total_postings();
}

CorpusIndex::CorpusIndex(const Corpus& corpus, OntologySet systems,
                         IndexBuildOptions options)
    : CorpusIndex(corpus, OntologyContext::Create(std::move(systems), options),
                  options) {}

void CorpusIndex::IndexCorpus() {
  const auto& excluded = DefaultExcludedAttributes();
  const OntologySet& systems = context_->systems();
  // LSM mode scores each document against its own BM25 statistics (one
  // TextIndex per document) so posting scores are invariant under any
  // document → segment grouping; legacy mode keeps the corpus-global
  // collection. Unit ids are global either way.
  const bool doc_scoped = options_.lsm.enabled;
  uint32_t unit = 0;
  for (const XmlDocument& doc : *corpus_) {
    TextIndex* sink = &node_index_;
    if (doc_scoped) {
      doc_indexes_.emplace_back(options_.score.bm25);
      sink = &doc_indexes_.back();
    }
    if (doc.root() == nullptr) {
      if (doc_scoped) sink->Finalize();
      continue;
    }
    doc.root()->Visit([&](const XmlNode& node) {
      if (!node.is_element()) return;
      sink->AddUnit(unit, TextualDescription(node, excluded));
      unit_deweys_.push_back(doc.DeweyIdOf(node));
      if (node.onto_ref().has_value()) {
        size_t system = systems.FindSystem(node.onto_ref()->system);
        if (system != OntologySet::npos) {
          ConceptId c =
              systems.system(system).FindByCode(node.onto_ref()->code);
          if (c != kInvalidConcept) {
            code_units_.push_back(
                {unit, static_cast<uint32_t>(system), c});
            ++stats_.code_nodes;
          }
        }
      }
      ++unit;
    });
    if (doc_scoped) sink->Finalize();
  }
  if (!doc_scoped) node_index_.Finalize();
  stats_.indexed_nodes = unit;
}

std::vector<ScoredUnit> CorpusIndex::LookupUnits(const Keyword& keyword) const {
  if (!options_.lsm.enabled) return node_index_.Lookup(keyword);
  std::vector<ScoredUnit> units;
  for (const TextIndex& index : doc_indexes_) {
    std::vector<ScoredUnit> part = index.Lookup(keyword);
    units.insert(units.end(), part.begin(), part.end());
  }
  return units;
}

std::vector<std::string> CorpusIndex::CorpusVocabulary() const {
  if (!options_.lsm.enabled) return node_index_.Vocabulary();
  std::vector<std::string> vocab;
  for (const TextIndex& index : doc_indexes_) {
    std::vector<std::string> part = index.Vocabulary();
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
  for (size_t i = 0; i < units.size();) {
    UnitScore best = units[i];
    for (++i; i < units.size() && units[i].unit == best.unit; ++i) {
      best.score = std::max(best.score, units[i].score);
    }
    if (best.score <= 0.0) continue;
    if (elem_rank_ != nullptr) {
      best.score *= (1.0 - blend) + blend * elem_rank_->rank(best.unit);
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
    arena_words += FlatDil::Builder::ArenaWords(
        units.size(),
        [this, &units](size_t i) {
          return DeweyRef(unit_deweys_[units[i].unit]);
        });
  }
  FlatDil::Builder builder(lists.size(), postings, keyword_bytes, blocks,
                           arena_words);
  for (const auto& [canonical, units] : lists) {
    XO_CHECK(builder.BeginList(canonical));
    for (const UnitScore& u : units) {
      XO_CHECK(builder.AddPosting(unit_deweys_[u.unit].components(), u.score));
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
  for (const UnitScore& u : ScoreUnits(keyword, rows)) {
    postings.push_back({unit_deweys_[u.unit], u.score});
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
  // unit_deweys_ is ascending (units are assigned in document order), so
  // the unit id can be recovered by binary search.
  auto it = std::lower_bound(unit_deweys_.begin(), unit_deweys_.end(), dewey);
  if (it == unit_deweys_.end() || !(*it == dewey)) return support;
  uint32_t unit = static_cast<uint32_t>(it - unit_deweys_.begin());

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

XOntoDil CorpusIndex::MaterializedCopy() const {
  XOntoDil merged = flat_.ThawAll();
  MutexLock lock(demand_mutex_);
  for (const auto& [kw, dil] : demand_) {
    // Unmatched keywords persist as empty lists, so a reloaded index
    // resolves them without rebuilding.
    merged.Put(kw, dil != nullptr ? dil->ThawPostings(0)
                                  : std::vector<DilPosting>{});
  }
  return merged;
}

}  // namespace xontorank
