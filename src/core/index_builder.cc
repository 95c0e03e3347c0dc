#include "core/index_builder.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <ranges>
#include <span>

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/elem_rank.h"
#include "core/node_text.h"
#include "ir/tokenizer.h"

namespace xontorank {

namespace {

/// Visits `node`'s subtree in preorder with `path` holding the visited
/// node's Dewey components (the caller seeds it with the doc id, which is
/// the root's whole address): a child's address is its parent's plus its
/// ordinal, so the walk keeps one path instead of a DeweyId per node.
template <typename Fn>
void VisitWithPath(const XmlNode& node, std::vector<uint32_t>& path,
                   const Fn& fn) {
  fn(node, path);
  for (XmlNode child : node.children()) {
    path.push_back(child.ordinal());
    VisitWithPath(child, path, fn);
    path.pop_back();
  }
}

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
    return document_->dewey(unit - begin_);
  }

 private:
  void Seek(uint32_t unit) {
    while (unit < base_[record_]) --record_;
    while (unit >= base_[record_ + 1]) ++record_;
    begin_ = base_[record_];
    end_ = base_[record_ + 1];
    document_ = documents_[record_].get();
  }

  const std::vector<std::shared_ptr<const DocumentUnits>>& documents_;
  const std::vector<uint32_t>& base_;
  size_t record_ = 0;
  uint32_t begin_ = 0;  ///< the current record's global unit range
  uint32_t end_ = 0;
  const DocumentUnits* document_ = nullptr;  ///< the current record
};

// The eager build's grains: the least work one chunk carries, taken from
// what that work costs, so a small build (a single-document seal) stays one
// inline chunk and a large one splits into many more chunks than workers,
// which ParallelFor's dynamic claiming then balances.
/// Stage 1: documents per chunk (about 0.5 ms each at the generator's
/// document size).
constexpr size_t kStageOneDocsPerChunk = 8;
/// Scoring: keyword × document probes per chunk (a probe — one record's
/// text lookup plus its share of the code-unit scan — costs about 1.5 µs).
constexpr size_t kScoreProbesPerChunk = 8192;
/// Freeze: postings per chunk (a few tens of ns each).
constexpr size_t kFreezePostingsPerChunk = size_t{1} << 16;

/// Cuts [0, n) into contiguous chunks of at least `grain` work each (the
/// last may hold less), item i costing cost(i). Returns the chunk bounds:
/// each chunk's first item, then n.
template <typename CostFn>
std::vector<size_t> ChunkBounds(size_t n, size_t grain, const CostFn& cost) {
  std::vector<size_t> bounds{0};
  size_t work = 0;
  for (size_t i = 0; i < n; ++i) {
    work += cost(i);
    if (work >= grain && i + 1 < n) {
      bounds.push_back(i + 1);
      work = 0;
    }
  }
  bounds.push_back(n);
  return bounds;
}

/// Runs body(chunk, begin, end) for every chunk of `bounds`: on `pool`
/// (a lone chunk runs inline there too), or serially without one.
void RunChunks(ThreadPool* pool, const std::vector<size_t>& bounds,
               const std::function<void(size_t, size_t, size_t)>& body) {
  const size_t chunks = bounds.size() - 1;
  auto run = [&bounds, &body](size_t c) { body(c, bounds[c], bounds[c + 1]); };
  if (pool == nullptr) {
    for (size_t c = 0; c < chunks; ++c) run(c);
  } else {
    pool->ParallelFor(chunks, run);
  }
}

/// Stage 1 over `corpus`: each document is its own BM25 collection (one
/// record per document), so posting scores are invariant under any
/// document → segment grouping — and under any chunking of the build.
/// With `vocabularies`, each chunk also leaves its documents' vocabulary
/// there, sorted and unique.
std::vector<std::shared_ptr<const DocumentUnits>> IndexDocuments(
    const Corpus& corpus, const OntologySet& systems,
    const IndexBuildOptions& options, ThreadPool* pool,
    std::vector<std::vector<std::string>>* vocabularies) {
  std::vector<std::shared_ptr<const DocumentUnits>> documents(corpus.size());
  const std::vector<size_t> bounds = ChunkBounds(
      corpus.size(), kStageOneDocsPerChunk, [](size_t) { return 1; });
  if (vocabularies != nullptr) vocabularies->assign(bounds.size() - 1, {});
  RunChunks(pool, bounds, [&](size_t chunk, size_t begin, size_t end) {
    for (size_t d = begin; d < end; ++d) {
      documents[d] =
          std::make_shared<const DocumentUnits>(corpus, d, systems, options);
      if (vocabularies != nullptr) {
        std::vector<std::string> part = documents[d]->text().Vocabulary();
        std::vector<std::string>& vocab = (*vocabularies)[chunk];
        vocab.insert(vocab.end(), std::make_move_iterator(part.begin()),
                     std::make_move_iterator(part.end()));
      }
    }
    if (vocabularies != nullptr) {
      std::vector<std::string>& vocab = (*vocabularies)[chunk];
      std::sort(vocab.begin(), vocab.end());
      vocab.erase(std::unique(vocab.begin(), vocab.end()), vocab.end());
    }
  });
  return documents;
}

}  // namespace

DocumentUnits::DocumentUnits(const Corpus& corpus, size_t doc,
                             const OntologySet& systems,
                             const IndexBuildOptions& options)
    : text_(options.score.bm25) {
  const XmlDocument& document = corpus[doc];
  if (document.root()) {
    const auto& excluded = DefaultExcludedAttributes();
    uint32_t unit = 0;
    auto add_unit = [&](const XmlNode& node,
                        const std::vector<uint32_t>& address) {
      if (!node.is_element()) return;
      text_.AddUnit(unit, TextualDescription(node, excluded));
      dewey_arena_.insert(dewey_arena_.end(), address.begin(), address.end());
      dewey_offsets_.push_back(static_cast<uint32_t>(dewey_arena_.size()));
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
    };
    std::vector<uint32_t> path{document.doc_id()};
    VisitWithPath(document.root(), path, add_unit);
  }
  text_.Finalize();
  dewey_arena_.shrink_to_fit();
  dewey_offsets_.shrink_to_fit();
  if (options.use_elem_rank) {
    // ElemRank numbers elements in the same preorder as the units above.
    Corpus one;
    one.Add(corpus.handle(doc));
    ElemRank rank(one);
    XO_CHECK_EQ(rank.size(), unit_count());
    elem_ranks_.reserve(rank.size());
    for (uint32_t unit = 0; unit < rank.size(); ++unit) {
      elem_ranks_.push_back(rank.rank(unit));
    }
  }
}

CorpusIndex::CorpusIndex(const Corpus& corpus,
                         std::shared_ptr<const OntologyContext> context,
                         IndexBuildOptions options)
    : corpus_(&corpus), context_(std::move(context)), options_(options) {
  Timer timer;
  CheckContext();
  // The eager build runs on the shared pool. The lazy stage 1 of an
  // adopted index, the one-list demand builds and compaction stay serial:
  // they run on query threads or inside the compactor's pool task.
  ThreadPool& pool = ThreadPool::Shared();
  const bool precompute =
      options_.vocabulary_mode != IndexBuildOptions::VocabularyMode::kNone;
  std::vector<std::vector<std::string>> vocabularies;
  std::call_once(records_once_, [&] {
    BuildRecords(&pool, precompute ? &vocabularies : nullptr);
  });
  stats_.stage1_millis = timer.ElapsedMillis();
  if (precompute) Precompute(std::move(vocabularies), pool);
  FinishStats(timer.ElapsedMillis());
}

CorpusIndex::CorpusIndex(const Corpus& corpus,
                         std::shared_ptr<const OntologyContext> context,
                         IndexBuildOptions options, FlatDil adopted)
    : corpus_(&corpus),
      context_(std::move(context)),
      options_(options),
      flat_(std::move(adopted)) {
  Timer timer;
  CheckContext();
  FinishStats(timer.ElapsedMillis());
}

CorpusIndex::CorpusIndex(
    const Corpus& corpus,
    std::vector<std::shared_ptr<const DocumentUnits>> documents,
    std::shared_ptr<const OntologyContext> context, IndexBuildOptions options,
    FlatDil adopted, DemandLists demand)
    : corpus_(&corpus),
      context_(std::move(context)),
      options_(options),
      records_{std::move(documents), {}, {}},
      flat_(std::move(adopted)) {
  XO_CHECK(records_.documents.size() == corpus.size() &&
           "stage-1 records are per document");
  Timer timer;
  CheckContext();
  records();
  {
    MutexLock lock(demand_mutex_);
    demand_ = std::move(demand);
  }
  FinishStats(timer.ElapsedMillis());
}

CorpusIndex::CorpusIndex(const Corpus& corpus, OntologySet systems,
                         IndexBuildOptions options)
    : CorpusIndex(corpus, OntologyContext::Create(std::move(systems), options),
                  options) {}

void CorpusIndex::CheckContext() const {
  XO_CHECK(context_ != nullptr && "an ontology context is required");
  XO_CHECK(context_->strategy() == options_.strategy &&
           "context was created for a different strategy");
}

void CorpusIndex::FinishStats(double build_millis) {
  stats_.documents = corpus_->size();
  stats_.precomputed_keywords = flat_.keyword_count();
  stats_.total_postings = flat_.total_postings();
  stats_.build_millis = build_millis;
}

IndexBuildStats CorpusIndex::stats() const {
  const Records& records = this->records();
  IndexBuildStats stats = stats_;
  stats.indexed_nodes = records.base.back();
  stats.code_nodes = records.code_units.size();
  return stats;
}

const CorpusIndex::Records& CorpusIndex::records() const {
  std::call_once(records_once_,
                 [this] { BuildRecords(/*pool=*/nullptr, nullptr); });
  return records_;
}

void CorpusIndex::BuildRecords(
    ThreadPool* pool,
    std::vector<std::vector<std::string>>* vocabularies) const {
  Records& records = records_;
  if (records.documents.empty()) {
    records.documents = IndexDocuments(*corpus_, context_->systems(), options_,
                                       pool, vocabularies);
  }
  size_t code_units = 0;
  for (const auto& document : records.documents) {
    code_units += document->code_units().size();
  }
  records.base.reserve(records.documents.size() + 1);
  records.code_units.reserve(code_units);
  uint32_t units = 0;
  for (const auto& document : records.documents) {
    records.base.push_back(units);
    for (const CodeUnit& code_unit : document->code_units()) {
      records.code_units.push_back(
          {units + code_unit.unit, code_unit.system, code_unit.concept_id});
    }
    units += static_cast<uint32_t>(document->unit_count());
  }
  records.base.push_back(units);
}

void CorpusIndex::Precompute(
    std::vector<std::vector<std::string>> corpus_vocabularies,
    ThreadPool& pool) {
  Timer phase;
  // Vocabulary = corpus tokens, optionally united with ontology tokens
  // (sorted once, in the context). A lone chunk's part is sorted already.
  std::vector<std::string> vocab;
  for (std::vector<std::string>& part : corpus_vocabularies) {
    vocab.insert(vocab.end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
  }
  if (corpus_vocabularies.size() > 1) {
    std::sort(vocab.begin(), vocab.end());
    vocab.erase(std::unique(vocab.begin(), vocab.end()), vocab.end());
  }
  if (options_.vocabulary_mode ==
      IndexBuildOptions::VocabularyMode::kCorpusAndOntology) {
    const std::vector<std::string>& ontology = context_->vocabulary();
    std::vector<std::string> corpus = std::move(vocab);
    vocab.clear();
    vocab.reserve(corpus.size() + ontology.size());
    std::set_union(std::make_move_iterator(corpus.begin()),
                   std::make_move_iterator(corpus.end()), ontology.begin(),
                   ontology.end(), std::back_inserter(vocab));
  }
  stats_.vocabulary_millis = phase.ElapsedMillis();

  // Each keyword's list lands in its vocabulary slot, so the result does
  // not depend on how the chunks are scheduled. A keyword costs one probe
  // per record.
  phase.Reset();
  std::vector<UnitList> lists(vocab.size());
  const size_t probes = std::max<size_t>(1, records().documents.size());
  RunChunks(&pool,
            ChunkBounds(vocab.size(), kScoreProbesPerChunk,
                        [probes](size_t) { return probes; }),
            [this, &vocab, &lists](size_t, size_t begin, size_t end) {
              for (size_t i = begin; i < end; ++i) {
                Keyword kw = MakeKeyword(vocab[i]);
                if (kw.tokens.empty()) continue;
                lists[i] = ScoreUnits(kw);
                lists[i].canonical = kw.Canonical();
              }
            });
  stats_.score_millis = phase.ElapsedMillis();

  // Tokens with no keyword form leave an empty slot (a real keyword's
  // canonical form is never empty); distinct tokens that canonicalize
  // alike produce identical lists, so keeping one of them is exact.
  phase.Reset();
  std::erase_if(lists,
                [](const UnitList& list) { return list.canonical.empty(); });
  std::sort(lists.begin(), lists.end(),
            [](const UnitList& a, const UnitList& b) {
              return a.canonical < b.canonical;
            });
  lists.erase(std::unique(lists.begin(), lists.end(),
                          [](const UnitList& a, const UnitList& b) {
                            return a.canonical == b.canonical;
                          }),
              lists.end());
  flat_ = FreezeLists(lists, &pool);
  stats_.freeze_millis = phase.ElapsedMillis();
}

CorpusIndex::UnitList CorpusIndex::ScoreUnits(const Keyword& keyword) const {
  // NS(w, v) = max(IRS(w, v), ω·OS(w, concept(v))), Eq. 5. Both components
  // are normalized to [0, 1] before combination. Per record, the textual
  // matches and the code units are two runs sorted by unit: one walk
  // merges them, max-combining a unit present in both (max is exact in any
  // order), drops scores <= 0, applies ElemRank and measures the frozen
  // list's shape. One dense OntoScore row per system, none under XRANK.
  std::vector<OntoScoreRowCache::Row> rows;
  if (options_.strategy != Strategy::kXRank) {
    for (size_t system = 0; system < context_->systems().size(); ++system) {
      rows.push_back(context_->GetRow(system, keyword));
    }
  }
  // A code node's OntoScore is one load from its system's row; a system
  // the keyword does not reach has no row (and contributes 0).
  std::vector<const double*> os_rows;
  for (const OntoScoreRowCache::Row& row : rows) {
    os_rows.push_back(row->empty() ? nullptr : row->data());
  }
  const bool reaches = std::ranges::any_of(
      os_rows, [](const double* row) { return row != nullptr; });
  const double w = options_.score.ontology_weight;
  const double blend = options_.elem_rank_blend;

  // The list is built in scratch and copied out exactly sized: Precompute
  // keeps every keyword's list until the freeze. (Per-thread scratch would
  // keep each pool worker's largest list alive for good; that raised peak
  // RSS by 5-9% on the eager perfbench workloads.)
  std::vector<ScoredUnit> text;
  std::vector<UnitScore> units;
  FlatDil::Builder::ListShape shape;
  DeweyRef prev;
  const Records& records = this->records();
  for (size_t r = 0; r < records.documents.size(); ++r) {
    const DocumentUnits& record = *records.documents[r];
    text.clear();
    record.text().AppendLookup(keyword, 0, &text);
    const std::span<const CodeUnit> code =
        reaches ? std::span<const CodeUnit>(record.code_units())
                : std::span<const CodeUnit>();
    size_t t = 0;
    size_t c = 0;
    while (t < text.size() || c < code.size()) {
      uint32_t unit;
      double score;
      if (c == code.size() ||
          (t < text.size() && text[t].unit_id < code[c].unit)) {
        unit = text[t].unit_id;
        score = text[t++].score;
      } else {
        const CodeUnit& code_unit = code[c++];
        const double* row = os_rows[code_unit.system];
        unit = code_unit.unit;
        score = row == nullptr ? 0.0 : w * row[code_unit.concept_id];
        if (t < text.size() && text[t].unit_id == unit) {
          score = std::max(text[t++].score, score);
        }
      }
      if (score <= 0.0) continue;
      if (options_.use_elem_rank) {
        score *= (1.0 - blend) + blend * record.elem_ranks()[unit];
      }
      units.push_back({records.base[r] + unit, score});
      const DeweyRef id = record.dewey(unit);
      shape.Add(prev, id);
      prev = id;
    }
  }
  UnitList list;
  list.units.assign(units.begin(), units.end());
  list.arena_words = shape.arena_words;
  return list;
}

FlatDil CorpusIndex::FreezeLists(const std::vector<UnitList>& lists,
                                 ThreadPool* pool) const {
  std::vector<FlatDil::Builder::ListShape> shapes(lists.size());
  for (size_t l = 0; l < lists.size(); ++l) {
    shapes[l].keyword = lists[l].canonical;
    shapes[l].postings = lists[l].units.size();
    shapes[l].arena_words = lists[l].arena_words;
  }
  FlatDil::Builder builder(shapes);
  const Records& records = this->records();
  RunChunks(pool,
            ChunkBounds(lists.size(), kFreezePostingsPerChunk,
                        [&lists](size_t l) { return lists[l].units.size(); }),
            [&](size_t, size_t begin, size_t end) {
              UnitAddresses address(records.documents, records.base);
              for (size_t l = begin; l < end; ++l) {
                FlatDil::Builder::ListWriter writer = builder.List(l);
                for (const UnitScore& u : lists[l].units) {
                  const DeweyRef dewey = address(u.unit);
                  XO_CHECK(writer.AddPosting(
                      std::span<const uint32_t>(dewey.data(), dewey.size()),
                      u.score));
                }
              }
            });
  return std::move(builder).Finish();
}

DilListRef CorpusIndex::GetListRef(const Keyword& keyword,
                                   size_t* lists_built) const {
  auto [dil, list] = ResolveList(keyword, lists_built);
  return DilListRef::OverFlat(*dil, list);
}

std::pair<const FlatDil*, uint32_t> CorpusIndex::ResolveList(
    const Keyword& keyword, size_t* lists_built) const {
  std::string canonical = keyword.Canonical();
  uint32_t list = flat_.FindList(canonical);
  if (list != FlatDil::kNoList) return {&flat_, list};
  return {DemandList(keyword, canonical, lists_built), 0};
}

namespace {

/// The one-list dil every demand lookup that matches nothing resolves to.
/// Leaked on purpose: list refs into it may be read during static
/// destruction, like refs into any index.
const FlatDil& EmptyList() {
  static const FlatDil* const empty = [] {
    const FlatDil::Builder::ListShape shape;
    FlatDil::Builder builder(std::span(&shape, 1));
    // xo-lint: allow(new-delete) — leaked singleton, see above.
    return new FlatDil(std::move(builder).Finish());
  }();
  return *empty;
}

}  // namespace

const FlatDil* CorpusIndex::DemandList(const Keyword& keyword,
                                       const std::string& canonical,
                                       size_t* lists_built) const {
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
  if (lists_built != nullptr) ++*lists_built;
  std::unique_ptr<const FlatDil> built;
  std::vector<UnitList> lists{ScoreUnits(keyword)};
  if (!lists[0].units.empty()) {
    lists[0].canonical = canonical;
    built = std::make_unique<const FlatDil>(FreezeLists(lists, nullptr));
  }
  MutexLock lock(demand_mutex_);
  auto it = demand_.try_emplace(canonical, std::move(built)).first;
  return it->second != nullptr ? it->second.get() : &EmptyList();
}

CorpusIndex::NodeSupport CorpusIndex::ComputeNodeSupport(
    const DeweyId& dewey, const Keyword& keyword) const {
  NodeSupport support;
  const Records& records = this->records();
  // Each record's node addresses ascend (units are assigned in document
  // order), so the unit id can be recovered by binary search.
  const DeweyRef target(dewey);
  size_t record = 0;
  uint32_t local = 0;
  for (; record < records.documents.size(); ++record) {
    const DocumentUnits& document = *records.documents[record];
    auto units = std::views::iota(
        uint32_t{0}, static_cast<uint32_t>(document.unit_count()));
    auto it = std::ranges::lower_bound(
        units, target, std::less<>(),
        [&document](uint32_t u) { return document.dewey(u); });
    if (it != units.end() && document.dewey(*it) == target) {
      local = *it;
      break;
    }
  }
  if (record == records.documents.size()) return support;

  // The IRS comes from the owning record's own BM25 collection.
  for (const ScoredUnit& scored :
       records.documents[record]->text().Lookup(keyword)) {
    if (scored.unit_id == local) {
      support.textual_irs = scored.score;
      break;
    }
  }
  const uint32_t unit = records.base[record] + local;
  auto code_unit = std::lower_bound(
      records.code_units.begin(), records.code_units.end(), unit,
      [](const CodeUnit& a, uint32_t u) { return a.unit < u; });
  if (code_unit != records.code_units.end() && code_unit->unit == unit) {
    support.is_code_node = true;
    support.system = code_unit->system;
    support.concept_id = code_unit->concept_id;
    if (options_.strategy != Strategy::kXRank) {
      // The same cached dense row stage 3 reads.
      OntoScoreRowCache::Row row = context_->GetRow(code_unit->system, keyword);
      if (!row->empty()) support.onto_score = (*row)[code_unit->concept_id];
    }
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
