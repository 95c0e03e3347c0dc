// Reproduces Figure 11: average query execution time for keyword queries
// with a varying number of keywords (1–4), one series per approach, over a
// warm index (the DIL entries are materialized before timing, matching the
// paper's preprocessing/query phase split).
//
// Paper shape to reproduce: execution time grows with keyword count, and
// the Relationships series sits highest (more ontologically related nodes
// per keyword → longer inverted lists to merge).
//
// A second section splits a cold keyword's first use on a lazy engine
// (VocabularyMode::kNone: 400 documents, the fragment plus 3,000 generated
// concepts, Relationships — the perfbench fig11-lazy configuration) into
// its two phases: the OntoScore settle (OntologyContext::GetRow, Algorithm
// 1) and the demand build of its XOnto-DIL (CorpusIndex::GetListRef once
// the row is cached), over every distinct keyword of the 140-query cold
// set. It also times the settle alone at 30,320 concepts on a sample of
// those keywords.
//
// A third section times the warm merge on that lazy engine: per keyword
// count, the 30 Fig. 11 queries once cold, then the best of 15 warm
// passes, reporting postings scored and documents skipped per query (top
// 10, block-max pruning) and the merge's nanoseconds per scored posting
// (QueryStats::merge_micros over postings_scored).
//
// Usage: bench_fig11_query_time [--smoke | --warm]
//   --warm   runs the warm-merge section only.
//   --smoke  no timing: on 40 documents, checks every cold-set keyword's
//            demand-built list against the eager build's list, posting by
//            posting (reference::ReadList), and exits nonzero on any
//            difference.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/index_segment.h"
#include "eval/workload.h"
#include "tests/reference_eval.h"

using namespace xontorank;

namespace {

constexpr size_t kQueriesPerLength = 30;
constexpr size_t kMaxKeywords = 4;
constexpr size_t kTopK = 10;
constexpr int kRepetitions = 5;

// The cold-split configuration.
constexpr size_t kColdDocuments = 400;
constexpr size_t kExtraConcepts = 3000;
constexpr uint64_t kQuerySeed = 97;
constexpr int kColdRuns = 3;
constexpr int kWarmPasses = 15;
/// Synthetic concepts of the settle-only scale point (30,320 concepts).
constexpr size_t kScaleExtraConcepts = 30000;
/// Every n-th cold keyword is settled at the scale point.
constexpr size_t kScaleSampleStride = 8;
constexpr size_t kSmokeDocuments = 40;

void RunFigure11() {
  // SNOMED-scale ontology (see bench_util.h) so inverted-list lengths track
  // the paper's per-strategy ordering.
  bench::ExperimentSetup setup(/*num_documents=*/40, /*seed=*/11,
                               kExtraConcepts);
  auto engines = setup.BuildEngines();

  std::printf("FIGURE 11 — AVERAGE EXECUTION TIME (ms) FOR KEYWORD QUERIES "
              "WITH VARYING NUMBER OF KEYWORDS (top-%zu, %zu queries/point)\n\n",
              kTopK, kQueriesPerLength);
  std::printf("%-10s", "#keywords");
  for (Strategy s : kAllStrategies) {
    std::printf(" %13s", std::string(StrategyName(s)).c_str());
  }
  std::printf("\n");
  bench::PrintRule(68);

  for (size_t k = 1; k <= kMaxKeywords; ++k) {
    std::vector<KeywordQuery> queries;
    for (const WorkloadQuery& wq :
         FixedLengthQueries(setup.ontology, k, kQueriesPerLength, kQuerySeed)) {
      queries.push_back(ParseQuery(wq.text));
    }
    std::printf("%-10zu", k);
    for (auto& engine : engines) {
      // Warm-up: materialize DIL entries (preprocessing phase work).
      for (const KeywordQuery& q : queries) {
        engine->Search(q, bench::TimedSearch(kTopK));
      }
      Timer timer;
      for (int rep = 0; rep < kRepetitions; ++rep) {
        for (const KeywordQuery& q : queries) {
          engine->Search(q, bench::TimedSearch(kTopK));
        }
      }
      double avg_ms = timer.ElapsedMillis() /
                      static_cast<double>(kRepetitions * queries.size());
      std::printf(" %13.4f", avg_ms);
    }
    std::printf("\n");
  }
}

/// The distinct keywords of the 140-query cold set (Table I, the extended
/// expert queries, then 30 Fig. 11 queries of each length), in order of
/// first appearance.
std::vector<Keyword> ColdKeywords(const Ontology& ontology) {
  std::vector<WorkloadQuery> queries = TableOneQueries();
  for (const WorkloadQuery& q : ExtendedExpertQueries()) queries.push_back(q);
  for (size_t k = 1; k <= kMaxKeywords; ++k) {
    for (const WorkloadQuery& q :
         FixedLengthQueries(ontology, k, kQueriesPerLength, kQuerySeed)) {
      queries.push_back(q);
    }
  }
  std::vector<Keyword> keywords;
  std::set<std::string> seen;
  for (const WorkloadQuery& q : queries) {
    for (Keyword& keyword : ParseQuery(q.text).keywords) {
      if (seen.insert(keyword.Canonical()).second) {
        keywords.push_back(std::move(keyword));
      }
    }
  }
  return keywords;
}

IndexBuildOptions LazyOptions() {
  IndexBuildOptions options;
  options.strategy = Strategy::kRelationships;
  options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
  return options;
}

void RunColdSplit() {
  bench::ExperimentSetup setup(kColdDocuments, /*seed=*/11, kExtraConcepts);
  const std::vector<Keyword> keywords = ColdKeywords(setup.ontology);
  std::printf("\nCOLD KEYWORDS — first use on a lazy engine (%zu documents, "
              "%zu concepts, Relationships, %zu distinct cold-set keywords)\n"
              "\n",
              kColdDocuments, setup.search_ontology.concept_count(),
              keywords.size());
  std::printf("%-6s %16s %20s %18s %13s\n", "run", "settle ms/kw",
              "demand build ms/kw", "postings/list", "ns/posting");
  bench::PrintRule(77);
  for (int run = 1; run <= kColdRuns; ++run) {
    XOntoRank engine(setup.generator->GenerateCorpus(), setup.search_ontology,
                     LazyOptions());
    const auto snapshot = engine.snapshot();
    double settle_ms = 0.0;
    double build_ms = 0.0;
    size_t postings = 0;
    for (const Keyword& keyword : keywords) {
      Timer timer;
      snapshot->context()->GetRow(0, keyword);
      settle_ms += timer.ElapsedMillis();
      timer.Reset();
      for (const auto& segment : snapshot->segments()) {
        postings += segment->index().GetListRef(keyword).size();
      }
      build_ms += timer.ElapsedMillis();
    }
    const auto n = static_cast<double>(keywords.size());
    std::printf("%-6d %16.3f %20.3f %18.0f %13.1f\n", run, settle_ms / n,
                build_ms / n, static_cast<double>(postings) / n,
                postings == 0 ? 0.0
                              : build_ms * 1e6 / static_cast<double>(postings));
  }

  // The settle alone at ontology scale (ROADMAP item 7's 30,320 concepts).
  Ontology scale = BuildSnomedCardiologyFragment(false);
  OntologyGeneratorOptions extend;
  extend.num_concepts = kScaleExtraConcepts;
  extend.seed = 13;
  ExtendOntology(scale, extend);
  auto context = OntologyContext::Create(scale, LazyOptions());
  size_t settled = 0;
  Timer timer;
  for (size_t k = 0; k < keywords.size(); k += kScaleSampleStride) {
    context->GetRow(0, keywords[k]);
    ++settled;
  }
  std::printf("\nsettle at %zu concepts: %.3f ms/kw over %zu sampled "
              "keywords\n",
              scale.concept_count(),
              timer.ElapsedMillis() / static_cast<double>(settled), settled);
}

/// The warm merge on the lazy engine, per keyword count.
void RunWarmMerge() {
  bench::ExperimentSetup setup(kColdDocuments, /*seed=*/11, kExtraConcepts);
  XOntoRank engine(setup.generator->GenerateCorpus(), setup.search_ontology,
                   LazyOptions());
  std::printf("\nWARM MERGE — lazy engine (%zu documents, %zu concepts, "
              "Relationships), top-%zu block-max, %zu queries/point, best of "
              "%d passes\n\n",
              kColdDocuments, setup.search_ontology.concept_count(), kTopK,
              kQueriesPerLength, kWarmPasses);
  std::printf("%-10s %16s %15s %15s %11s %14s\n", "#keywords",
              "scored/query", "docs skipped/q", "merge ms/query", "ns/posting",
              "M postings/s");
  bench::PrintRule(86);
  const SearchOptions options = bench::TimedSearch(kTopK);
  for (size_t k = 1; k <= kMaxKeywords; ++k) {
    std::vector<KeywordQuery> queries;
    for (const WorkloadQuery& wq :
         FixedLengthQueries(setup.ontology, k, kQueriesPerLength, kQuerySeed)) {
      queries.push_back(ParseQuery(wq.text));
    }
    for (const KeywordQuery& q : queries) engine.Search(q, options);  // cold
    double best_merge_us = HUGE_VAL;
    size_t scored = 0;
    size_t docs_skipped = 0;
    for (int pass = 0; pass < kWarmPasses; ++pass) {
      double merge_us = 0.0;
      scored = 0;
      docs_skipped = 0;
      for (const KeywordQuery& q : queries) {
        const QueryStats stats = engine.Search(q, options).stats;
        merge_us += stats.merge_micros;
        scored += stats.postings_scored;
        docs_skipped += stats.docs_skipped;
      }
      best_merge_us = std::min(best_merge_us, merge_us);
    }
    const auto n = static_cast<double>(queries.size());
    const double ns_per_posting =
        scored == 0 ? 0.0 : best_merge_us * 1e3 / static_cast<double>(scored);
    std::printf("%-10zu %16.0f %15.1f %15.4f %11.1f %14.2f\n", k,
                static_cast<double>(scored) / n,
                static_cast<double>(docs_skipped) / n, best_merge_us / n / 1e3,
                ns_per_posting,
                ns_per_posting == 0.0 ? 0.0 : 1e3 / ns_per_posting);
  }
}

/// Every cold-set keyword's demand-built list (lazy engine) must equal the
/// eager build's list for it, segment by segment, bit for bit.
int RunSmoke() {
  bench::ExperimentSetup setup(kSmokeDocuments, /*seed=*/11, kExtraConcepts);
  const std::vector<Keyword> keywords = ColdKeywords(setup.ontology);
  IndexBuildOptions eager_options = LazyOptions();
  eager_options.vocabulary_mode =
      IndexBuildOptions::VocabularyMode::kCorpusAndOntology;
  XOntoRank lazy(setup.generator->GenerateCorpus(), setup.search_ontology,
                 LazyOptions());
  XOntoRank eager(setup.generator->GenerateCorpus(), setup.search_ontology,
                  eager_options);
  const auto lazy_snapshot = lazy.snapshot();
  const auto eager_snapshot = eager.snapshot();
  if (lazy_snapshot->segments().size() != eager_snapshot->segments().size()) {
    std::printf("FAIL: segment counts differ\n");
    return 1;
  }
  size_t postings = 0;
  size_t precomputed = 0;
  int failures = 0;
  for (const Keyword& keyword : keywords) {
    for (size_t s = 0; s < lazy_snapshot->segments().size(); ++s) {
      const CorpusIndex& lazy_index = lazy_snapshot->segments()[s]->index();
      const CorpusIndex& eager_index = eager_snapshot->segments()[s]->index();
      const DilListRef demand = lazy_index.GetListRef(keyword);
      const DilListRef built = eager_index.GetListRef(keyword);
      precomputed += built.flat == &eager_index.flat_dil() ? 1 : 0;
      const std::vector<reference::Posting> got =
          reference::ReadList(*demand.flat, demand.list);
      const std::vector<reference::Posting> want =
          reference::ReadList(*built.flat, built.list);
      bool same = got.size() == want.size();
      for (size_t i = 0; same && i < got.size(); ++i) {
        same = got[i].dewey == want[i].dewey &&
               std::memcmp(&got[i].score, &want[i].score,
                           sizeof(double)) == 0;
      }
      if (!same && ++failures <= 5) {
        std::printf("FAIL: \"%s\" segment %zu: demand list (%zu postings) "
                    "differs from the eager list (%zu postings)\n",
                    keyword.Canonical().c_str(), s, got.size(), want.size());
      }
      postings += want.size();
    }
  }
  std::printf("bench_fig11_query_time --smoke: %zu cold keywords (%zu "
              "precomputed by the eager build), %zu postings compared, %d "
              "mismatches\n",
              keywords.size(), precomputed, postings, failures);
  return failures == 0 && precomputed > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return RunSmoke();
  if (argc > 1 && std::strcmp(argv[1], "--warm") == 0) {
    RunWarmMerge();
    return 0;
  }
  RunFigure11();
  RunColdSplit();
  RunWarmMerge();
  return 0;
}
