// Extension bench: ranked top-k evaluation (RDIL-style, with
// threshold-algorithm early termination) vs. the exhaustive DIL merge, as a
// function of k and corpus size. XRANK's RDIL motivates this trade-off:
// top-k queries shouldn't pay for the whole corpus.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/ranked_query_processor.h"
#include "eval/workload.h"

using namespace xontorank;

int main() {
  std::printf("RDIL — ranked vs. exhaustive top-k over the Table I workload "
              "(ms/query, fraction of documents evaluated)\n\n");
  std::printf("%10s %6s %16s %14s %16s\n", "documents", "k", "exhaustive",
              "ranked", "docs evaluated");
  bench::PrintRule(70);

  for (size_t docs : {25, 100, 250}) {
    bench::ExperimentSetup setup(docs, /*seed=*/11);
    IndexBuildOptions options;
    options.strategy = Strategy::kRelationships;
    options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
    XOntoRank engine(setup.generator->GenerateCorpus(), setup.search_ontology,
                     options);

    // Materialize the workload lists once (both processors share them).
    // The engine is built over its whole corpus, so it serves one segment.
    auto snap = engine.snapshot();
    const CorpusIndex& index = snap->segments().front()->index();
    std::vector<std::vector<const DilEntry*>> query_lists;
    for (const WorkloadQuery& wq : TableOneQueries()) {
      KeywordQuery query = ParseQuery(wq.text);
      std::vector<const DilEntry*> lists;
      for (const Keyword& kw : query.keywords) {
        lists.push_back(index.GetEntry(kw));
      }
      query_lists.push_back(std::move(lists));
    }

    QueryProcessor exhaustive(options.score);
    RankedQueryProcessor ranked(options.score);
    constexpr int kReps = 20;
    for (size_t k : {size_t{1}, size_t{10}}) {
      Timer ex_timer;
      for (int rep = 0; rep < kReps; ++rep) {
        for (const auto& lists : query_lists) exhaustive.Execute(lists, k);
      }
      double ex_ms =
          ex_timer.ElapsedMillis() / (kReps * query_lists.size());

      double evaluated = 0.0, total = 0.0;
      Timer rk_timer;
      for (int rep = 0; rep < kReps; ++rep) {
        for (const auto& lists : query_lists) {
          RankedQueryStats stats;
          ranked.Execute(lists, k, &stats);
          if (rep == 0) {
            evaluated += static_cast<double>(stats.documents_processed);
            total += static_cast<double>(stats.documents_total);
          }
        }
      }
      double rk_ms =
          rk_timer.ElapsedMillis() / (kReps * query_lists.size());

      std::printf("%10zu %6zu %16.4f %14.4f %15.0f%%\n", docs, k, ex_ms,
                  rk_ms, total > 0 ? 100.0 * evaluated / total : 0.0);
    }
  }
  std::printf(
      "\nShape: ranked evaluation skips a quarter or more of the candidate "
      "documents but does not yet beat "
      "the single linear merge at these corpus sizes — the exhaustive pass "
      "is cache-friendly and NS score distributions are top-heavy, so the "
      "threshold drops slowly. The early-termination machinery pays off for "
      "selective queries over much larger collections (XRANK reports the "
      "same RDIL trade-off).\n");
  return 0;
}
