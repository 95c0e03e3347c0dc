// Comparator study (§VIII): query expansion vs. XOntoRank. The paper argues
// query expansion is inappropriate for keyword queries; this bench
// quantifies the trade-off on the Table I workload: result counts, oracle
// relevance and per-query latency for (a) the XRANK baseline, (b) the
// ontology-driven query-expansion engine, and (c) XOntoRank/Relationships.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/query_expansion.h"
#include "eval/relevance_oracle.h"
#include "eval/workload.h"

using namespace xontorank;

int main() {
  bench::ExperimentSetup setup(/*num_documents=*/40, /*seed=*/11);
  Corpus corpus = setup.generator->GenerateCorpus();

  IndexBuildOptions xrank_options;
  xrank_options.strategy = Strategy::kXRank;
  xrank_options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
  XOntoRank xrank(setup.generator->GenerateCorpus(), setup.search_ontology,
                  xrank_options);

  QueryExpansionEngine expansion(corpus, setup.search_ontology, {});

  IndexBuildOptions xo_options;
  xo_options.strategy = Strategy::kRelationships;
  xo_options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
  XOntoRank xontorank(setup.generator->GenerateCorpus(), setup.search_ontology,
                      xo_options);

  RelevanceOracle oracle(setup.ontology);
  InstallContextualMismatches(oracle);

  std::printf("BASELINE COMPARISON — Table I workload, top-5 "
              "(results / relevant / warm ms per query)\n\n");
  std::printf("%-5s %-46s %18s %22s %20s\n", "id", "query", "XRANK",
              "QueryExpansion", "XOntoRank(Rel)");
  bench::PrintRule(116);

  size_t totals_results[3] = {0, 0, 0};
  size_t totals_relevant[3] = {0, 0, 0};
  double totals_ms[3] = {0, 0, 0};
  auto queries = TableOneQueries();
  for (const WorkloadQuery& wq : queries) {
    KeywordQuery query = ParseQuery(wq.text);
    std::printf("%-5s %-46s", wq.id.c_str(), wq.text.c_str());

    // The engines differ in API (the facade's unified Search vs. the
    // comparator's SearchExpanded), so each row passes its own callable.
    auto run = [&](auto&& search, const Corpus& docs,
                   size_t slot, int width) {
      search();  // warm
      Timer timer;
      constexpr int kReps = 10;
      std::vector<QueryResult> results;
      for (int rep = 0; rep < kReps; ++rep) results = search();
      double ms = timer.ElapsedMillis() / kReps;
      size_t relevant = oracle.CountRelevant(query, docs, results);
      totals_results[slot] += results.size();
      totals_relevant[slot] += relevant;
      totals_ms[slot] += ms;
      std::printf(" %*s", width,
                  StringPrintf("%zu/%zu/%.2f", results.size(), relevant, ms)
                      .c_str());
    };
    SearchOptions top5;
    top5.top_k = 5;
    top5.use_cache = false;  // time the merge, not the result cache
    run([&] { return xrank.Search(query, top5).results; },
        xrank.snapshot()->corpus(), 0, 18);
    run([&] { return expansion.SearchExpanded(query, 5); }, corpus, 1, 22);
    run([&] { return xontorank.Search(query, top5).results; },
        xontorank.snapshot()->corpus(), 2, 20);
    std::printf("\n");
  }
  bench::PrintRule(116);
  std::printf("%-52s", "TOTAL");
  for (size_t s = 0; s < 3; ++s) {
    std::printf(" %*s", s == 0 ? 18 : (s == 1 ? 22 : 20),
                StringPrintf("%zu/%zu/%.2f", totals_results[s],
                             totals_relevant[s], totals_ms[s] /
                                 static_cast<double>(queries.size()))
                    .c_str());
  }
  std::printf("\n\nShape: expansion recovers some queries XRANK misses but "
              "stays blind to code-only concepts and pays per-disjunct merge "
              "cost; XOntoRank covers the most queries.\n");
  return 0;
}
