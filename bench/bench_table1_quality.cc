// Reproduces Table I: number of results marked as relevant for each query
// (user marks up to 5 results), for XRANK / Graph / Taxonomy /
// Relationships. The single-domain-expert survey is simulated by the
// relevance oracle with the paper's contextual-mismatch judgments
// installed (see DESIGN.md §1 and EXPERIMENTS.md).
//
// Paper shape to reproduce: XRANK answers only the first few queries (and
// with fewer relevant results); the ontology-aware strategies find relevant
// results for queries whose keywords never co-occur textually; q10 (the
// acetaminophen/aspirin contextual mismatch) scores 0 for the
// ontology-mapped strategies' aspirin-routed results.

#include <cstdio>

#include "bench/bench_util.h"
#include "eval/relevance_oracle.h"
#include "eval/workload.h"

using namespace xontorank;

int main() {
  bench::ExperimentSetup setup(/*num_documents=*/40, /*seed=*/11);
  auto engines = setup.BuildEngines();

  RelevanceOracle oracle(setup.ontology);
  InstallContextualMismatches(oracle);

  std::printf("TABLE I — NUMBER OF RESULTS MARKED AS RELEVANT FOR EACH "
              "QUERY (user marks up to 5 results)\n\n");
  std::printf("%-5s %-52s %6s %6s %9s %14s\n", "Query", "", "XRANK", "Graph",
              "Taxonomy", "Relationships");
  bench::PrintRule(96);

  double totals[4] = {0, 0, 0, 0};
  auto queries = TableOneQueries();
  for (const WorkloadQuery& wq : queries) {
    KeywordQuery query = ParseQuery(wq.text);
    std::printf("%-5s %-52s", wq.id.c_str(), wq.text.c_str());
    for (size_t s = 0; s < engines.size(); ++s) {
      auto results = engines[s]->Search(query, SearchOptions{.top_k = 5}).results;
      size_t relevant = oracle.CountRelevant(
          query, engines[s]->snapshot()->corpus(), results);
      totals[s] += static_cast<double>(relevant);
      std::printf(" %*zu", s == 0 ? 6 : (s == 1 ? 6 : (s == 2 ? 9 : 14)),
                  relevant);
    }
    std::printf("\n");
  }
  bench::PrintRule(96);
  std::printf("%-58s", "AVERAGE");
  for (size_t s = 0; s < 4; ++s) {
    std::printf(" %*.1f", s == 0 ? 6 : (s == 1 ? 6 : (s == 2 ? 9 : 14)),
                totals[s] / static_cast<double>(queries.size()));
  }
  std::printf("\n");
  return 0;
}
