// Ablation: the ElemRank extension (§V-A says ElemRank "could be
// incorporated in NS" but the paper's corpus had no ID-IDREF edges; our CDA
// corpus does, via originalText references). Measures how blending
// structural authority into NS changes the Table I workload outcomes and
// the top-k ordering relative to the plain engine.

#include <cstdio>

#include "bench/bench_util.h"
#include "eval/kendall_tau.h"
#include "eval/relevance_oracle.h"
#include "eval/workload.h"

using namespace xontorank;

namespace {

std::vector<std::string> TopKIds(XOntoRank& engine, const KeywordQuery& query) {
  std::vector<std::string> ids;
  for (const QueryResult& r :
       engine.Search(query, SearchOptions{.top_k = 10}).results) {
    ids.push_back(r.element.ToString());
  }
  return ids;
}

}  // namespace

int main() {
  bench::ExperimentSetup setup(/*num_documents=*/40, /*seed=*/11);
  RelevanceOracle oracle(setup.ontology);
  InstallContextualMismatches(oracle);

  std::printf("ABLATION — ElemRank blend λ under the Relationships strategy "
              "(Table I workload)\n\n");
  std::printf("%8s %10s %10s %26s\n", "lambda", "results", "relevant",
              "tau vs lambda=0 (k=10)");
  bench::PrintRule(60);

  // Reference engine without ElemRank.
  IndexBuildOptions base_options;
  base_options.strategy = Strategy::kRelationships;
  base_options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
  XOntoRank reference(setup.generator->GenerateCorpus(), setup.search_ontology,
                      base_options);

  for (double lambda : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    IndexBuildOptions options = base_options;
    options.use_elem_rank = lambda > 0.0;
    options.elem_rank_blend = lambda;
    XOntoRank engine(setup.generator->GenerateCorpus(), setup.search_ontology,
                     options);
    size_t total_results = 0, total_relevant = 0;
    double tau_sum = 0.0;
    auto queries = TableOneQueries();
    for (const WorkloadQuery& wq : queries) {
      KeywordQuery query = ParseQuery(wq.text);
      auto results = engine.Search(query, SearchOptions{.top_k = 5}).results;
      total_results += results.size();
      total_relevant +=
          oracle.CountRelevant(query, engine.snapshot()->corpus(), results);
      tau_sum += TopKKendallTau(TopKIds(reference, query),
                                TopKIds(engine, query), 0.5);
    }
    std::printf("%8.2f %10zu %10zu %26.3f\n", lambda, total_results,
                total_relevant, tau_sum / static_cast<double>(queries.size()));
  }
  return 0;
}
