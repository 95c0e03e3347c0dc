// Ablation sweeps over the design parameters DESIGN.md calls out:
// decay, threshold, and the ontology weight ω of Eq. 5. Not a paper table —
// this quantifies the sensitivity the paper only mentions qualitatively
// ("the size of the XOnto-DIL entries can be reduced by appropriately
// adjusting the threshold and/or decay parameters", §VII-B).

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "eval/relevance_oracle.h"
#include "eval/workload.h"

using namespace xontorank;

namespace {

struct SweepPoint {
  const char* name;
  ScoreOptions score;
};

void RunSweep(const bench::ExperimentSetup& setup, const SweepPoint& point) {
  IndexBuildOptions options;
  options.strategy = Strategy::kRelationships;
  options.score = point.score;
  options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
  XOntoRank engine(setup.generator->GenerateCorpus(), setup.search_ontology,
                   options);

  RelevanceOracle oracle(setup.ontology);
  InstallContextualMismatches(oracle);

  size_t total_results = 0;
  size_t total_relevant = 0;
  for (const WorkloadQuery& wq : TableOneQueries()) {
    KeywordQuery query = ParseQuery(wq.text);
    auto results = engine.Search(query, SearchOptions{.top_k = 5}).results;
    total_results += results.size();
    total_relevant +=
        oracle.CountRelevant(query, engine.snapshot()->corpus(), results);
  }
  // Postings materialized for the workload keywords measure index growth.
  size_t postings = 0;
  for (const auto& segment : engine.snapshot()->segments()) {
    postings += segment->index().TotalPostings();
  }
  std::printf("%-28s %8.2f %10.2f %9.2f %12zu %10zu %10zu\n", point.name,
              point.score.decay, point.score.threshold,
              point.score.ontology_weight, postings, total_results,
              total_relevant);
}

}  // namespace

int main() {
  bench::ExperimentSetup setup(/*num_documents=*/25, /*seed=*/11);

  std::printf("ABLATION — Relationships strategy parameter sweeps over the "
              "Table I workload (top-5 per query)\n\n");
  std::printf("%-28s %8s %10s %9s %12s %10s %10s\n", "point", "decay",
              "threshold", "omega", "postings", "results", "relevant");
  bench::PrintRule(94);

  SweepPoint base{"paper defaults", {}};
  RunSweep(setup, base);

  for (double decay : {0.25, 0.75, 0.9}) {
    SweepPoint p{"decay sweep", {}};
    p.score.decay = decay;
    RunSweep(setup, p);
  }
  for (double threshold : {0.02, 0.05, 0.3}) {
    SweepPoint p{"threshold sweep", {}};
    p.score.threshold = threshold;
    RunSweep(setup, p);
  }
  for (double omega : {0.25, 0.75, 1.0}) {
    SweepPoint p{"ontology-weight sweep", {}};
    p.score.ontology_weight = omega;
    RunSweep(setup, p);
  }
  // §IX approximation: cap the number of concepts scored per keyword
  // (best-first keeps exactly the top-N of the exact expansion).
  for (size_t cap : {size_t{10}, size_t{25}, size_t{100}}) {
    SweepPoint p{"approximation-cap sweep", {}};
    p.score.max_concepts_per_keyword = cap;
    RunSweep(setup, p);
  }
  return 0;
}
