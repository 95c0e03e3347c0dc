// Reproduces Table III: per-keyword average XOnto-DIL entry creation time
// (ms), posting count and serialized size (KB) for each of the four
// approaches, over the indexing vocabulary (corpus tokens ∪ ontology term
// tokens, §V-B).
//
// Paper shape to reproduce: XRANK entries are smallest/fastest; Graph and
// Relationships generate the most postings (undamped is-a directions map
// many concepts); Relationships creation is the most expensive.
//
// Creation is timed from scratch: every entry is a demand build on an
// index with no precomputed vocabulary and no OntoScore row cache, so each
// keyword pays its own OntoScore expansion, scoring and one-list freeze.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "tests/reference_eval.h"

using namespace xontorank;

int main() {
  // SNOMED-scale ontology: the fragment extended with 3000 synthetic
  // concepts (see bench_util.h).
  bench::ExperimentSetup setup(/*num_documents=*/40, /*seed=*/11,
                               /*extra_concepts=*/3000);

  std::printf("TABLE III — AVERAGE SIZE FOR XONTO-DIL ENTRIES (per keyword)\n\n");
  std::printf("%-14s %22s %12s %12s %14s\n", "Algorithm", "Avg creation (ms)",
              "Postings", "Size (KB)", "Keywords");
  bench::PrintRule(80);

  for (Strategy strategy : kAllStrategies) {
    IndexBuildOptions options;
    options.strategy = strategy;
    options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
    options.cache_onto_score_rows = false;
    Corpus corpus = setup.generator->GenerateCorpus();
    CorpusIndex index(corpus, setup.ontology, options);

    // The vocabulary the paper indexes: corpus tokens plus ontology tokens.
    std::vector<std::string> vocab;
    {
      IndexBuildOptions eager = options;
      eager.vocabulary_mode =
          IndexBuildOptions::VocabularyMode::kCorpusAndOntology;
      // Reuse an eager build only to enumerate the vocabulary cheaply under
      // XRANK (strategy does not affect the token set).
      IndexBuildOptions enumerate = eager;
      enumerate.strategy = Strategy::kXRank;
      CorpusIndex enumerator(corpus, setup.ontology, enumerate);
      vocab = enumerator.PrecomputedVocabulary();
    }

    // Only creation is timed; the sizes are read back afterwards from the
    // built entries (list references stay valid for the index's life).
    Timer timer;
    std::vector<DilListRef> entries;
    entries.reserve(vocab.size());
    for (const std::string& token : vocab) {
      entries.push_back(index.GetListRef(MakeKeyword(token)));
    }
    double total_ms = timer.ElapsedMillis();
    size_t total_postings = 0;
    size_t total_bytes = 0;
    for (const DilListRef& entry : entries) {
      total_postings += entry.size();
      total_bytes += reference::ApproxSizeBytes(
          reference::ReadList(*entry.flat, entry.list));
    }

    double n = static_cast<double>(vocab.size());
    std::printf("%-14s %22.4f %12.1f %12.3f %14zu\n",
                std::string(StrategyName(strategy)).c_str(), total_ms / n,
                static_cast<double>(total_postings) / n,
                static_cast<double>(total_bytes) / 1024.0 / n, vocab.size());
  }
  return 0;
}
