// Quickstart: generate a small synthetic EMR corpus over the curated
// SNOMED cardiology fragment, build an ontology-aware index, and search it.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart

#include <cstdio>

#include "cda/cda_generator.h"
#include "core/xontorank.h"
#include "onto/snomed_fragment.h"

using namespace xontorank;

int main() {
  // 1. The ontology: a curated SNOMED CT cardiology/respiratory fragment.
  Ontology ontology = BuildSnomedCardiologyFragment();
  std::printf("Ontology: %zu concepts, %zu is-a edges, %zu relationships\n",
              ontology.concept_count(), ontology.isa_edge_count(),
              ontology.relationship_count());

  // 2. The corpus: synthetic HL7 CDA patient records referencing it.
  CdaGeneratorOptions gen_options;
  gen_options.num_documents = 25;
  gen_options.seed = 2026;
  CdaGenerator generator(ontology, gen_options);
  Corpus corpus = generator.GenerateCorpus();
  CdaCorpusStats stats = CdaGenerator::ComputeStats(corpus);
  std::printf(
      "Corpus: %zu documents, %.0f elements/doc, %.0f ontology refs/doc, "
      "%.1f KB/doc\n\n",
      stats.documents, stats.AvgElements(), stats.AvgOntoRefs(),
      stats.AvgKilobytes());

  // 3. Preprocessing phase: build the XOnto-DIL index (Relationships
  //    strategy, paper defaults decay=0.5 threshold=0.1 omega=0.5).
  IndexBuildOptions options;
  options.strategy = Strategy::kRelationships;
  XOntoRank engine(std::move(corpus), ontology, options);
  const IndexBuildStats build = engine.build_stats();
  std::printf("Index: %zu nodes, %zu code nodes, %zu keywords, %zu postings "
              "(built in %.0f ms: stage 1 %.0f, vocabulary %.0f, scoring "
              "%.0f, freeze %.0f)\n\n",
              build.indexed_nodes, build.code_nodes,
              build.precomputed_keywords, build.total_postings,
              build.build_millis, build.stage1_millis,
              build.vocabulary_millis, build.score_millis,
              build.freeze_millis);

  // 4. Query phase: the unified Search API. SearchOptions picks top-k,
  //    shard parallelism, pruning and caching; the response carries the
  //    results plus execution stats.
  const char* query = "\"bronchial structure\" theophylline";
  std::printf("Query: %s\n", query);
  SearchOptions search;
  search.top_k = 5;
  search.parallelism = 0;  // one shard per hardware core
  SearchResponse response = engine.Search(query, search);
  const auto& results = response.results;
  std::printf("Top %zu results (%zu postings, %zu shards, %.0f us%s):\n",
              results.size(), response.stats.postings_scanned,
              response.stats.shards, response.stats.wall_micros,
              response.stats.cache_hit ? ", cached" : "");
  for (size_t i = 0; i < results.size(); ++i) {
    const QueryResult& r = results[i];
    XmlNode node = engine.ResolveResult(r);
    std::printf("  %zu. doc %u  element <%s>  dewey %s  score %.3f\n", i + 1,
                r.element.doc_id(),
                node ? std::string(node.tag()).c_str() : "?",
                r.element.ToString().c_str(), r.score);
  }
  if (!results.empty()) {
    std::printf("\nBest result fragment:\n%s\n",
                engine.ResultFragmentXml(results[0]).c_str());
  }
  return 0;
}
