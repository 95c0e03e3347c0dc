// Google-benchmark microbenchmarks of the individual components: XML
// parsing, tokenization, ontology index matching, the three OntoScore
// expansions, DIL entry construction, the DIL merge, and index
// encode/decode.

#include <benchmark/benchmark.h>

#include "cda/cda_generator.h"
#include "core/index_builder.h"
#include "core/onto_score.h"
#include "core/query_processor.h"
#include "ir/tokenizer.h"
#include "onto/ontology_index.h"
#include "onto/snomed_fragment.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace xontorank {
namespace {

const Ontology& Fragment() {
  static const Ontology* kOntology =
      new Ontology(BuildSnomedCardiologyFragment());
  return *kOntology;
}

std::string SampleCdaXml() {
  CdaGeneratorOptions options;
  options.num_documents = 1;
  CdaGenerator generator(Fragment(), options);
  return WriteXml(CdaToXml(generator.GenerateDocument(0), 0));
}

void BM_XmlParse(benchmark::State& state) {
  std::string xml = SampleCdaXml();
  for (auto _ : state) {
    auto doc = ParseXml(xml);
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(xml.size()));
}
BENCHMARK(BM_XmlParse);

void BM_XmlWrite(benchmark::State& state) {
  auto doc = ParseXml(SampleCdaXml());
  for (auto _ : state) {
    std::string out = WriteXml(*doc);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_XmlWrite);

void BM_Tokenize(benchmark::State& state) {
  std::string text =
      "Patient presented with supraventricular arrhythmia. Started "
      "amiodarone 200 mg every 8 hours. Follow-up echocardiography showed "
      "trace mitral regurgitation with preserved ejection fraction.";
  for (auto _ : state) {
    auto tokens = Tokenize(text);
    benchmark::DoNotOptimize(tokens);
  }
}
BENCHMARK(BM_Tokenize);

void BM_OntologyIndexMatch(benchmark::State& state) {
  OntologyIndex index(Fragment());
  Keyword kw = MakeKeyword("cardiac");
  for (auto _ : state) {
    auto matches = index.Match(kw);
    benchmark::DoNotOptimize(matches);
  }
}
BENCHMARK(BM_OntologyIndexMatch);

void BM_OntoScore(benchmark::State& state) {
  OntologyIndex index(Fragment());
  Keyword kw = MakeKeyword("cardiac");
  Strategy strategy = static_cast<Strategy>(state.range(0));
  ScoreOptions options;
  for (auto _ : state) {
    OntoScoreMap map = ComputeOntoScores(index, kw, strategy, options);
    benchmark::DoNotOptimize(map);
  }
}
BENCHMARK(BM_OntoScore)
    ->Arg(static_cast<int>(Strategy::kGraph))
    ->Arg(static_cast<int>(Strategy::kTaxonomy))
    ->Arg(static_cast<int>(Strategy::kRelationships));

struct IndexedCorpus {
  Corpus corpus;
  std::unique_ptr<CorpusIndex> index;
};

IndexedCorpus& SharedIndex() {
  static IndexedCorpus* kShared = [] {
    auto* shared = new IndexedCorpus();
    CdaGeneratorOptions options;
    options.num_documents = 20;
    CdaGenerator generator(Fragment(), options);
    shared->corpus = generator.GenerateCorpus();
    IndexBuildOptions build;
    build.strategy = Strategy::kRelationships;
    build.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
    shared->index =
        std::make_unique<CorpusIndex>(shared->corpus, Fragment(), build);
    return shared;
  }();
  return *kShared;
}

void BM_BuildDilEntry(benchmark::State& state) {
  IndexedCorpus& shared = SharedIndex();
  Keyword kw = MakeKeyword("asthma");
  IndexBuildOptions build;
  build.strategy = Strategy::kRelationships;
  build.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
  build.cache_onto_score_rows = false;
  for (auto _ : state) {
    // A fresh index per iteration (untimed): the demand cache would
    // otherwise serve every iteration after the first.
    state.PauseTiming();
    auto index = std::make_unique<CorpusIndex>(shared.corpus, Fragment(),
                                               build);
    state.ResumeTiming();
    DilListRef list = index->GetListRef(kw);
    benchmark::DoNotOptimize(list.size());
    state.PauseTiming();
    index.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_BuildDilEntry);

void BM_DilMerge(benchmark::State& state) {
  IndexedCorpus& shared = SharedIndex();
  DilListRef a = shared.index->GetListRef(MakeKeyword("cardiac"));
  DilListRef b = shared.index->GetListRef(MakeKeyword("arrest"));
  QueryProcessor processor((ScoreOptions()));
  for (auto _ : state) {
    auto results = processor.Execute({a.OpenCursor(), b.OpenCursor()}, 10);
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_DilMerge);

}  // namespace
}  // namespace xontorank

BENCHMARK_MAIN();
