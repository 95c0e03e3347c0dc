// Command-line interface to the XOntoRank system: generate artifacts on
// disk, build and persist engines, and run (optionally explained) queries
// over a directory of CDA XML files.
//
//   xontorank_cli gen-ontology <out.tsv> [--extend N]
//   xontorank_cli gen-corpus <out-dir> [--docs N] [--seed S]
//   xontorank_cli validate <corpus-dir>
//   xontorank_cli query <corpus-dir> <ontology.tsv> "<query>"
//                 [--strategy XRANK|Graph|Taxonomy|Relationships] [--top K]
//                 [--explain] [--ranked] [--group] [--parallel N]
//                 [--no-cache] [--pruning=exact|blockmax] [--stats]
//                 (--stats reports the pruning work counters)
//   xontorank_cli save-engine <corpus-dir> <ontology.tsv> <engine-dir>
//                 [--strategy NAME] [--threads N]
//                 (segment files + MANIFEST; query it with query-engine)
//   xontorank_cli query-engine <engine-dir> "<query>" [--top K] [--explain]
//                 [--ranked] [--group] [--parallel N] [--no-cache]
//                 [--pruning=exact|blockmax] [--stats]
//   xontorank_cli repl <engine-dir>     # interactive: one query per line;
//                                       # :top N, :explain, :group, :quit
//
// Example session:
//   ./build/examples/xontorank_cli gen-ontology /tmp/onto.tsv
//   ./build/examples/xontorank_cli gen-corpus /tmp/emr --docs 20
//   ./build/examples/xontorank_cli save-engine /tmp/emr /tmp/onto.tsv  (then)
//       /tmp/engine
//   ./build/examples/xontorank_cli query-engine /tmp/engine  (then)
//       '"bronchial structure" theophylline' --explain

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cda/cda_generator.h"
#include "cda/cda_validator.h"
#include "common/string_util.h"
#include "core/explain.h"
#include "core/ranked_query_processor.h"
#include "core/result_grouping.h"
#include "core/snippet.h"
#include "core/xontorank.h"
#include "storage/engine_store.h"
#include "onto/ontology_generator.h"
#include "onto/ontology_io.h"
#include "onto/snomed_fragment.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

using namespace xontorank;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

/// Flag extraction: returns the value after `name` (or attached as
/// `name=value`) or fallback.
std::string FlagValue(const std::vector<std::string>& args,
                      const std::string& name, const std::string& fallback) {
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == name && i + 1 < args.size()) return args[i + 1];
    if (args[i].rfind(name + "=", 0) == 0) {
      return args[i].substr(name.size() + 1);
    }
  }
  return fallback;
}

bool HasFlag(const std::vector<std::string>& args, const std::string& name) {
  return std::find(args.begin(), args.end(), name) != args.end();
}

Result<Strategy> ParseStrategy(const std::string& name) {
  for (Strategy s : kAllStrategies) {
    if (name == StrategyName(s)) return s;
  }
  return Status::InvalidArgument("unknown strategy '" + name +
                                 "' (use XRANK, Graph, Taxonomy, or "
                                 "Relationships)");
}

Result<std::vector<XmlDocument>> LoadCorpusDir(const std::string& dir) {
  std::vector<std::filesystem::path> paths;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".xml") paths.push_back(entry.path());
  }
  if (ec) return Status::IoError("cannot read directory " + dir);
  if (paths.empty()) return Status::NotFound("no .xml files in " + dir);
  std::sort(paths.begin(), paths.end());
  std::vector<XmlDocument> corpus;
  for (const auto& path : paths) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto parsed = ParseXml(buffer.str());
    if (!parsed.ok()) {
      return Status::ParseError(path.string() + ": " +
                                parsed.status().message());
    }
    XmlDocument doc = std::move(parsed).value();
    doc.set_doc_id(static_cast<uint32_t>(corpus.size()));
    corpus.push_back(std::move(doc));
  }
  return corpus;
}

int GenOntology(const std::vector<std::string>& args) {
  if (args.empty()) return Fail("gen-ontology needs an output path");
  Ontology onto = BuildSnomedCardiologyFragment();
  size_t extend = std::stoul(FlagValue(args, "--extend", "0"));
  if (extend > 0) {
    OntologyGeneratorOptions gen;
    gen.num_concepts = extend;
    ExtendOntology(onto, gen);
  }
  Status st = SaveOntology(onto, args[0]);
  if (!st.ok()) return Fail(st.ToString());
  std::printf("wrote %zu concepts, %zu is-a edges, %zu relationships to %s\n",
              onto.concept_count(), onto.isa_edge_count(),
              onto.relationship_count(), args[0].c_str());
  return 0;
}

int GenCorpus(const std::vector<std::string>& args) {
  if (args.empty()) return Fail("gen-corpus needs an output directory");
  std::error_code ec;
  std::filesystem::create_directories(args[0], ec);
  Ontology onto = BuildSnomedCardiologyFragment();
  CdaGeneratorOptions options;
  options.num_documents = std::stoul(FlagValue(args, "--docs", "20"));
  options.seed = std::stoull(FlagValue(args, "--seed", "7"));
  CdaGenerator generator(onto, options);
  Corpus corpus = generator.GenerateCorpus();
  XmlWriteOptions write_options;
  write_options.pretty = true;
  for (size_t i = 0; i < corpus.size(); ++i) {
    std::string path =
        args[0] + "/patient_" + StringPrintf("%04zu", i) + ".xml";
    std::ofstream out(path);
    out << WriteXml(corpus[i], write_options);
  }
  CdaCorpusStats stats = CdaGenerator::ComputeStats(corpus);
  std::printf("wrote %zu CDA documents to %s (%.0f elements/doc, %.0f "
              "ontology refs/doc, %.1f KB/doc)\n",
              stats.documents, args[0].c_str(), stats.AvgElements(),
              stats.AvgOntoRefs(), stats.AvgKilobytes());
  return 0;
}

int ValidateCommand(const std::vector<std::string>& args) {
  if (args.empty()) return Fail("validate needs <corpus-dir>");
  auto corpus = LoadCorpusDir(args[0]);
  if (!corpus.ok()) return Fail(corpus.status().ToString());
  size_t errors = 0, warning_count = 0;
  for (const XmlDocument& doc : *corpus) {
    for (const CdaDiagnostic& diagnostic : ValidateCda(doc)) {
      std::printf("doc %u %s: %s (at %s)\n", doc.doc_id(),
                  diagnostic.is_error() ? "ERROR" : "warning",
                  diagnostic.message.c_str(),
                  diagnostic.where.ToString().c_str());
      if (diagnostic.is_error()) {
        ++errors;
      } else {
        ++warning_count;
      }
    }
  }
  std::printf("%zu documents: %zu errors, %zu warnings\n", corpus->size(),
              errors, warning_count);
  return errors == 0 ? 0 : 2;
}

/// Shared result rendering for query/query-engine/repl. Takes a pinned
/// IndexSnapshot — never the engine — so every lookup (resolve, snippet,
/// explain, group) reads the exact serving state the query ran against,
/// even if a writer publishes a new snapshot mid-request (see the
/// `XOntoRank::build_stats()` stability note).
void PrintResults(const IndexSnapshot& snap, const KeywordQuery& query,
                  const std::vector<QueryResult>& results, bool explain,
                  bool group) {
  for (size_t i = 0; i < results.size(); ++i) {
    const QueryResult& r = results[i];
    const XmlNode* node = snap.ResolveResult(r);
    std::printf("%zu. doc %u  <%s>  dewey %s  score %.3f\n", i + 1,
                r.element.doc_id(), node ? node->tag().c_str() : "?",
                r.element.ToString().c_str(), r.score);
    std::string snippet =
        MakeSnippet(snap.document(r.element.doc_id()), r.element, query, {});
    if (!snippet.empty()) std::printf("   %s\n", snippet.c_str());
    if (explain) {
      // The index responsible for the result's document: the owning
      // segment's index, whose per-document support values ARE the
      // serving scores.
      const CorpusIndex* index = snap.SegmentIndexForDoc(r.element.doc_id());
      if (index != nullptr) {
        auto evidence = ExplainResult(*index, query, r);
        if (evidence.ok()) {
          std::printf("   %s\n",
                      FormatEvidence(*index, *evidence).c_str());
        }
      }
    }
  }
  if (group) {
    std::printf("\nstructural groups:\n");
    for (const ResultGroup& g :
         GroupResultsByPath(results, snap.corpus())) {
      std::printf("  %zux %s (best %.3f)\n", g.results.size(),
                  g.signature.c_str(), g.best_score());
    }
  }
}

/// Parses the shared query-execution flags into SearchOptions. Exits via
/// the returned error Result on an unknown --pruning value.
Result<SearchOptions> ParseSearchFlags(const std::vector<std::string>& args,
                                       size_t default_top_k) {
  SearchOptions options;
  options.top_k =
      std::stoul(FlagValue(args, "--top", std::to_string(default_top_k)));
  if (HasFlag(args, "--ranked")) options.strategy = QueryExecution::kRdil;
  options.parallelism = std::stoul(FlagValue(args, "--parallel", "1"));
  options.use_cache = !HasFlag(args, "--no-cache");
  std::string pruning = FlagValue(args, "--pruning", "blockmax");
  if (pruning == "exact") {
    options.pruning = PruningMode::kExact;
  } else if (pruning == "blockmax") {
    options.pruning = PruningMode::kBlockMax;
  } else {
    return Status::InvalidArgument("unknown pruning mode '" + pruning +
                                   "' (use exact or blockmax)");
  }
  return options;
}

/// One-line execution summary from the response stats; `--stats` appends
/// the pruning work counters.
void PrintQueryStats(const SearchOptions& options, const QueryStats& stats,
                     bool detailed) {
  std::printf("(%s/%s: %zu postings, %zu shard(s), %.0f us%s)\n",
              std::string(QueryExecutionName(options.strategy)).c_str(),
              std::string(PruningModeName(options.pruning)).c_str(),
              stats.postings_scanned, stats.shards, stats.wall_micros,
              stats.cache_hit ? ", served from cache" : "");
  if (!detailed) return;
  double skipped_pct =
      stats.postings_scanned == 0
          ? 0.0
          : 100.0 *
                static_cast<double>(stats.postings_scanned -
                                    stats.postings_scored) /
                static_cast<double>(stats.postings_scanned);
  std::printf("  scored %zu of %zu postings (%.1f%% skipped), "
              "blocks %zu scored / %zu skipped, "
              "%zu threshold update(s)\n",
              stats.postings_scored, stats.postings_scanned, skipped_pct,
              stats.blocks_scored, stats.blocks_skipped,
              stats.threshold_updates);
}

int QueryCommand(const std::vector<std::string>& args) {
  if (args.size() < 3) {
    return Fail("query needs <corpus-dir> <ontology.tsv> \"<query>\"");
  }
  auto corpus = LoadCorpusDir(args[0]);
  if (!corpus.ok()) return Fail(corpus.status().ToString());
  auto onto = LoadOntology(args[1]);
  if (!onto.ok()) return Fail(onto.status().ToString());
  auto strategy = ParseStrategy(FlagValue(args, "--strategy", "Relationships"));
  if (!strategy.ok()) return Fail(strategy.status().ToString());
  bool explain = HasFlag(args, "--explain");

  IndexBuildOptions options;
  options.strategy = *strategy;
  options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
  XOntoRank engine(std::move(corpus).value(), *onto, options);

  KeywordQuery query = ParseQuery(args[2]);
  auto search = ParseSearchFlags(args, /*default_top_k=*/5);
  if (!search.ok()) return Fail(search.status().ToString());
  if (Status v = search->Validate(); !v.ok()) return Fail(v.ToString());

  // Pin one snapshot for the whole request: query + render + explain all
  // read the same serving state.
  auto snap = engine.snapshot();
  SearchResponse response = snap->Search(query, *search);
  PrintQueryStats(*search, response.stats, HasFlag(args, "--stats"));

  std::printf("%zu result(s) for [%s] under %s\n", response.results.size(),
              query.ToString().c_str(),
              std::string(StrategyName(*strategy)).c_str());
  PrintResults(*snap, query, response.results, explain,
               HasFlag(args, "--group"));
  return 0;
}

int SaveEngineCommand(const std::vector<std::string>& args) {
  if (args.size() < 3) {
    return Fail("save-engine needs <corpus-dir> <ontology.tsv> <engine-dir>");
  }
  auto corpus = LoadCorpusDir(args[0]);
  if (!corpus.ok()) return Fail(corpus.status().ToString());
  auto onto = LoadOntology(args[1]);
  if (!onto.ok()) return Fail(onto.status().ToString());
  auto strategy = ParseStrategy(FlagValue(args, "--strategy", "Relationships"));
  if (!strategy.ok()) return Fail(strategy.status().ToString());

  IndexBuildOptions options;
  options.strategy = *strategy;
  options.vocabulary_mode =
      IndexBuildOptions::VocabularyMode::kCorpusAndOntology;
  options.num_threads = std::stoul(FlagValue(args, "--threads", "1"));
  XOntoRank engine(std::move(corpus).value(), *onto, options);
  Status st = SaveEngineDir(engine, args[2]);
  if (!st.ok()) return Fail(st.ToString());
  std::printf("saved engine (%zu documents, %zu keywords, %zu postings) to "
              "%s\n",
              engine.corpus_size(),
              engine.build_stats().precomputed_keywords,
              engine.build_stats().total_postings, args[2].c_str());
  return 0;
}

int QueryEngineCommand(const std::vector<std::string>& args) {
  if (args.size() < 2) return Fail("query-engine needs <engine-dir> <query>");
  auto loaded = LoadEngineDir(args[0]);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  XOntoRank& engine = (*loaded)->engine();
  KeywordQuery query = ParseQuery(args[1]);
  auto search = ParseSearchFlags(args, /*default_top_k=*/5);
  if (!search.ok()) return Fail(search.status().ToString());
  if (Status v = search->Validate(); !v.ok()) return Fail(v.ToString());
  auto snap = engine.snapshot();
  SearchResponse response = snap->Search(query, *search);
  PrintQueryStats(*search, response.stats, HasFlag(args, "--stats"));
  std::printf("%zu result(s) for [%s] (persisted engine, %s)\n",
              response.results.size(), query.ToString().c_str(),
              std::string(StrategyName(snap->options().strategy)).c_str());
  PrintResults(*snap, query, response.results, HasFlag(args, "--explain"),
               HasFlag(args, "--group"));
  return 0;
}

int ReplCommand(const std::vector<std::string>& args) {
  if (args.empty()) return Fail("repl needs <engine-dir>");
  auto loaded = LoadEngineDir(args[0]);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  XOntoRank& engine = (*loaded)->engine();
  {
    auto snap = engine.snapshot();
    std::printf("loaded %zu documents (%s strategy). Type a query, or "
                ":top N, :explain, :group, :quit\n",
                snap->corpus_size(),
                std::string(StrategyName(snap->options().strategy)).c_str());
  }
  SearchOptions search;
  search.top_k = 5;
  bool explain = false, group = false;
  std::string line;
  while (std::printf("xontorank> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::string trimmed(TrimWhitespace(line));
    if (trimmed.empty()) continue;
    if (trimmed == ":quit" || trimmed == ":q") break;
    if (trimmed == ":explain") {
      explain = !explain;
      std::printf("explain %s\n", explain ? "on" : "off");
      continue;
    }
    if (trimmed == ":group") {
      group = !group;
      std::printf("group %s\n", group ? "on" : "off");
      continue;
    }
    if (trimmed.rfind(":top ", 0) == 0) {
      search.top_k = std::stoul(trimmed.substr(5));
      std::printf("top %zu\n", search.top_k);
      continue;
    }
    KeywordQuery query = ParseQuery(trimmed);
    // Pin a fresh snapshot per request (a writer could publish between
    // two REPL queries once the engine grows a write path).
    auto snap = engine.snapshot();
    SearchResponse response = snap->Search(query, search);
    std::printf("%zu result(s)\n", response.results.size());
    PrintResults(*snap, query, response.results, explain, group);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: xontorank_cli <gen-ontology|gen-corpus|validate|"
                 "query|save-engine|query-engine|repl> [args]\n");
    return 1;
  }
  std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "gen-ontology") return GenOntology(args);
  if (command == "gen-corpus") return GenCorpus(args);
  if (command == "validate") return ValidateCommand(args);
  if (command == "query") return QueryCommand(args);
  if (command == "save-engine") return SaveEngineCommand(args);
  if (command == "query-engine") return QueryEngineCommand(args);
  if (command == "repl") return ReplCommand(args);
  return Fail("unknown command '" + command + "'");
}
