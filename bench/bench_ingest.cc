// Ingest latency of O(delta) segment commits (DESIGN.md §15). The
// workload is the serving-system shape the segment architecture exists
// for — a live engine over a sizable corpus taking a stream of
// single-document commits, with searches interleaved:
//
//   1. latency gate — the median single-doc commit into a 10k-document
//      engine must cost at most 3x the median into a 1k-document engine.
//      A commit seals only its own document, so the two should match up
//      to cache and compaction noise; a commit that touched the whole
//      corpus would cost about 10x.
//   2. p50/p99 commit latency and interleaved search latency, plus a
//      concurrent phase: reader threads hammering Search while the writer
//      commits and the background compactor folds segments — the paper's
//      query phase staying live through the preprocessing phase's
//      updates.
//   3. compaction evidence: after the stream, the segments left, the
//      merges and the documents rewritten per committed document; then,
//      under the default (precomputed) vocabulary, the compactor's
//      milliseconds per rewritten document, timed synchronously
//      (CompactNow after each commit).
//
// `--smoke` runs gate 1 only (20 commits at each corpus size, background
// compaction on) and exits nonzero on a miss; ctest runs it as
// bench_ingest_smoke. Results are recorded in EXPERIMENTS.md
// ("LSM ingest").

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "cda/cda_document.h"
#include "common/timer.h"
#include "core/xontorank.h"

using namespace xontorank;

namespace {

constexpr size_t kSeedDocs = 10000;
constexpr uint64_t kSeed = 11;

IndexBuildOptions BuildOptions() {
  IndexBuildOptions options;
  options.strategy = Strategy::kRelationships;
  // Lazy vocabulary: the bench measures the commit path (corpus extension
  // + segment seal + publish), not precomputation.
  options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
  return options;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(samples.size()));
  return samples[std::min(rank, samples.size() - 1)];
}

/// Commits `count` single documents (ids `next_doc`...) and returns each
/// commit's wall time in milliseconds. AddDocument is the whole path
/// under test: corpus extension, segment seal, snapshot publish.
std::vector<double> TimeCommits(XOntoRank* engine, const CdaGenerator& gen,
                                uint32_t next_doc, size_t count) {
  std::vector<double> millis;
  millis.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    uint32_t doc_id = next_doc + static_cast<uint32_t>(i);
    XmlDocument doc = CdaToXml(gen.GenerateDocument(doc_id), doc_id);
    Timer timer;
    engine->AddDocument(std::move(doc));
    millis.push_back(timer.ElapsedMillis());
  }
  return millis;
}

/// Median single-document commit latency into an engine over a
/// `seed_docs`-document corpus, over `commits` commits with background
/// compaction on.
double MedianCommitMs(size_t seed_docs, size_t commits) {
  bench::ExperimentSetup setup(seed_docs, kSeed);
  const CdaGenerator& gen = *setup.generator;
  XOntoRank engine(gen.GenerateCorpus(), setup.search_ontology,
                   BuildOptions());
  std::vector<double> millis = TimeCommits(
      &engine, gen, static_cast<uint32_t>(seed_docs), commits);
  engine.WaitForCompactionIdle();
  return Percentile(std::move(millis), 0.5);
}

int RunSmoke() {
  constexpr size_t kSmallDocs = 1000;
  constexpr size_t kCommits = 20;
  constexpr double kMaxRatio = 3.0;
  double small_median = MedianCommitMs(kSmallDocs, kCommits);
  double large_median = MedianCommitMs(kSeedDocs, kCommits);
  double ratio = small_median > 0.0 ? large_median / small_median : 0.0;
  bool ok = ratio <= kMaxRatio;
  std::printf("bench_ingest --smoke: %s — median single-doc commit %.3f ms "
              "at %zu docs vs %.3f ms at %zu docs (%.2fx, gate <= %.0fx)\n",
              ok ? "OK" : "FAILED", large_median, kSeedDocs, small_median,
              kSmallDocs, ratio, kMaxRatio);
  return ok ? 0 : 1;
}

/// Compaction seen from outside, the way the perfbench workloads see it: a
/// segment id not seen before that spans more than one document is a merge
/// output, and its documents were rewritten. A merge whose output is
/// merged again before the next poll goes unseen.
struct CompactionTally {
  std::set<uint64_t> known;
  size_t merges = 0;
  size_t docs_rewritten = 0;

  void Poll(const XOntoRank& engine) {
    for (const auto& segment : engine.snapshot()->segments()) {
      if (!known.insert(segment->id()).second) continue;
      if (segment->num_docs() > 1) {
        ++merges;
        docs_rewritten += segment->num_docs();
      }
    }
  }
};

/// The interleaved phase: `commits` single-doc commits, a
/// top-10 two-keyword search after each. Prints commit p50/p99 and the
/// mean interleaved search latency. A non-null `tally` is polled after
/// every commit.
void RunInterleaved(const char* label, XOntoRank* engine,
                    const CdaGenerator& gen, size_t commits,
                    CompactionTally* tally = nullptr) {
  std::vector<double> commit_ms;
  std::vector<double> search_ms;
  for (size_t i = 0; i < commits; ++i) {
    uint32_t doc_id = kSeedDocs + static_cast<uint32_t>(i);
    XmlDocument doc = CdaToXml(gen.GenerateDocument(doc_id), doc_id);
    Timer commit_timer;
    engine->AddDocument(std::move(doc));
    commit_ms.push_back(commit_timer.ElapsedMillis());
    if (tally != nullptr) tally->Poll(*engine);

    Timer search_timer;
    SearchResponse response =
        engine->Search("asthma theophylline", bench::TimedSearch(10));
    search_ms.push_back(search_timer.ElapsedMillis());
    if (response.results.empty()) std::printf("(%s: empty results?)\n", label);
  }
  double mean_search = 0.0;
  for (double ms : search_ms) mean_search += ms;
  mean_search /= static_cast<double>(search_ms.size());
  std::printf("%8s %8zu %12.3f %12.3f %14.3f\n", label, commits,
              Percentile(commit_ms, 0.5), Percentile(commit_ms, 0.99),
              mean_search);
}

/// The compactor's cost per rewritten document under the default
/// vocabulary, where every segment precomputes its lists and a merge
/// concatenates real postings: `commits` single-document commits into a
/// fresh engine with auto compaction off, each followed by a timed
/// CompactNow().
void RunCompactionCost(const CdaGenerator& gen, const Ontology& ontology,
                       size_t commits) {
  IndexBuildOptions options;
  options.strategy = Strategy::kRelationships;
  options.lsm.auto_compact = false;
  XOntoRank engine(Corpus(), ontology, options);
  CompactionTally tally;
  double compact_ms = 0.0;
  for (size_t i = 0; i < commits; ++i) {
    uint32_t doc_id = static_cast<uint32_t>(i);
    engine.AddDocument(CdaToXml(gen.GenerateDocument(doc_id), doc_id));
    tally.Poll(engine);
    Timer timer;
    engine.CompactNow();
    compact_ms += timer.ElapsedMillis();
    tally.Poll(engine);
  }
  std::printf("compactor (default vocabulary, %zu single-doc commits, "
              "CompactNow after each): %zu segments, %zu merges, %.2f docs "
              "rewritten per committed doc, %.1f ms total, %.3f ms per "
              "rewritten doc\n",
              commits, engine.snapshot()->segments().size(), tally.merges,
              static_cast<double>(tally.docs_rewritten) /
                  static_cast<double>(commits),
              compact_ms,
              tally.docs_rewritten > 0
                  ? compact_ms / static_cast<double>(tally.docs_rewritten)
                  : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return RunSmoke();

  std::printf("LSM INGEST — O(delta) commits "
              "(%zu-doc seed corpus, single-doc commits)\n\n",
              kSeedDocs);
  bench::ExperimentSetup setup(kSeedDocs, kSeed);
  const CdaGenerator& gen = *setup.generator;

  std::printf("%8s %8s %12s %12s %14s\n", "engine", "commits", "p50 ms",
              "p99 ms", "search ms");
  bench::PrintRule(60);

  XOntoRank engine(gen.GenerateCorpus(), setup.search_ontology, BuildOptions());
  constexpr size_t kStreamCommits = 200;
  CompactionTally tally;
  tally.Poll(engine);
  tally.merges = 0;  // the seed corpus's segment is not a merge
  tally.docs_rewritten = 0;
  RunInterleaved("stream", &engine, gen, kStreamCommits, &tally);
  engine.WaitForCompactionIdle();
  tally.Poll(engine);
  const size_t stream_segments = engine.snapshot()->segments().size();

  std::printf("\nstream (%zu commits): %zu segments at the end, %zu "
              "merges, %.2f docs rewritten per committed doc\n",
              kStreamCommits, stream_segments, tally.merges,
              static_cast<double>(tally.docs_rewritten) /
                  static_cast<double>(kStreamCommits));
  RunCompactionCost(gen, setup.search_ontology, /*commits=*/256);
  std::printf("\n");

  // Concurrent phase: readers hammer Search while the writer streams
  // commits and the background compactor folds segments.
  constexpr int kReaders = 2;
  constexpr double kPhaseSeconds = 2.0;
  std::atomic<bool> stop{false};
  std::atomic<size_t> searches{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&engine, &stop, &searches] {
      while (!stop.load(std::memory_order_relaxed)) {
        engine.Search("asthma theophylline", bench::TimedSearch(10));
        searches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<double> commit_ms;
  uint32_t next_doc = static_cast<uint32_t>(engine.corpus_size());
  Timer phase;
  while (phase.ElapsedMillis() < kPhaseSeconds * 1000.0) {
    XmlDocument doc = CdaToXml(gen.GenerateDocument(next_doc), next_doc);
    Timer commit_timer;
    engine.AddDocument(std::move(doc));
    commit_ms.push_back(commit_timer.ElapsedMillis());
    ++next_doc;
  }
  double elapsed = phase.ElapsedMillis() / 1000.0;
  stop.store(true);
  for (std::thread& t : readers) t.join();
  engine.WaitForCompactionIdle();
  std::printf("concurrent (%d readers, %.1fs): %.0f searches/s alongside "
              "%zu commits (p50 %.3f ms, p99 %.3f ms), %zu segments after "
              "compaction\n",
              kReaders, elapsed,
              static_cast<double>(searches.load()) / elapsed,
              commit_ms.size(), Percentile(commit_ms, 0.5),
              Percentile(commit_ms, 0.99),
              engine.snapshot()->segments().size());
  return 0;
}
