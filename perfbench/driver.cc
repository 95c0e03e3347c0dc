// The repository benchmark's workload driver (run it through
// perfbench/run.py, which builds it). One run = one workload, one seed:
//
//   perfbench_driver --workload serve|fig11-lazy|ingest --seed N
//                    --seconds S --trace 0|1 --workdir DIR
//                    [--trace-out FILE] [--digests FILE]
//
// Every workload serves the Relationships strategy from LSM segments at
// top-10 to one closed-loop client (a clinician's search box waits for its
// answer), and every run walks the same phases, so every end-to-end metric
// is measured on every workload:
//
//   1. inputs: ontology, CDA documents (CdaGenerator, workload seed) and the
//      query sets, all generated before any timing;
//   2. set-up: build a fresh engine and run the 140-query cold set once
//      (Table I + expert queries + 30 each of 1-4 keywords) -> setup_s,
//      cold_query_p50_ms / cold_query_p90_ms;
//   3. reference answers after the first set-up only (every pool query
//      once with pruning = kExact and use_cache = false, outside any timed
//      region), then a third of the workload's read phase -> query_p50_ms /
//      query_p99_ms / queries_per_s (ingest has none: its queries are the
//      ones interleaved with its commits);
//   4. a stream of 400 single-document commits (StageDocument + Commit),
//      then WaitForCompactionIdle -> commit_p50_ms / ingest_docs_per_s;
//   5. after the first stream only, SaveEngineDir; then LoadEngineDir at
//      least twice and for at least a second -> load_s; the first loaded engine's answers must
//      equal the live engine's;
//   6. phases 2 to 5 twice more, on fresh engines (without the reference
//      pass except on ingest, and without the save), so every repeated
//      operation runs in three stretches of the run, apart in time.
//
// The host this runs on is shared: neighbours slow its virtual CPUs, one or
// more at a time, for seconds. So the client thread moves itself to the
// currently fastest CPU between operations (CpuPicker), and where an
// operation repeats (cold queries and commit positions across set-ups, the
// read phase's queries across replays, the loads) the run reports its
// fastest repetition.
//
// Every answer is checked against its reference outside the timed region;
// any mismatch or non-OK Status counts as a failed operation and makes the
// run exit nonzero. At the default seed the run also checks a digest of
// the reference answers (doc, Dewey, score bits, order) against the one
// recorded in expected_digests.txt, so any ranking change shows.
//
// --trace 1 runs the same phases with every other operation traced: spans
// around each public call (trace.h), from which the per-layer metrics and
// the tracing overhead are derived. End-to-end metrics come from --trace 0.
//
// The driver uses only public calls that survive the planned simplifications
// of the engine: Search with SearchOptions, StageDocument/Commit,
// WaitForCompactionIdle, snapshot()->segments()/context(), two-argument
// SaveEngineDir, LoadEngineDir, ComputeOntoScores, ParseQuery and ParseXml.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "cda/cda_document.h"
#include "cda/cda_generator.h"
#include "common/thread_pool.h"
#include "core/onto_score.h"
#include "core/xontorank.h"
#include "eval/workload.h"
#include "ir/query.h"
#include "onto/ontology_generator.h"
#include "onto/snomed_fragment.h"
#include "perfbench/trace.h"
#include "storage/engine_store.h"
#include "xml/xml_parser.h"

namespace perfbench {
namespace {

using namespace xontorank;

constexpr uint64_t kDigestSeed = 1;  ///< seed whose digests are recorded
/// The ontology extension, the query sets and the order in which queries
/// are issued are the fixed experiment, seeded as in the paper benches
/// (bench_util.h, bench_fig11_query_time); the workload seed varies the
/// documents. A seed-dependent query mix would move the latency
/// percentiles by more than the run-to-run noise.
constexpr uint64_t kOntologySeed = 13;
constexpr uint64_t kQuerySeed = 97;
/// CdaGenerator shuffles its disorder popularity ranking with its own seed,
/// which shifts the cost of every query together (by up to 25% between
/// seeds). The ranking is a property of the clinic, so it stays fixed: the
/// generator keeps this seed, and the workload seed picks which records
/// are drawn from it (a disjoint range of generator indices per seed).
constexpr uint64_t kClinicSeed = 1;
constexpr size_t kTopK = 10;
constexpr int kSetups = 3;
constexpr size_t kQueriesPerLength = 30;
constexpr size_t kMaxKeywords = 4;
/// Commits after each set-up; three streams of 400 cost what one stream of
/// 1,200 would, and give each commit position a fastest-of-three.
constexpr size_t kCommits = 400;
/// Serve's query pool: four times the 256-entry result cache.
constexpr size_t kPoolSize = 1024;
/// Zipf exponent of serve's query draws; keeps the cache hit ratio near
/// 0.3, so the median query is a miss.
constexpr double kZipfExponent = 0.3;
/// Length of serve's replayed query sequence.
constexpr size_t kServeSequence = 2000;
/// Pool queries compared between the live and the reloaded engine on the
/// workloads that do not compare the whole pool.
constexpr size_t kReloadSample = 40;
/// Warm repetitions of the cold set per traced run (list_resolve metric).
constexpr int kWarmPasses = 3;
/// Loads after each stream: at least this many, and for at least this long.
constexpr int kMinLoads = 2;
constexpr double kLoadSeconds = 1.0;

struct Workload {
  const char* name;
  size_t base_docs;
  size_t extra_concepts;  ///< synthetic concepts added to the fragment
  bool lazy_vocabulary;   ///< VocabularyMode::kNone
  bool use_cache;         ///< result cache on for the timed queries
  /// Background compaction during the commit stream. Off on fig11-lazy:
  /// merging lazy segments re-runs stage 1 over every input document, so a
  /// commit stream would leave minutes of compaction to drain.
  bool auto_compact;
  /// ingest: the timed queries are the ones interleaved with the commits,
  /// the reload check covers the whole pool.
  bool ingest;
};

constexpr Workload kWorkloads[] = {
    {"serve", 600, 0, false, true, true, false},
    {"fig11-lazy", 400, 3000, true, false, false, false},
    {"ingest", 600, 0, false, false, true, true},
};

IndexBuildOptions BuildOptions(const Workload& workload) {
  IndexBuildOptions options;
  options.strategy = Strategy::kRelationships;
  if (workload.lazy_vocabulary) {
    options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
  }
  // Segment sets are the serving state every workload measures.
  options.lsm.enabled = true;
  options.lsm.auto_compact = workload.auto_compact;
  return options;
}

SearchOptions Timed(bool use_cache) {
  SearchOptions options;
  options.top_k = kTopK;
  options.use_cache = use_cache;
  return options;
}

SearchOptions Reference() {
  SearchOptions options = Timed(/*use_cache=*/false);
  options.pruning = PruningMode::kExact;
  return options;
}

double MillisSince(int64_t start_ns) {
  return static_cast<double>(NowNanos() - start_ns) / 1e6;
}

/// On a shared host, neighbours' load slows each virtual CPU by up to 1.9x
/// (5x at the median of a bad second), in stretches of one to several
/// seconds, while usually at least one CPU runs at full speed. The client
/// thread therefore moves itself, between operations, to whichever allowed
/// CPU currently runs a fixed spin fastest: before every long operation,
/// and at least every kRepickNs between short ones. The engine's own
/// threads (the background compactor's pool) may use every other CPU but
/// not that one: a closed-loop client does not share its core with the
/// server's background work, and the compactor a Commit wakes would
/// otherwise often start on the committing thread's CPU.
class CpuPicker {
 public:
  CpuPicker() {
    // Threads inherit their creator's CPU affinity: start the engine's
    // shared pool (the background compactor's) before the first move, so
    // its workers may run on any CPU.
    ThreadPool::Shared();
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    }
  }

  /// Between short operations: moves when the last pick is stale.
  void Refresh() {
    if (NowNanos() - picked_ns_ >= kRepickNs) MoveToFastest();
  }

  void MoveToFastest() {
    picked_ns_ = NowNanos();
    if (cpus_.size() < 2) return;
    int best = -1;
    double best_ms = HUGE_VAL;
    for (int cpu : cpus_) {
      if (!PinTo(cpu)) return;
      double ms = std::min(Spin(), Spin());
      if (ms < best_ms) {
        best_ms = ms;
        best = cpu;
      }
    }
    PinTo(best);
    ReserveFor(best);
  }

 private:
  static bool PinTo(int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof(set), &set) == 0;
  }
  /// Moves every other thread of the process off `cpu`.
  void ReserveFor(int cpu) const {
    cpu_set_t others;
    CPU_ZERO(&others);
    for (int c : cpus_) {
      if (c != cpu) CPU_SET(c, &others);
    }
    const pid_t self = gettid();
    std::error_code ec;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task", ec)) {
      pid_t tid = static_cast<pid_t>(
          std::strtol(task.path().filename().c_str(), nullptr, 10));
      if (tid != self) sched_setaffinity(tid, sizeof(others), &others);
    }
  }
  static double Spin() {
    int64_t start = NowNanos();
    volatile uint64_t sink = 0;
    for (uint64_t i = 0; i < 100000; ++i) sink = sink + i * i;
    return static_cast<double>(NowNanos() - start) / 1e6;
  }

  /// A pick costs about 0.5 ms of spinning, outside every timed region.
  static constexpr int64_t kRepickNs = 100'000'000;

  std::vector<int> cpus_;
  int64_t picked_ns_ = 0;
};

/// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  return samples[std::clamp<size_t>(rank, 1, samples.size()) - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Sum(const std::vector<double>& samples) {
  double total = 0.0;
  for (double x : samples) total += x;
  return total;
}

bool SameResults(const std::vector<QueryResult>& a,
                 const std::vector<QueryResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].element != b[i].element) return false;
    if (std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// FNV-1a over (query index, each result's Dewey components and score
/// bits, in rank order).
class Digest {
 public:
  void Add(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 1099511628211ull;
    }
  }
  void AddAnswer(uint64_t query, const std::vector<QueryResult>& results) {
    Add(&query, sizeof(query));
    for (const QueryResult& r : results) {
      const std::vector<uint32_t>& dewey = r.element.components();
      uint64_t depth = dewey.size();
      Add(&depth, sizeof(depth));
      Add(dewey.data(), dewey.size() * sizeof(uint32_t));
      Add(&r.score, sizeof(r.score));
    }
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

/// VmHWM from /proc/self/status, in MB; 0 where unavailable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    unsigned long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %lu kB", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0.0;
}

/// Everything a run generates before timing starts.
struct Inputs {
  Ontology ontology;         ///< with therapy edges: drives the generator
  Ontology search_ontology;  ///< SNOMED-faithful: what the engine indexes
  std::unique_ptr<CdaGenerator> generator;
  std::vector<std::string> cold_set;  ///< the 140 cold/warm-pass queries
  std::vector<std::string> pool;      ///< cold_set first, then generated

  Inputs(const Workload& workload, uint64_t seed)
      : ontology(BuildSnomedCardiologyFragment(true)),
        search_ontology(BuildSnomedCardiologyFragment(false)) {
    if (workload.extra_concepts > 0) {
      OntologyGeneratorOptions extend;
      extend.num_concepts = workload.extra_concepts;
      extend.seed = kOntologySeed;
      ExtendOntology(ontology, extend);
      ExtendOntology(search_ontology, extend);
    }
    CdaGeneratorOptions corpus;
    corpus.num_documents = workload.base_docs + kCommits;
    corpus.seed = kClinicSeed;
    generator = std::make_unique<CdaGenerator>(ontology, corpus);
    first_record = static_cast<uint32_t>(seed * corpus.num_documents);

    std::unordered_set<std::string> seen;
    auto add = [&](std::vector<std::string>* set, const WorkloadQuery& q) {
      if (seen.insert(q.text).second) set->push_back(q.text);
    };
    for (const WorkloadQuery& q : TableOneQueries()) add(&cold_set, q);
    for (const WorkloadQuery& q : ExtendedExpertQueries()) add(&cold_set, q);
    for (size_t k = 1; k <= kMaxKeywords; ++k) {
      for (const WorkloadQuery& q :
           FixedLengthQueries(ontology, k, kQueriesPerLength, kQuerySeed)) {
        add(&cold_set, q);
      }
    }
    pool = cold_set;
    if (workload.lazy_vocabulary) return;  // fig11-lazy runs the cold set
    for (const WorkloadQuery& q :
         GeneratedQueries(ontology, kPoolSize - pool.size(), kQuerySeed)) {
      add(&pool, q);
    }
  }

  XmlDocument Document(uint32_t doc_id) const {
    return CdaToXml(generator->GenerateDocument(first_record + doc_id),
                    doc_id);
  }

  uint32_t first_record = 0;  ///< generator index of document 0
};

/// Failed-operation accounting; prints the first few failures.
struct Outcome {
  size_t attempted = 0;
  size_t failed = 0;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    if (++failed <= 10) std::printf("FAILED: %s\n", what.c_str());
  }
};

/// What one run measured. Samples are milliseconds unless named otherwise.
struct Measurements {
  std::vector<double> setup_s;
  /// Per cold-set query, its time in each set-up's cold pass.
  std::vector<std::vector<double>> cold_ms;
  std::vector<std::vector<double>> warm_ms;  ///< per cold-set query
  std::vector<double> query_ms;
  /// serve and fig11-lazy: per position of the replayed read sequence,
  /// its fastest counted replay.
  std::vector<double> query_floor_ms;
  std::vector<double> traced_query_ms, untraced_query_ms;
  std::vector<double> commit_ms;
  std::vector<double> commit_floor_ms;  ///< per commit position
  std::vector<double> drain_s;          ///< per commit stream
  double save_s = 0.0;
  double load_s = HUGE_VAL;
  double saved_bytes = 0.0;
  size_t saved_docs = 0;
  size_t cache_hits = 0;
  // Merge work of uncached timed queries (QueryStats).
  size_t merge_queries = 0;
  double postings_scanned = 0, postings_scored = 0, blocks_skipped = 0,
         results = 0;
  double traced_postings = 0;  ///< postings scanned by traced misses
  std::vector<double> segments_at_query;
  std::vector<size_t> segments_after_commit;
  size_t merges = 0;
  size_t docs_rewritten = 0;
  double onto_us = 0.0;
  size_t onto_keywords = 0;
  size_t onto_concepts = 0;
  double xml_bytes = 0.0;
  bench::RssBreakdown after_load;
};

class Run {
 public:
  Run(const Workload& workload, uint64_t seed, double seconds, bool trace,
      std::string workdir)
      : workload_(workload),
        seed_(seed),
        seconds_(seconds),
        trace_(trace),
        workdir_(std::move(workdir)),
        options_(BuildOptions(workload)),
        inputs_(workload, seed) {}

  int Execute(const std::string& trace_out, const std::string& digests);

 private:
  std::vector<XmlDocument> BaseCorpus() const {
    std::vector<XmlDocument> docs;
    docs.reserve(workload_.base_docs);
    for (uint32_t d = 0; d < workload_.base_docs; ++d) {
      docs.push_back(inputs_.Document(d));
    }
    return docs;
  }

  /// One timed query: ParseQuery + Search. Returns the latency in ms.
  double QueryOp(const XOntoRank& engine, const std::string& text,
                 const SearchOptions& options, SearchResponse* response) {
    int64_t start = NowNanos();
    Tracer::Scope op = tracer_.Open("op.query");
    KeywordQuery query;
    {
      Tracer::Scope span = tracer_.Open("ir.ParseQuery");
      query = ParseQuery(text);
    }
    {
      Tracer::Scope span = tracer_.Open("core.Search");
      *response = engine.Search(query, options);
      span.set_count(response->stats.cache_hit ? 1 : 0);
    }
    return MillisSince(start);
  }

  /// Records a timed query's latency and work counters. Every other timed
  /// operation is traced in a traced run.
  void RecordQuery(double ms, const SearchResponse& response, bool traced) {
    m_.query_ms.push_back(ms);
    (traced ? m_.traced_query_ms : m_.untraced_query_ms).push_back(ms);
    if (response.stats.cache_hit) {
      ++m_.cache_hits;
      return;
    }
    ++m_.merge_queries;
    m_.postings_scanned += static_cast<double>(response.stats.postings_scanned);
    m_.postings_scored += static_cast<double>(response.stats.postings_scored);
    m_.blocks_skipped += static_cast<double>(response.stats.blocks_skipped);
    m_.results += static_cast<double>(response.results.size());
    if (traced) {
      m_.traced_postings +=
          static_cast<double>(response.stats.postings_scanned);
    }
  }

  std::vector<std::vector<QueryResult>> SetUp();
  void CheckColdAnswers(const std::vector<std::vector<QueryResult>>& answers);
  void ComputeReferences();
  void WarmPasses();
  void ReadPhase();
  void CommitStream(int stream);
  void ProfileOntoScores();
  void SaveEngine();
  void LoadEngine(bool check);
  std::string engine_dir() const { return workdir_ + "/engine"; }
  void PollSegments();
  void ReportAndPrint(const std::string& digest_status,
                      const std::string& digest);

  const Workload& workload_;
  uint64_t seed_;
  double seconds_;
  bool trace_;
  std::string workdir_;
  IndexBuildOptions options_;
  Inputs inputs_;
  Tracer tracer_;
  CpuPicker cpu_;
  Outcome outcome_;
  Measurements m_;
  std::unique_ptr<XOntoRank> engine_;
  std::vector<std::vector<QueryResult>> reference_;  ///< per pool query
  /// ingest: per commit position, the reference answer of its query.
  std::vector<std::vector<QueryResult>> commit_reference_;
  /// The saved engine's answers to the pool queries the reload must match.
  std::vector<std::vector<QueryResult>> live_;
  std::set<uint64_t> known_segments_;
  Digest digest_;
};

/// One set-up: a fresh engine and its cold pass. Returns the cold answers.
std::vector<std::vector<QueryResult>> Run::SetUp() {
  engine_.reset();  // one engine alive at a time
  std::vector<XmlDocument> corpus = BaseCorpus();
  cpu_.MoveToFastest();
  tracer_.BeginOp(trace_);
  int64_t start = NowNanos();
  {
    Tracer::Scope span = tracer_.Open("core.XOntoRank");
    engine_ = std::make_unique<XOntoRank>(std::move(corpus),
                                          inputs_.search_ontology, options_);
  }
  double setup_ms = MillisSince(start);
  // The cold pass is timed by the driver, not traced: core.Search spans
  // belong to the timed phase only.
  tracer_.BeginOp(false);
  std::vector<std::vector<QueryResult>> answers;
  m_.cold_ms.resize(inputs_.cold_set.size());
  for (size_t q = 0; q < inputs_.cold_set.size(); ++q) {
    cpu_.Refresh();
    SearchResponse response;
    double ms = QueryOp(*engine_, inputs_.cold_set[q],
                        Timed(/*use_cache=*/false), &response);
    m_.cold_ms[q].push_back(ms);
    setup_ms += ms;
    answers.push_back(std::move(response.results));
  }
  m_.setup_s.push_back(setup_ms / 1000.0);
  return answers;
}

void Run::CheckColdAnswers(
    const std::vector<std::vector<QueryResult>>& answers) {
  for (size_t q = 0; q < answers.size(); ++q) {
    outcome_.Check(SameResults(answers[q], reference_[q]),
                   "cold answer for \"" + inputs_.pool[q] + "\"");
  }
}

/// The first call records every pool query's reference answer; a later
/// call (on a later set-up's engine) must reproduce them.
void Run::ComputeReferences() {
  tracer_.BeginOp(false);
  for (size_t q = 0; q < inputs_.pool.size(); ++q) {
    std::vector<QueryResult> results =
        engine_->Search(ParseQuery(inputs_.pool[q]), Reference()).results;
    if (q < reference_.size()) {
      outcome_.Check(SameResults(results, reference_[q]),
                     "reference for \"" + inputs_.pool[q] + "\"");
      continue;
    }
    digest_.AddAnswer(q, results);
    reference_.push_back(std::move(results));
  }
}

void Run::WarmPasses() {
  m_.warm_ms.assign(inputs_.cold_set.size(), {});
  for (int pass = 0; pass < kWarmPasses; ++pass) {
    for (size_t q = 0; q < inputs_.cold_set.size(); ++q) {
      cpu_.Refresh();
      tracer_.BeginOp(false);
      SearchResponse response;
      m_.warm_ms[q].push_back(QueryOp(*engine_, inputs_.cold_set[q],
                                      Timed(/*use_cache=*/false), &response));
      outcome_.Check(SameResults(response.results, reference_[q]),
                     "warm answer for \"" + inputs_.cold_set[q] + "\"");
    }
  }
}

/// The timed read phase replays one fixed query sequence until its share
/// of the time is up; it runs once per set-up, on the fresh engine.
/// serve: kServeSequence Zipf draws over the pool, result cache on; its
/// first replay refills the cache and is not counted, after which every
/// position meets the same LRU state, so it is a hit or a miss in every
/// replay. fig11-lazy: the cold set in a shuffled order, cache off.
void Run::ReadPhase() {
  std::mt19937_64 rng(kQuerySeed);
  std::vector<size_t> order(inputs_.pool.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);  // rank -> pool query
  std::vector<size_t> sequence = order;
  if (workload_.use_cache) {
    std::vector<double> weights(order.size());
    for (size_t r = 0; r < weights.size(); ++r) {
      weights[r] = 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    }
    std::discrete_distribution<size_t> zipf(weights.begin(), weights.end());
    sequence.clear();
    for (size_t i = 0; i < kServeSequence; ++i) {
      sequence.push_back(order[zipf(rng)]);
    }
  }
  const size_t first_counted = workload_.use_cache ? 1 : 0;
  const SearchOptions options = Timed(workload_.use_cache);
  const double segments =
      static_cast<double>(engine_->snapshot()->segments().size());
  if (m_.query_floor_ms.empty()) {
    m_.query_floor_ms.assign(sequence.size(), HUGE_VAL);
  }

  // The measured time is split evenly over the set-ups.
  const double budget_ms = seconds_ * 1000.0 / kSetups;
  int64_t start = NowNanos();
  bool done = false;
  for (size_t replay = 0; !done; ++replay) {
    // Traced and untraced replays alternate, so both see the same queries.
    bool traced = trace_ && replay % 2 == 1;
    for (size_t pos = 0; pos < sequence.size(); ++pos) {
      if (replay > first_counted && MillisSince(start) >= budget_ms) {
        done = true;
        break;
      }
      cpu_.Refresh();
      size_t q = sequence[pos];
      tracer_.BeginOp(traced);
      SearchResponse response;
      double ms = QueryOp(*engine_, inputs_.pool[q], options, &response);
      RecordQuery(ms, response, traced);
      if (replay >= first_counted) {
        m_.query_floor_ms[pos] = std::min(m_.query_floor_ms[pos], ms);
      }
      m_.segments_at_query.push_back(segments);
      outcome_.Check(SameResults(response.results, reference_[q]),
                     "answer for \"" + inputs_.pool[q] + "\"");
    }
  }
}

/// Compaction seen from outside: a segment id not seen before that spans
/// more than one document is a merge output.
void Run::PollSegments() {
  Tracer::Scope span = tracer_.Open("core.segments");
  std::shared_ptr<const IndexSnapshot> snapshot = engine_->snapshot();
  for (const auto& segment : snapshot->segments()) {
    if (!known_segments_.insert(segment->id()).second) continue;
    if (segment->num_docs() > 1) {
      ++m_.merges;
      m_.docs_rewritten += segment->num_docs();
    }
  }
  span.set_count(static_cast<int64_t>(snapshot->segments().size()));
}

/// One stream on the set-up's fresh engine. Every stream commits the same
/// documents and (ingest) asks the same queries in the same order, so each
/// position meets the same index in every stream.
void Run::CommitStream(int stream) {
  // Compaction counts, like the segment growth, describe one stream.
  known_segments_.clear();
  m_.merges = 0;
  m_.docs_rewritten = 0;
  m_.segments_after_commit.clear();
  for (const auto& segment : engine_->snapshot()->segments()) {
    known_segments_.insert(segment->id());
  }
  if (stream == 0) m_.commit_floor_ms.assign(kCommits, HUGE_VAL);
  std::mt19937_64 rng(kQuerySeed);
  std::uniform_int_distribution<size_t> pick(0, inputs_.pool.size() - 1);
  const uint32_t base = static_cast<uint32_t>(workload_.base_docs);
  for (uint32_t i = 0; i < kCommits; ++i) {
    XmlDocument doc = inputs_.Document(base + i);
    cpu_.Refresh();
    bool traced = trace_ && i % 2 == 1;
    tracer_.BeginOp(traced);
    uint32_t doc_id = 0;
    int64_t start = NowNanos();
    {
      Tracer::Scope op = tracer_.Open("op.commit");
      {
        Tracer::Scope span = tracer_.Open("core.StageDocument");
        doc_id = engine_->StageDocument(std::move(doc));
      }
      Tracer::Scope span = tracer_.Open("core.Commit");
      engine_->Commit();
    }
    double commit_ms = MillisSince(start);
    m_.commit_ms.push_back(commit_ms);
    m_.commit_floor_ms[i] = std::min(m_.commit_floor_ms[i], commit_ms);
    PollSegments();
    size_t segments = engine_->snapshot()->segments().size();
    m_.segments_after_commit.push_back(segments);
    outcome_.Check(doc_id == base + i &&
                       engine_->corpus_size() == size_t{base} + i + 1,
                   "commit of document " + std::to_string(base + i));
    if (!workload_.ingest) continue;

    size_t q = pick(rng);
    cpu_.Refresh();
    SearchResponse response;
    double ms = QueryOp(*engine_, inputs_.pool[q],
                        Timed(workload_.use_cache), &response);
    RecordQuery(ms, response, traced);
    m_.segments_at_query.push_back(static_cast<double>(segments));
    // Answers do not depend on the segmentation, so the first stream's
    // reference holds for the same position in the later streams.
    if (stream == 0) {
      commit_reference_.push_back(
          engine_->Search(ParseQuery(inputs_.pool[q]), Reference()).results);
    }
    outcome_.Check(SameResults(response.results, commit_reference_[i]),
                   "answer for \"" + inputs_.pool[q] + "\" after commit " +
                       std::to_string(i));
  }
  tracer_.BeginOp(trace_);
  int64_t start = NowNanos();
  {
    Tracer::Scope span = tracer_.Open("core.WaitForCompactionIdle");
    engine_->WaitForCompactionIdle();
  }
  m_.drain_s.push_back(MillisSince(start) / 1000.0);
  PollSegments();
}

/// Stage 2 on its own: OntoScore rows for every distinct cold-set keyword.
void Run::ProfileOntoScores() {
  std::shared_ptr<const IndexSnapshot> snapshot = engine_->snapshot();
  const OntologyIndex& index = snapshot->context()->index(0);
  std::set<std::string> seen;
  tracer_.BeginOp(true);
  for (const std::string& text : inputs_.cold_set) {
    for (const Keyword& keyword : ParseQuery(text).keywords) {
      if (!seen.insert(keyword.Canonical()).second) continue;
      int64_t start = NowNanos();
      Tracer::Scope span = tracer_.Open("onto_score.ComputeOntoScores");
      OntoScoreMap row = ComputeOntoScores(index, keyword, options_.strategy,
                                           options_.score);
      m_.onto_us += MillisSince(start) * 1000.0;
      m_.onto_concepts += row.size();
      ++m_.onto_keywords;
      span.set_count(static_cast<int64_t>(row.size()));
    }
  }
}

/// After the first stream: records the answers the reloaded engine must
/// reproduce (the first `checked` pool queries), saves the engine and
/// drops it. Every stream ends with the same documents committed, so the
/// one saved directory stands for all of them.
void Run::SaveEngine() {
  const size_t checked = workload_.ingest
                             ? inputs_.pool.size()
                             : std::min(kReloadSample, inputs_.pool.size());
  tracer_.BeginOp(false);
  for (size_t q = 0; q < checked; ++q) {
    live_.push_back(
        engine_->Search(ParseQuery(inputs_.pool[q]), Timed(false)).results);
  }
  if (workload_.ingest) {
    // ingest's digest covers the final state: base plus every commit.
    digest_ = Digest();
    for (size_t q = 0; q < live_.size(); ++q) digest_.AddAnswer(q, live_[q]);
  }

  std::error_code ec;
  std::filesystem::remove_all(engine_dir(), ec);
  cpu_.MoveToFastest();
  tracer_.BeginOp(trace_);
  int64_t start = NowNanos();
  Status saved;
  {
    Tracer::Scope span = tracer_.Open("storage.SaveEngineDir");
    saved = SaveEngineDir(*engine_, engine_dir());
  }
  m_.save_s = MillisSince(start) / 1000.0;
  outcome_.Check(saved.ok(), "SaveEngineDir: " + saved.ToString());
  m_.saved_docs = engine_->corpus_size();
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(engine_dir(), ec)) {
    if (entry.is_regular_file(ec)) {
      m_.saved_bytes += static_cast<double>(entry.file_size(ec));
    }
  }
  engine_.reset();  // bound memory: the live and loaded engines never overlap

  if (trace_) {
    // XML parse on its own, over the saved corpus (read untimed).
    for (const auto& entry : std::filesystem::directory_iterator(
             engine_dir() + "/corpus", ec)) {
      std::ifstream file(entry.path(), std::ios::binary);
      std::stringstream text;
      text << file.rdbuf();
      std::string xml = text.str();
      Tracer::Scope span = tracer_.Open("xml.ParseXml");
      Result<XmlDocument> doc = ParseXml(xml);
      span.set_count(static_cast<int64_t>(xml.size()));
      outcome_.Check(doc.ok(), "ParseXml " + entry.path().string());
      m_.xml_bytes += static_cast<double>(xml.size());
    }
  }
}

/// Loads the saved engine at least kMinLoads times and for at least
/// kLoadSeconds, one engine alive at a time; load_s is the fastest load of the run (see
/// ReportAndPrint on floors). With `check`, the last loaded engine must
/// answer as the live one did.
void Run::LoadEngine(bool check) {
  engine_.reset();
  Result<std::unique_ptr<LoadedEngine>> loaded = Status::Internal("unset");
  const int64_t loads_start = NowNanos();
  int loads = 0;
  do {
    loaded = Status::Internal("unset");
    cpu_.MoveToFastest();
    tracer_.BeginOp(trace_);
    int64_t start = NowNanos();
    {
      Tracer::Scope span = tracer_.Open("storage.LoadEngineDir");
      loaded = LoadEngineDir(engine_dir());
    }
    m_.load_s = std::min(m_.load_s, MillisSince(start) / 1000.0);
    outcome_.Check(loaded.ok(),
                   "LoadEngineDir: " + loaded.status().ToString());
  } while (++loads < kMinLoads ||
           MillisSince(loads_start) < kLoadSeconds * 1e3);
  if (!check || !loaded.ok()) return;
  m_.after_load = bench::CurrentRssBreakdown();
  tracer_.BeginOp(false);
  const XOntoRank& engine = loaded.value()->engine();
  for (size_t q = 0; q < live_.size(); ++q) {
    const std::string& text = inputs_.pool[q];
    outcome_.Check(
        SameResults(engine.Search(ParseQuery(text), Timed(false)).results,
                    live_[q]),
        "reloaded answer for \"" + text + "\"");
  }
}

int Run::Execute(const std::string& trace_out, const std::string& digests) {
  // Each set-up is followed by every phase that repeats (read phase, commit
  // stream, load), so the repetitions of each lie apart in time and one
  // slow stretch of the host does not set all of them.
  for (int s = 0; s < kSetups; ++s) {
    std::vector<std::vector<QueryResult>> cold = SetUp();
    // The reference pass leaves the engine's per-keyword state warm for
    // every pool query, as a serving engine's would be. ingest's queries
    // run on each set-up's engine, so each of its streams starts from that
    // state; without it, only the first stream's queries would find it
    // (measured: up to 10x faster at the same position).
    if (s == 0 || workload_.ingest) ComputeReferences();
    if (s == 0) {
      if (trace_) {
        WarmPasses();
        ProfileOntoScores();
      }
    }
    CheckColdAnswers(cold);
    if (!workload_.ingest) ReadPhase();
    CommitStream(s);
    if (s == 0) SaveEngine();
    LoadEngine(/*check=*/s == 0);
  }
  std::error_code ec;
  std::filesystem::remove_all(engine_dir(), ec);

  // The recorded digest exists for the default seed only.
  std::string digest = digest_.Hex();
  std::string digest_status = "not recorded for this seed";
  if (seed_ == kDigestSeed && !digests.empty()) {
    std::ifstream file(digests);
    std::string line;
    digest_status = "missing from " + digests;
    while (std::getline(file, line)) {
      std::istringstream fields(line);
      std::string name, hex;
      if (!(fields >> name >> hex) || name != workload_.name) continue;
      digest_status =
          hex == digest ? "matches" : "MISMATCH (recorded " + hex + ")";
      outcome_.Check(hex == digest, "result digest");
    }
  }
  if (trace_ && !trace_out.empty() && !tracer_.WriteJsonLines(trace_out)) {
    std::printf("warning: cannot write %s\n", trace_out.c_str());
  }
  ReportAndPrint(digest_status, digest);
  return outcome_.failed == 0 ? 0 : 1;
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void PrintJson(const Outcome& outcome, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              outcome.failed == 0 ? "true" : "false", outcome.attempted,
              outcome.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, value, metrics[i].unit);
  }
  std::printf("}}\n");
}

void Run::ReportAndPrint(const std::string& digest_status,
                         const std::string& digest) {
  const Measurements& m = m_;
  // Co-tenants on a shared host only ever slow a run down, so where an
  // operation repeats, its fastest run is the steady estimate of its cost:
  // cold queries and commit positions repeat once per set-up, the read
  // phase's queries once per replay. Percentiles then run over the distinct
  // operations. ingest's queries are the exception: which of them meet a
  // just-published merge varies between streams, so a position's fastest
  // run is not its cost; their percentiles run over every sample.
  // ingest_docs_per_s is the rate of a stream made of each position's
  // fastest commit, followed by the median drain.
  std::vector<double> cold_floor_ms;
  size_t cold_samples = 0;
  for (const std::vector<double>& runs : m.cold_ms) {
    cold_floor_ms.push_back(*std::min_element(runs.begin(), runs.end()));
    cold_samples += runs.size();
  }
  const std::vector<double>& query_ms =
      m.query_floor_ms.empty() ? m.query_ms : m.query_floor_ms;
  double query_s = Sum(query_ms) / 1000.0;
  std::printf("workload %s seed %llu: %zu base docs + %zu commits, "
              "%zu pool queries, trace %d\n",
              workload_.name, static_cast<unsigned long long>(seed_),
              workload_.base_docs, kCommits, inputs_.pool.size(),
              trace_ ? 1 : 0);
  std::printf("result digest %s (%s)\n", digest.c_str(),
              digest_status.c_str());
  std::printf("ops_failed_ratio %.6f (%zu of %zu operations)\n",
              outcome_.attempted == 0
                  ? 0.0
                  : static_cast<double>(outcome_.failed) /
                        static_cast<double>(outcome_.attempted),
              outcome_.failed, outcome_.attempted);
  std::printf("samples: %zu queries, %zu cold queries, %zu commits\n",
              m.query_ms.size(), cold_samples, m.commit_ms.size());
  if (!m.segments_after_commit.empty()) {
    std::printf("segments after commit");
    for (size_t i : {size_t{0}, kCommits / 4 - 1, kCommits / 2 - 1,
                     3 * kCommits / 4 - 1, kCommits - 1}) {
      std::printf(" %zu:%zu", i + 1, m.segments_after_commit[i]);
    }
    std::printf("\n");
  }

  if (!trace_) {
    PrintJson(outcome_, {
        {"setup_s", Median(m.setup_s), "s"},
        {"query_p50_ms", Percentile(query_ms, 0.50), "ms"},
        {"query_p99_ms", Percentile(query_ms, 0.99), "ms"},
        {"queries_per_s", static_cast<double>(query_ms.size()) / query_s,
         "1/s"},
        {"cold_query_p50_ms", Percentile(cold_floor_ms, 0.50), "ms"},
        {"cold_query_p90_ms", Percentile(cold_floor_ms, 0.90), "ms"},
        {"commit_p50_ms", Percentile(m.commit_floor_ms, 0.50), "ms"},
        {"ingest_docs_per_s",
         static_cast<double>(kCommits) /
             (Sum(m.commit_floor_ms) / 1000.0 + Median(m.drain_s)),
         "1/s"},
        {"load_s", m.load_s, "s"},
        {"rss_peak_mb", PeakRssMb(), "MB"},
    });
    return;
  }

  std::printf("%-32s %8s %12s %12s\n", "span", "count", "total ms",
              "self ms");
  for (const auto& [name, layer] : tracer_.SelfTimes()) {
    std::printf("%-32s %8zu %12.3f %12.3f\n", name.c_str(), layer.count,
                layer.total_ms, layer.self_ms);
  }
  auto all = [](const Span&) { return true; };
  auto hits = [](const Span& s) { return s.count == 1; };
  auto misses = [](const Span& s) { return s.count == 0; };
  // list_resolve: a cold-set query's first run on a fresh engine minus
  // its warm median on the same engine.
  std::vector<double> cold_extra;
  for (size_t q = 0; q < m.warm_ms.size(); ++q) {
    cold_extra.push_back(m.cold_ms[q].front() - Median(m.warm_ms[q]));
  }
  std::vector<double> miss_ms = tracer_.Durations("core.Search", misses);
  double parse_s = Sum(tracer_.Durations("xml.ParseXml", all)) / 1000.0;
  double merges = static_cast<double>(std::max<size_t>(m.merge_queries, 1));
  double traced_p50 = Percentile(m.traced_query_ms, 0.5);
  double untraced_p50 = Percentile(m.untraced_query_ms, 0.5);
  PrintJson(outcome_, {
      {"ir.parse_us",
       Median(tracer_.Durations("ir.ParseQuery", all)) * 1000.0, "us"},
      {"onto_score.us_per_keyword",
       m.onto_us / static_cast<double>(m.onto_keywords), "us"},
      {"onto_score.concepts_per_keyword",
       static_cast<double>(m.onto_concepts) /
           static_cast<double>(m.onto_keywords),
       "count"},
      {"list_resolve.cold_extra_ms", Median(cold_extra), "ms"},
      {"merge.postings_scanned", m.postings_scanned / merges, "count"},
      {"merge.postings_scored", m.postings_scored / merges, "count"},
      {"merge.scored_ratio",
       m.postings_scanned > 0 ? m.postings_scored / m.postings_scanned : 0.0,
       "ratio"},
      {"merge.blocks_skipped", m.blocks_skipped / merges, "count"},
      {"merge.results", m.results / merges, "count"},
      {"merge.ns_per_posting",
       m.traced_postings > 0 ? Sum(miss_ms) * 1e6 / m.traced_postings : 0.0,
       "ns"},
      {"cache.hit_ratio",
       static_cast<double>(m.cache_hits) /
           static_cast<double>(m.query_ms.size()),
       "ratio"},
      {"cache.hit_us", Median(tracer_.Durations("core.Search", hits)) * 1000.0,
       "us"},
      {"cache.miss_us", Median(miss_ms) * 1000.0, "us"},
      {"segments.at_query",
       Sum(m.segments_at_query) /
           static_cast<double>(m.segments_at_query.size()),
       "count"},
      {"writer.stage_us",
       Median(tracer_.Durations("core.StageDocument", all)) * 1000.0, "us"},
      {"writer.commit_ms", Median(tracer_.Durations("core.Commit", all)),
       "ms"},
      // The commit tail is a per-layer number: over all samples, and even
      // over per-position floors, it moves with the host's noise by more
      // than any end-to-end bound.
      {"writer.commit_p99_ms", Percentile(m.commit_ms, 0.99), "ms"},
      {"compaction.merges", static_cast<double>(m.merges), "count"},
      {"compaction.docs_rewritten_per_doc",
       static_cast<double>(m.docs_rewritten) / static_cast<double>(kCommits),
       "ratio"},
      {"compaction.drain_s", Median(m.drain_s), "s"},
      {"storage.save_s", m.save_s, "s"},
      {"storage.bytes_per_doc",
       m.saved_bytes / static_cast<double>(std::max<size_t>(m.saved_docs, 1)),
       "B"},
      {"xml.parse_mb_per_s", parse_s > 0 ? m.xml_bytes / 1e6 / parse_s : 0.0,
       "MB/s"},
      {"memory.anon_mb",
       static_cast<double>(m.after_load.anonymous_bytes) / (1024.0 * 1024.0),
       "MB"},
      {"memory.file_mb",
       static_cast<double>(m.after_load.file_backed_bytes) / (1024.0 * 1024.0),
       "MB"},
      {"trace.overhead_pct",
       untraced_p50 > 0 ? (traced_p50 / untraced_p50 - 1.0) * 100.0 : 0.0,
       "%"},
  });
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "serve|fig11-lazy|ingest --seed N --seconds S --trace 0|1 "
               "--workdir DIR [--trace-out FILE] [--digests FILE]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload_name, workdir, trace_out, digests;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(seconds > 0)) return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      trace = value == "1" ? 1 : 0;
    } else if (flag == "--workdir") {
      workdir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--digests") {
      digests = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (trace < 0 || seconds <= 0 || workdir.empty()) {
    return Usage("missing --trace, --seconds or --workdir");
  }
  for (const Workload& workload : kWorkloads) {
    if (workload_name != workload.name) continue;
    Run run(workload, seed, seconds, trace == 1, workdir);
    int code = run.Execute(trace_out, digests);
    std::fflush(stdout);
    return code;
  }
  return Usage(("unknown workload " + workload_name).c_str());
}
