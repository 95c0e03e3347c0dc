// The flat serving representation:
//   1. DIL merge throughput of the cursor merge over FlatDil columns,
//      after its answers are checked bit for bit against the reference
//      evaluator of Eq. 1-4 (tests/reference_eval.h). It reports postings
//      scanned per second (every posting of every list) next to postings
//      scored per second (the ones the merge consumed; the rest it skipped
//      through the block skip table): the corpus is a sparse conjunction,
//      so most of what it scans it never scores;
//   2. bytes/posting of the frozen columns, allocator-measured
//      (bench_util.h HeapBytesInUse deltas) and by FlatDil's exact column
//      accounting.
//
// `--smoke` runs a small corpus through the parity and round-trip gates
// only (no timing) and exits nonzero on any mismatch; CI runs this as a
// ctest target so the bit-identity property is enforced on every build.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/flat_dil.h"
#include "core/query_processor.h"
#include "tests/reference_eval.h"

using namespace xontorank;

namespace {

using reference::Posting;

// A CDA-shaped synthetic corpus. Each document is a section/paragraph/item
// tree, so a keyword's postings inside one document share 3-4 leading
// components (where prefix elision and block restarts earn their keep).
// Keyword w appears only in documents divisible by its stride, so the
// conjunction is sparse: the merge walks every posting but emits results
// for only ~1/30 of documents — the realistic, merge-dominated regime
// (dense-overlap parity is covered separately by the smoke gates).
reference::Lists BuildSyntheticDil(size_t num_keywords, size_t docs,
                                   size_t postings_per_doc, uint64_t seed) {
  static constexpr uint32_t kStrides[] = {2, 3, 5, 7, 11};
  Rng rng(seed);
  reference::Lists dil;
  for (size_t w = 0; w < num_keywords; ++w) {
    uint32_t stride = kStrides[w % (sizeof(kStrides) / sizeof(kStrides[0]))];
    std::vector<Posting> postings;
    postings.reserve(docs / stride * postings_per_doc);
    for (uint32_t d = 0; d < docs; d += stride) {
      for (uint32_t i = 0; i < postings_per_doc; ++i) {
        // {doc, body, section, paragraph, item, leaf} — the constant body
        // component mirrors CDA's ClinicalDocument/structuredBody nesting.
        std::vector<uint32_t> comps{d, 0, i / 16, (i / 4) % 4, i % 4,
                                    static_cast<uint32_t>(rng.NextBelow(4))};
        postings.push_back(
            {DeweyId(std::move(comps)), 0.05 + 0.95 * rng.NextDouble()});
      }
    }
    dil["kw" + std::to_string(w)] = std::move(postings);
  }
  return dil;
}

bool ResultsIdentical(const std::vector<QueryResult>& a,
                      const std::vector<QueryResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].element == b[i].element) || a[i].score != b[i].score ||
        a[i].keyword_scores != b[i].keyword_scores) {
      return false;
    }
  }
  return true;
}

std::vector<std::vector<Posting>> Lists(const reference::Lists& dil) {
  std::vector<std::vector<Posting>> lists;
  for (const auto& [keyword, postings] : dil) lists.push_back(postings);
  return lists;
}

std::vector<DilListRef> Refs(const FlatDil& flat) {
  std::vector<DilListRef> refs;
  for (uint32_t list = 0; list < flat.keyword_count(); ++list) {
    refs.push_back(DilListRef::OverFlat(flat, list));
  }
  return refs;
}

// Parity + round-trip gates; exits the process on failure.
void RunGates(const reference::Lists& dil, const FlatDil& flat) {
  const ScoreOptions score;
  QueryProcessor processor(score);
  auto lists = Lists(dil);
  auto refs = Refs(flat);
  ThreadPool pool(4);
  for (size_t top_k : {size_t{0}, size_t{10}}) {
    auto expected = reference::EvaluateLists(lists, score.decay, top_k);
    for (size_t shards : {1u, 2u, 4u, 8u}) {
      auto flat_results =
          processor.ExecuteSegments({refs}, top_k, shards, &pool);
      if (!ResultsIdentical(expected, flat_results)) {
        std::fprintf(stderr,
                     "PARITY FAILURE: cursor merge != reference evaluator "
                     "(top_k=%zu shards=%zu)\n",
                     top_k, shards);
        std::exit(1);
      }
    }
  }
  // Freezing loses nothing: every list reads back as its source, in
  // keyword order (the synthetic lists are built in Dewey order).
  if (flat.keyword_count() != dil.size()) {
    std::fprintf(stderr, "ROUND-TRIP FAILURE: list counts differ\n");
    std::exit(1);
  }
  uint32_t list = 0;
  for (const auto& [keyword, postings] : dil) {
    if (flat.KeywordAt(list) != keyword ||
        reference::ReadList(flat, list) != postings) {
      std::fprintf(stderr, "ROUND-TRIP FAILURE: list %s differs\n",
                   keyword.c_str());
      std::exit(1);
    }
    ++list;
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  constexpr size_t kKeywords = 3;
  constexpr size_t kTopK = 10;
  const size_t docs = smoke ? 600 : 20000;
  const size_t per_doc = 16;
  const int reps = smoke ? 1 : 7;

  reference::Lists dil =
      BuildSyntheticDil(kKeywords, docs, per_doc, /*seed=*/29);
  FlatDil flat = reference::FreezeLists(dil);
  const size_t postings = flat.total_postings();

  RunGates(dil, flat);
  if (smoke) {
    std::printf("bench_flat_dil --smoke: parity + round-trip gates passed "
                "(%zu postings)\n",
                postings);
    return 0;
  }

  std::printf("FLAT XOnto-DIL — %zu keywords x %zu docs x %zu "
              "postings/doc = %zu postings, top-%zu\n\n",
              kKeywords, docs, per_doc, postings, kTopK);

  // --- 1. merge throughput ---------------------------------------------
  auto refs = Refs(flat);
  QueryProcessor processor((ScoreOptions()));

  // Every rep runs the same merge, so the stats of the last one stand for
  // all of them.
  ExecuteStats stats;
  Timer timer;
  for (int r = 0; r < reps; ++r) {
    std::vector<DilCursor> cursors;
    cursors.reserve(refs.size());
    for (const DilListRef& ref : refs) cursors.push_back(ref.OpenCursor());
    stats = ExecuteStats();
    processor.Execute(std::move(cursors), kTopK, PruningMode::kExact, &stats);
  }
  double flat_ms = timer.ElapsedMillis() / reps;

  std::printf("%-34s %12s\n", "merge (serial, full corpus)", "flat");
  bench::PrintRule(47);
  std::printf("%-34s %9.2f ms\n", "time/query", flat_ms);
  std::printf("%-34s %8.2f M/s\n", "postings scanned/s",
              postings / flat_ms / 1000.0);
  std::printf("%-34s %8.2f M/s  (%zu of %zu postings, %.3f)\n\n",
              "postings scored/s", stats.postings_scored / flat_ms / 1000.0,
              stats.postings_scored, postings,
              static_cast<double>(stats.postings_scored) / postings);

  // --- 2. bytes/posting -----------------------------------------------
  size_t flat_heap = 0;
  {
    FlatDil frozen = bench::MeasureHeapDelta(
        [&] { return reference::FreezeLists(dil); }, &flat_heap);
  }

  std::printf("%-34s %12s\n", "memory", "flat");
  bench::PrintRule(47);
  std::printf("%-34s %9.1f B\n", "heap bytes/posting",
              static_cast<double>(flat_heap) / postings);
  std::printf("%-34s %9.1f B\n", "exact column bytes/posting",
              static_cast<double>(flat.MemoryBytes()) / postings);
  std::printf("%-34s %9zu KB\n\n", "process RSS",
              bench::CurrentRssBytes() / 1024);

  std::printf("Parity: cursor merge verified bit-identical to the "
              "reference evaluator at 1/2/4/8 shards, and every frozen list "
              "reads back as its source, before any timing.\n");
  return 0;
}
