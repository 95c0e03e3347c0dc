// Flat serving representation vs. the legacy map-of-posting-structs:
//   1. DIL merge throughput (postings/s) — legacy span merge vs. the
//      cursor merge over FlatDil columns, identical top-k asserted first;
//   2. heap bytes/posting — allocator-measured footprint of each
//      representation (bench_util.h HeapBytesInUse deltas), plus FlatDil's
//      exact column accounting.
//
// `--smoke` runs a small corpus through the parity and round-trip gates
// only (no timing) and exits nonzero on any mismatch; CI runs this as a
// ctest target so the bit-identity property is enforced on every build.
//
// Expected shape (recorded in EXPERIMENTS.md): >= 2x merge throughput and
// >= 3x lower heap bytes/posting for the flat form.

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
#include "core/xonto_dil.h"

using namespace xontorank;

namespace {

// A CDA-shaped synthetic corpus. Each document is a section/paragraph/item
// tree, so a keyword's postings inside one document share 3-4 leading
// components (where prefix elision and block restarts earn their keep).
// Keyword w appears only in documents divisible by its stride, so the
// conjunction is sparse: the merge walks every posting but emits results
// for only ~1/30 of documents — the realistic, merge-dominated regime
// (dense-overlap parity is covered separately by the smoke gates).
XOntoDil BuildSyntheticDil(size_t num_keywords, size_t docs,
                           size_t postings_per_doc, uint64_t seed) {
  static constexpr uint32_t kStrides[] = {2, 3, 5, 7, 11};
  Rng rng(seed);
  XOntoDil dil;
  for (size_t w = 0; w < num_keywords; ++w) {
    uint32_t stride = kStrides[w % (sizeof(kStrides) / sizeof(kStrides[0]))];
    std::vector<DilPosting> postings;
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
    dil.Put("kw" + std::to_string(w), std::move(postings));
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

std::vector<std::span<const DilPosting>> Spans(const XOntoDil& dil) {
  std::vector<std::span<const DilPosting>> spans;
  for (const auto& [keyword, entry] : dil.entries()) {
    spans.emplace_back(entry.postings);
  }
  return spans;
}

std::vector<DilListRef> Refs(const FlatDil& flat) {
  std::vector<DilListRef> refs;
  for (uint32_t list = 0; list < flat.keyword_count(); ++list) {
    refs.push_back(DilListRef::OverFlat(flat, list));
  }
  return refs;
}

// Parity + round-trip gates; exits the process on failure.
void RunGates(const XOntoDil& dil, const FlatDil& flat) {
  QueryProcessor processor((ScoreOptions()));
  auto spans = Spans(dil);
  auto refs = Refs(flat);
  ThreadPool pool(4);
  for (size_t top_k : {size_t{0}, size_t{10}}) {
    auto legacy = processor.Execute(spans, top_k);
    for (size_t shards : {1u, 2u, 4u, 8u}) {
      auto flat_results =
          processor.ExecuteSegments({refs}, top_k, shards, &pool);
      if (!ResultsIdentical(legacy, flat_results)) {
        std::fprintf(stderr,
                     "PARITY FAILURE: cursor merge != legacy merge "
                     "(top_k=%zu shards=%zu)\n",
                     top_k, shards);
        std::exit(1);
      }
    }
  }
  // Freezing loses nothing: the flat form thaws back to the source.
  XOntoDil thawed = flat.ThawAll();
  if (thawed.keyword_count() != dil.keyword_count() ||
      thawed.TotalPostings() != dil.TotalPostings()) {
    std::fprintf(stderr, "ROUND-TRIP FAILURE: list counts differ\n");
    std::exit(1);
  }
  auto ti = thawed.entries().begin();
  for (const auto& [keyword, entry] : dil.entries()) {
    if (ti->first != keyword ||
        ti->second.postings.size() != entry.postings.size()) {
      std::fprintf(stderr, "ROUND-TRIP FAILURE: entry mismatch\n");
      std::exit(1);
    }
    for (size_t i = 0; i < entry.postings.size(); ++i) {
      if (!(ti->second.postings[i].dewey == entry.postings[i].dewey) ||
          ti->second.postings[i].score != entry.postings[i].score) {
        std::fprintf(stderr, "ROUND-TRIP FAILURE: posting mismatch\n");
        std::exit(1);
      }
    }
    ++ti;
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

  XOntoDil dil = BuildSyntheticDil(kKeywords, docs, per_doc, /*seed=*/29);
  FlatDil flat = dil.Freeze();
  const size_t postings = dil.TotalPostings();

  RunGates(dil, flat);
  if (smoke) {
    std::printf("bench_flat_dil --smoke: parity + round-trip gates passed "
                "(%zu postings)\n",
                postings);
    return 0;
  }

  std::printf("FLAT XOnto-DIL vs LEGACY — %zu keywords x %zu docs x %zu "
              "postings/doc = %zu postings, top-%zu\n\n",
              kKeywords, docs, per_doc, postings, kTopK);

  // --- 1. merge throughput ---------------------------------------------
  auto spans = Spans(dil);
  auto refs = Refs(flat);
  QueryProcessor processor((ScoreOptions()));

  Timer timer;
  for (int r = 0; r < reps; ++r) processor.Execute(spans, kTopK);
  double legacy_ms = timer.ElapsedMillis() / reps;

  timer.Reset();
  for (int r = 0; r < reps; ++r) {
    std::vector<DilCursor> cursors;
    cursors.reserve(refs.size());
    for (const DilListRef& ref : refs) cursors.push_back(ref.OpenCursor());
    processor.Execute(std::move(cursors), kTopK);
  }
  double flat_ms = timer.ElapsedMillis() / reps;

  double legacy_mps = postings / legacy_ms / 1000.0;
  double flat_mps = postings / flat_ms / 1000.0;
  std::printf("%-34s %12s %12s %9s\n", "merge (serial, full corpus)",
              "legacy", "flat", "speedup");
  bench::PrintRule(72);
  std::printf("%-34s %9.2f ms %9.2f ms %8.2fx\n", "time/query", legacy_ms,
              flat_ms, legacy_ms / flat_ms);
  std::printf("%-34s %8.2f M/s %8.2f M/s\n\n", "posting throughput",
              legacy_mps, flat_mps);

  // --- 2. heap bytes/posting ------------------------------------------
  size_t legacy_heap = 0, flat_heap = 0;
  {
    XOntoDil rebuilt = bench::MeasureHeapDelta(
        [&] {
          return BuildSyntheticDil(kKeywords, docs, per_doc, /*seed=*/29);
        },
        &legacy_heap);
    FlatDil frozen =
        bench::MeasureHeapDelta([&] { return rebuilt.Freeze(); }, &flat_heap);
  }

  std::printf("%-34s %12s %12s %9s\n", "memory", "legacy", "flat", "ratio");
  bench::PrintRule(72);
  std::printf("%-34s %9.1f B  %9.1f B  %8.2fx\n", "heap bytes/posting",
              static_cast<double>(legacy_heap) / postings,
              static_cast<double>(flat_heap) / postings,
              static_cast<double>(legacy_heap) / flat_heap);
  std::printf("%-34s %12s %9.1f B\n", "exact column bytes/posting", "",
              static_cast<double>(flat.MemoryBytes()) / postings);
  std::printf("%-34s %9zu KB\n\n", "process RSS",
              bench::CurrentRssBytes() / 1024);

  std::printf("Parity: cursor merge verified bit-identical to the legacy "
              "merge at 1/2/4/8 shards, and the flat form thaws back to its "
              "source, before any timing.\n");
  return 0;
}
