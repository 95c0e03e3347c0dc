// Concurrent query execution: Search from many threads must be safe and
// agree with serial execution, and readers racing a committing writer must
// always observe a complete published snapshot.

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "cda/cda_generator.h"
#include "core/xontorank.h"
#include "eval/workload.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "onto/snomed_fragment.h"

namespace xontorank {
namespace {

using testing_util::SearchTop;

TEST(ConcurrencyTest, ParallelSearchesMatchSerial) {
  Ontology onto = BuildSnomedCardiologyFragment();
  CdaGeneratorOptions gen_options;
  gen_options.num_documents = 15;
  gen_options.seed = 7;
  CdaGenerator generator(onto, gen_options);
  IndexBuildOptions options;
  options.strategy = Strategy::kRelationships;
  options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;

  // Serial reference.
  XOntoRank serial(generator.GenerateCorpus(), onto, options);
  std::vector<KeywordQuery> queries;
  std::vector<std::vector<QueryResult>> expected;
  for (const WorkloadQuery& wq : TableOneQueries()) {
    queries.push_back(ParseQuery(wq.text));
    expected.push_back(SearchTop(serial, queries.back(), 10));
  }

  // Parallel engine: every thread runs the whole workload repeatedly with a
  // cold cache, racing on entry construction.
  XOntoRank parallel(generator.GenerateCorpus(), onto, options);
  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&]() {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t q = 0; q < queries.size(); ++q) {
          auto results = SearchTop(parallel, queries[q], 10);
          if (results.size() != expected[q].size()) {
            ++mismatches;
            continue;
          }
          for (size_t i = 0; i < results.size(); ++i) {
            if (!(results[i].element == expected[q][i].element) ||
                std::abs(results[i].score - expected[q][i].score) > 1e-9) {
              ++mismatches;
              break;
            }
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyTest, EntryPointersStableAcrossRaces) {
  Ontology onto = BuildSnomedCardiologyFragment();
  CdaGeneratorOptions gen_options;
  gen_options.num_documents = 5;
  CdaGenerator generator(onto, gen_options);
  IndexBuildOptions options;
  options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;
  XOntoRank engine(generator.GenerateCorpus(), onto, options);

  // All threads request the same keyword; everyone must observe the same
  // stable entry pointer afterwards. The engine serves one segment.
  auto snap = engine.snapshot();
  const CorpusIndex& index = snap->segments().front()->index();
  Keyword kw = MakeKeyword("cardiac");
  std::vector<const DilEntry*> seen(8, nullptr);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < seen.size(); ++t) {
    workers.emplace_back([&, t]() {
      seen[t] = index.GetEntry(kw);
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (size_t t = 1; t < seen.size(); ++t) {
    EXPECT_EQ(seen[t], seen[0]);
  }
  EXPECT_EQ(index.GetEntry(kw), seen[0]);
}

bool SameResults(const std::vector<QueryResult>& a,
                 const std::vector<QueryResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].element == b[i].element) ||
        std::abs(a[i].score - b[i].score) > 1e-9) {
      return false;
    }
  }
  return true;
}

// Snapshot isolation: readers racing a writer that commits AddDocument
// batches must observe exactly the result set of some committed corpus
// prefix — pre- or post-commit, never a torn mix. BM25 collection
// statistics shift with every commit, so each milestone's scores are
// distinguishable and any cross-snapshot mixture would miscompare.
TEST(ConcurrencyTest, SnapshotIsolationUnderCommits) {
  Ontology onto = BuildSnomedCardiologyFragment();
  CdaGeneratorOptions gen_options;
  gen_options.num_documents = 14;
  gen_options.seed = 11;
  CdaGenerator generator(onto, gen_options);
  IndexBuildOptions options;
  options.strategy = Strategy::kRelationships;
  options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;

  const KeywordQuery query = ParseQuery("asthma");
  constexpr size_t kBase = 10;
  constexpr size_t kBatch = 2;

  // The only legal observations: fresh-build results over every corpus
  // prefix the writer will ever have committed.
  std::vector<std::vector<QueryResult>> milestones;
  for (size_t size = kBase; size <= gen_options.num_documents;
       size += kBatch) {
    std::vector<XmlDocument> prefix = generator.GenerateCorpus();
    prefix.resize(size);
    XOntoRank reference(std::move(prefix), onto, options);
    milestones.push_back(SearchTop(reference, query, 10));
  }
  ASSERT_FALSE(milestones.front().empty());

  std::vector<XmlDocument> docs = generator.GenerateCorpus();
  std::vector<XmlDocument> extra;
  for (size_t i = kBase; i < docs.size(); ++i) {
    extra.push_back(std::move(docs[i]));
  }
  docs.resize(kBase);
  XOntoRank engine(std::move(docs), onto, options);

  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&]() {
      int iterations = 0;
      while (!done.load(std::memory_order_acquire) || iterations < 50) {
        ++iterations;
        std::vector<QueryResult> results = SearchTop(engine, query, 10);
        bool matched = false;
        for (const std::vector<QueryResult>& milestone : milestones) {
          if (SameResults(results, milestone)) {
            matched = true;
            break;
          }
        }
        if (!matched) ++torn;
      }
    });
  }

  std::thread writer([&]() {
    size_t next = 0;
    while (next < extra.size()) {
      for (size_t i = 0; i < kBatch && next < extra.size(); ++i) {
        engine.StageDocument(std::move(extra[next++]));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      engine.Commit();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    done.store(true, std::memory_order_release);
  });

  writer.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(torn.load(), 0);
  // After the final commit every reader converges on the full corpus.
  EXPECT_EQ(engine.corpus_size(), gen_options.num_documents);
  EXPECT_TRUE(SameResults(SearchTop(engine, query, 10), milestones.back()));
}

// A snapshot handle pinned before commits keeps answering from its frozen
// corpus slice even after the writer has moved on (readers are never
// invalidated mid-query).
TEST(ConcurrencyTest, PinnedSnapshotSurvivesCommits) {
  Ontology onto = BuildSnomedCardiologyFragment();
  CdaGeneratorOptions gen_options;
  gen_options.num_documents = 6;
  gen_options.seed = 3;
  CdaGenerator generator(onto, gen_options);
  IndexBuildOptions options;
  options.vocabulary_mode = IndexBuildOptions::VocabularyMode::kNone;

  std::vector<XmlDocument> docs = generator.GenerateCorpus();
  std::vector<XmlDocument> extra;
  for (size_t i = 4; i < docs.size(); ++i) extra.push_back(std::move(docs[i]));
  docs.resize(4);
  XOntoRank engine(std::move(docs), onto, options);

  KeywordQuery query = ParseQuery("asthma");
  std::shared_ptr<const IndexSnapshot> pinned = engine.snapshot();
  std::vector<QueryResult> before = SearchTop(*pinned, query, 10);

  for (XmlDocument& doc : extra) engine.AddDocument(std::move(doc));

  EXPECT_EQ(pinned->corpus_size(), 4u);
  EXPECT_EQ(engine.corpus_size(), 6u);
  EXPECT_TRUE(SameResults(SearchTop(*pinned, query, 10), before));
  EXPECT_NE(engine.snapshot().get(), pinned.get());
}

}  // namespace
}  // namespace xontorank
