#include "core/index_writer.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/thread_pool.h"
#include "core/index_segment.h"

namespace xontorank {

IndexWriter::IndexWriter(Corpus corpus, OntologySet systems,
                         IndexBuildOptions options)
    : context_(OntologyContext::Create(std::move(systems), options)),
      options_(options),
      corpus_(std::move(corpus)) {
  MutexLock lock(mutex_);
  // The seed corpus seals as segment 0 (an empty corpus publishes an empty
  // snapshot — the first commit creates segment 0).
  if (corpus_.size() > 0) {
    auto docs = std::make_shared<Corpus>();
    for (size_t d = 0; d < corpus_.size(); ++d) docs->Add(corpus_.handle(d));
    segments_.push_back(IndexSegment::Build(next_segment_id_++,
                                            std::move(docs), 0, context_,
                                            options_));
  }
  Publish();
}

IndexWriter::IndexWriter(std::shared_ptr<const IndexSnapshot> initial)
    : context_(initial->context()),
      options_(initial->options()),
      corpus_(initial->corpus()) {
  {
    MutexLock lock(mutex_);
    segments_ = initial->segments();
    for (const auto& segment : segments_) {
      next_segment_id_ = std::max(next_segment_id_, segment->id() + 1);
    }
  }
  published_.store(std::move(initial), std::memory_order_release);
}

IndexWriter::~IndexWriter() {
  MutexLock lock(compaction_mutex_);
  while (compaction_inflight_) compaction_idle_.Wait(compaction_mutex_);
}

uint32_t IndexWriter::StageDocument(XmlDocument doc) {
  MutexLock lock(mutex_);
  uint32_t doc_id = static_cast<uint32_t>(corpus_.size() + pending_.size());
  doc.set_doc_id(doc_id);
  pending_.push_back(std::move(doc));
  return doc_id;
}

size_t IndexWriter::pending() const {
  MutexLock lock(mutex_);
  return pending_.size();
}

std::shared_ptr<const IndexSnapshot> IndexWriter::Publish() {
  auto snapshot = std::make_shared<const IndexSnapshot>(corpus_, context_,
                                                        options_, segments_);
  published_.store(snapshot, std::memory_order_release);
  return snapshot;
}

std::shared_ptr<const IndexSnapshot> IndexWriter::CommitLocked() {
  if (pending_.empty()) return published_.load(std::memory_order_acquire);
  // Structural sharing: the extended corpus copies document *pointers*; the
  // documents themselves are shared with every snapshot already out there.
  uint32_t first_doc = static_cast<uint32_t>(corpus_.size());
  Corpus extended = corpus_;
  for (XmlDocument& doc : pending_) extended.Add(std::move(doc));
  pending_.clear();
  // O(delta): only the staged documents are indexed — every previously
  // sealed segment is shared into the new snapshot untouched.
  auto delta = std::make_shared<Corpus>();
  for (size_t d = first_doc; d < extended.size(); ++d) {
    delta->Add(extended.handle(d));
  }
  corpus_ = std::move(extended);
  segments_.push_back(IndexSegment::Build(next_segment_id_++,
                                          std::move(delta), first_doc,
                                          context_, options_));
  auto snapshot = Publish();
  if (options_.lsm.auto_compact) MaybeScheduleCompaction();
  return snapshot;
}

std::shared_ptr<const IndexSnapshot> IndexWriter::Commit() {
  MutexLock lock(mutex_);
  return CommitLocked();
}

uint32_t IndexWriter::AddDocument(XmlDocument doc) {
  MutexLock lock(mutex_);
  uint32_t doc_id = static_cast<uint32_t>(corpus_.size() + pending_.size());
  doc.set_doc_id(doc_id);
  // Any previously staged documents commit along with this one; they were
  // assigned the preceding ids, so they enter the corpus first.
  pending_.push_back(std::move(doc));
  CommitLocked();
  return doc_id;
}

bool IndexWriter::PickCompaction(size_t* begin, size_t* count) const {
  const size_t fanin = std::max<size_t>(2, options_.lsm.compaction_fanin);
  if (segments_.size() < fanin) return false;
  // Tier t holds [fanin^t, fanin^(t+1)) documents, so single-document
  // commits compact like a base-fanin counter.
  auto tier_of = [fanin](const IndexSegment& segment) {
    size_t tier = 0;
    for (size_t cap = fanin; segment.num_docs() >= cap; cap *= fanin) ++tier;
    return tier;
  };
  size_t run_begin = 0;
  size_t run_len = 0;
  size_t run_tier = 0;
  for (size_t i = 0; i < segments_.size(); ++i) {
    size_t tier = tier_of(*segments_[i]);
    if (run_len == 0 || tier != run_tier) {
      run_begin = i;
      run_len = 1;
      run_tier = tier;
    } else {
      ++run_len;
    }
    if (run_len == fanin) {
      *begin = run_begin;
      *count = fanin;
      return true;
    }
  }
  return false;
}

void IndexWriter::MaybeScheduleCompaction() {
  size_t begin = 0;
  size_t count = 0;
  if (!PickCompaction(&begin, &count)) return;
  {
    MutexLock lock(compaction_mutex_);
    if (compaction_inflight_) return;  // the running drain will re-pick
    compaction_inflight_ = true;
  }
  // Detached task on the shared pool. ThreadPool::Post guarantees the
  // closure runs exactly once (inline at pool destruction if need be), so
  // the in-flight flag is always cleared and ~IndexWriter cannot hang.
  ThreadPool::Shared().Post([this] { CompactionDrain(); });
}

void IndexWriter::CompactionDrain() {
  while (true) {
    std::vector<std::shared_ptr<const IndexSegment>> inputs;
    size_t begin = 0;
    size_t count = 0;
    uint64_t merged_id = 0;
    {
      MutexLock lock(mutex_);
      if (!PickCompaction(&begin, &count)) break;
      inputs.assign(segments_.begin() + begin,
                    segments_.begin() + begin + count);
      merged_id = next_segment_id_++;
    }
    // Merge with no lock held: commits keep appending (and readers keep
    // serving) while the merge runs. The inputs stay at [begin, begin +
    // count) because commits only push_back and this drain is the only
    // remover (single in-flight compaction).
    auto merged = MergeSegments(std::span(inputs), merged_id, context_,
                                options_);
    {
      MutexLock lock(mutex_);
      segments_.erase(segments_.begin() + begin,
                      segments_.begin() + begin + count);
      segments_.insert(segments_.begin() + begin, std::move(merged));
      Publish();
    }
  }
  // Clear the flag under compaction_mutex_ ALONE — see the header comment
  // on the destructor race.
  MutexLock lock(compaction_mutex_);
  compaction_inflight_ = false;
  compaction_idle_.NotifyAll();
}

void IndexWriter::CompactNow() {
  {
    MutexLock lock(compaction_mutex_);
    while (compaction_inflight_) compaction_idle_.Wait(compaction_mutex_);
    compaction_inflight_ = true;
  }
  CompactionDrain();
}

void IndexWriter::WaitForCompactionIdle() {
  MutexLock lock(compaction_mutex_);
  while (compaction_inflight_) compaction_idle_.Wait(compaction_mutex_);
}

}  // namespace xontorank
