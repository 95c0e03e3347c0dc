#ifndef XONTORANK_COMMON_THREAD_POOL_H_
#define XONTORANK_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace xontorank {

/// A small fixed-size worker pool for fork/join parallelism (intra-query
/// shard execution, the eager index build, the engine-directory load) and
/// detached background tasks (the compactor). Tasks are plain closures
/// drained FIFO from one shared queue.
///
/// The pool is deliberately minimal: no futures, no priorities, no task
/// stealing. The only composition primitive is ParallelFor, a blocking
/// fork/join over an index range.
///
/// Thread-safety: every method may be called from any thread. Concurrent
/// ParallelFor calls (e.g. many user threads each running a sharded query)
/// interleave their helpers on the shared workers; each call returns when
/// its own iterations are done. The queue and the stop flag are guarded by
/// `mutex_` (enforced at compile time via the sync.h annotations); the
/// per-call join state lives in a Batch with its own lock, always acquired
/// after the pool lock is released — see DESIGN.md §9 for the lock order.
///
/// Convention: pool tasks do not call ParallelFor. A nested call cannot
/// deadlock (its caller runs every iteration no helper claims), but it
/// gains nothing on a busy pool and can queue behind the outer call's own
/// helpers, so work that runs inside a pool task (compaction merges) stays
/// serial.
class ThreadPool {
 public:
  /// Starts `num_threads` workers; 0 means one per hardware core.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Runs `body(0) .. body(n-1)`, each exactly once, and returns when all
  /// have finished. Iterations are claimed one at a time from a shared
  /// counter by the calling thread and by at most min(n-1, num_threads())
  /// queued helpers, so the caller participates: it claims every iteration
  /// no helper gets to, and the call completes even when every worker is
  /// busy elsewhere (say, with a long Post()ed task). With n <= 1 the body
  /// runs inline with no synchronization at all.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body)
      XO_EXCLUDES(mutex_);

  /// Enqueues one detached task: fire-and-forget, no join handle. Used for
  /// background maintenance (the IndexWriter's compactor). Tasks still
  /// queued at destruction run inline on the destroying thread after the
  /// workers have joined, so a posted closure ALWAYS runs exactly once —
  /// callers may rely on it for cleanup/wakeup protocols.
  void Post(std::function<void()> task) XO_EXCLUDES(mutex_);

  /// A process-wide pool sized to the hardware, created on first use and
  /// intentionally leaked (serving threads may outlive static destruction
  /// order). Shared by query execution, the eager index build, the
  /// engine-directory load and the compactor.
  static ThreadPool& Shared();

 private:
  struct Batch;

  void WorkerLoop() XO_EXCLUDES(mutex_);

  Mutex mutex_;
  CondVar work_available_;
  /// ParallelFor helpers and Post()ed closures, FIFO.
  std::deque<std::function<void()>> queue_ XO_GUARDED_BY(mutex_);
  bool shutting_down_ XO_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace xontorank

#endif  // XONTORANK_COMMON_THREAD_POOL_H_
