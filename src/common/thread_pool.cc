#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace xontorank {

/// Join state of one ParallelFor call. Participants claim iterations from
/// `next`; `remaining` counts the iterations not yet finished and is
/// guarded by the batch mutex (not an atomic) so the final notify and the
/// caller's wake-up are fully ordered. Helpers hold the batch by
/// shared_ptr: one still queued when the call returns finds nothing left
/// to claim, and never reads `body`, which lives on the caller's stack.
struct ThreadPool::Batch {
  Batch(size_t n, const std::function<void(size_t)>& body)
      : n(n), body(&body) {}

  const size_t n;
  const std::function<void(size_t)>* const body;
  std::atomic<size_t> next{0};  ///< the next unclaimed iteration
  Mutex mutex;
  CondVar done;
  size_t remaining XO_GUARDED_BY(mutex) = 0;

  /// Claims and runs iterations until none is left, then reports them
  /// finished, waking the join if they were the last.
  void Drain() XO_EXCLUDES(mutex) {
    size_t ran = 0;
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      (*body)(i);
      ++ran;
    }
    if (ran == 0) return;
    MutexLock lock(mutex);
    remaining -= ran;
    if (remaining == 0) done.NotifyAll();
  }
};

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  // Workers are gone. Run what is still queued inline to honor the Post()
  // exactly-once guarantee; a leftover ParallelFor helper finds its batch
  // drained (its caller returned only after every iteration finished).
  std::deque<std::function<void()>> leftover;
  {
    MutexLock lock(mutex_);
    leftover.swap(queue_);
  }
  for (std::function<void()>& task : leftover) task();
}

void ThreadPool::WorkerLoop() {
  mutex_.Lock();
  while (true) {
    while (!shutting_down_ && queue_.empty()) work_available_.Wait(mutex_);
    if (shutting_down_) break;
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    mutex_.Unlock();
    task();
    mutex_.Lock();
  }
  mutex_.Unlock();
}

void ThreadPool::Post(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    if (!shutting_down_) {
      queue_.push_back(std::move(task));
      task = nullptr;
    }
  }
  if (task) {
    // Posted during shutdown: run inline so the closure still runs once.
    task();
    return;
  }
  work_available_.NotifyAll();
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  if (n == 0) return;
  if (n == 1) {
    body(0);
    return;
  }
  auto batch = std::make_shared<Batch>(n, body);
  {
    MutexLock lock(batch->mutex);
    batch->remaining = n;
  }
  const size_t helpers = std::min(n - 1, workers_.size());
  {
    MutexLock lock(mutex_);
    for (size_t h = 0; h < helpers; ++h) {
      queue_.push_back([batch] { batch->Drain(); });
    }
  }
  work_available_.NotifyAll();

  // The caller participates: it claims iterations alongside the helpers,
  // and alone if none of them starts, so the batch completes even when
  // every worker is busy with other work.
  batch->Drain();
  MutexLock lock(batch->mutex);
  while (batch->remaining != 0) batch->done.Wait(batch->mutex);
}

ThreadPool& ThreadPool::Shared() {
  // Leaked on purpose: serving threads may still submit during static
  // destruction, and the OS reclaims the threads at exit anyway.
  // xo-lint: allow(new-delete) — leaked singleton, see above.
  static ThreadPool* pool = new ThreadPool(0);
  return *pool;
}

}  // namespace xontorank
