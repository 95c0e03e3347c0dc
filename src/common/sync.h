#ifndef XONTORANK_COMMON_SYNC_H_
#define XONTORANK_COMMON_SYNC_H_

#include <condition_variable>
#include <mutex>

/// Annotated synchronization primitives.
///
/// Every mutable field shared between threads in this codebase names the
/// lock that guards it via XO_GUARDED_BY, and every function with a locking
/// precondition declares it via XO_REQUIRES / XO_EXCLUDES. Under Clang the
/// annotations expand to thread-safety-analysis attributes and the build
/// runs with `-Wthread-safety -Werror=thread-safety-analysis`, so an
/// unguarded read, a missing MutexLock or a lock-order violation is a
/// compile error — on every build, not just the interleavings a sanitizer
/// happens to execute. Under other compilers the macros expand to nothing
/// and the wrappers behave exactly like the std primitives they wrap.
///
/// The std primitives themselves carry no annotations (libstdc++ ships
/// none), which is why shared state must use these wrappers rather than
/// std::mutex directly; see DESIGN.md §9 for the discipline and the
/// documented lock order.
///
/// Documented lock order (enforced by tools/xo_analyze.py's lock-order
/// rule for the named process-wide locks, and by XO_ACQUIRED_AFTER
/// annotations for the per-object ones):
///
///   Process-wide, level 1 (outermost):
///     SaveMutex            engine_store.cc — one whole-directory save
///                          at a time.
///   Process-wide, level 2 (under SaveMutex; never nested in itself):
///     DurableFileMutex     file_io.cc — WriteFileDurable's temp + fsync +
///                          rename of one file (segments, ontologies,
///                          documents and, last, the MANIFEST).
///   Per-object:
///     IndexWriter::mutex_  before IndexWriter::compaction_mutex_ — the
///                          compactor claims its in-flight slot under
///                          compaction_mutex_ alone, but pick/publish
///                          steps take mutex_ first; never the reverse.
///     ThreadPool::mutex_   released before a Batch's internal mutex —
///                          the pool never holds its queue lock while
///                          running or completing a task.
///
/// A new named lock joins this table by getting a level in
/// tools/xo_analyze.py's LOCK_LEVELS (plus fixtures in
/// tests/xo_analyze_test.py) or, for member locks, an XO_ACQUIRED_AFTER
/// annotation at its declaration.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define XO_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef XO_THREAD_ANNOTATION_
#define XO_THREAD_ANNOTATION_(x)  // expands to nothing outside Clang
#endif

/// Declares a type to be a lockable capability (e.g. "mutex").
#define XO_CAPABILITY(x) XO_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII type that acquires a capability in its constructor and
/// releases it in its destructor.
#define XO_SCOPED_CAPABILITY XO_THREAD_ANNOTATION_(scoped_lockable)

/// Declares that a field may only be read or written while holding `x`.
#define XO_GUARDED_BY(x) XO_THREAD_ANNOTATION_(guarded_by(x))

/// Declares that the data *pointed to* by a pointer field is guarded by `x`
/// (the pointer itself may be read freely).
#define XO_PT_GUARDED_BY(x) XO_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Documents lock-order edges; checked under -Wthread-safety-beta.
#define XO_ACQUIRED_BEFORE(...) \
  XO_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define XO_ACQUIRED_AFTER(...) \
  XO_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

/// Declares that the caller must hold the given capability on entry (and
/// still holds it on exit).
#define XO_REQUIRES(...) \
  XO_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define XO_REQUIRES_SHARED(...) \
  XO_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// Declares that the function acquires / releases the capability itself.
#define XO_ACQUIRE(...) XO_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define XO_ACQUIRE_SHARED(...) \
  XO_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define XO_RELEASE(...) XO_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define XO_RELEASE_SHARED(...) \
  XO_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#define XO_TRY_ACQUIRE(...) \
  XO_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Declares that the caller must NOT hold the given capability (prevents
/// self-deadlock on non-reentrant locks).
#define XO_EXCLUDES(...) XO_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Run-time assertion that the capability is held (for code the analysis
/// cannot follow).
#define XO_ASSERT_CAPABILITY(x) XO_THREAD_ANNOTATION_(assert_capability(x))

/// Declares that the function returns a reference to the given capability.
#define XO_RETURN_CAPABILITY(x) XO_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Use only with a
/// comment explaining why the analysis cannot see the invariant.
#define XO_NO_THREAD_SAFETY_ANALYSIS \
  XO_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace xontorank {

/// A std::mutex annotated as a Clang capability. Prefer MutexLock for
/// block-scoped sections; Lock/Unlock exist for the hand-over-hand worker
/// loops that the RAII form cannot express.
class XO_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() XO_ACQUIRE() { mu_.lock(); }
  void Unlock() XO_RELEASE() { mu_.unlock(); }
  bool TryLock() XO_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock over a Mutex (the annotated std::lock_guard). Scoped
/// acquisition is what the analysis reasons about best; every simple
/// critical section in the codebase uses this form.
class XO_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) XO_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() XO_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// A condition variable bound to the annotated Mutex. Wait declares (via
/// XO_REQUIRES) that the caller holds the mutex; it is released for the
/// duration of the block and reacquired before Wait returns, so guarded
/// fields may be read immediately after. Spurious wake-ups are possible —
/// always wait in a `while (!condition)` loop.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks until notified, and reacquires `mu`.
  void Wait(Mutex& mu) XO_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership stays with the caller's Mutex discipline
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace xontorank

#endif  // XONTORANK_COMMON_SYNC_H_
