#ifndef EDADB_COMMON_MUTEX_H_
#define EDADB_COMMON_MUTEX_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

// ---------------------------------------------------------------------
// Clang thread-safety analysis annotations.
//
// Every mutex-protected member in the concurrent hot path (RulesEngine,
// Broker, QueueManager, dispatcher/propagator, ...) is
// declared EDADB_GUARDED_BY(mu_) and every helper that assumes a held
// lock is declared EDADB_REQUIRES(mu_), so `clang++ -Wthread-safety`
// machine-checks the locking discipline at compile time. Under other
// compilers the macros expand to nothing.
// ---------------------------------------------------------------------

#if defined(__clang__)
#define EDADB_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define EDADB_THREAD_ANNOTATION(x)
#endif

#define EDADB_CAPABILITY(x) EDADB_THREAD_ANNOTATION(capability(x))
#define EDADB_SCOPED_CAPABILITY EDADB_THREAD_ANNOTATION(scoped_lockable)
#define EDADB_GUARDED_BY(x) EDADB_THREAD_ANNOTATION(guarded_by(x))
#define EDADB_PT_GUARDED_BY(x) EDADB_THREAD_ANNOTATION(pt_guarded_by(x))
#define EDADB_ACQUIRED_BEFORE(...) \
  EDADB_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define EDADB_ACQUIRED_AFTER(...) \
  EDADB_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define EDADB_REQUIRES(...) \
  EDADB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define EDADB_ACQUIRE(...) \
  EDADB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define EDADB_RELEASE(...) \
  EDADB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define EDADB_TRY_ACQUIRE(...) \
  EDADB_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define EDADB_EXCLUDES(...) EDADB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define EDADB_ASSERT_CAPABILITY(x) \
  EDADB_THREAD_ANNOTATION(assert_capability(x))
#define EDADB_RETURN_CAPABILITY(x) EDADB_THREAD_ANNOTATION(lock_returned(x))
#define EDADB_NO_THREAD_SAFETY_ANALYSIS \
  EDADB_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace edadb {

namespace lock_graph {

/// Runtime lock-order checker behind the Mutex/RecursiveMutex wrappers.
/// Named mutexes are nodes in a global acquired-before graph keyed by
/// name (so ordering is per lock *class*, e.g. "QueueManager::mu_", not
/// per instance). Each acquisition while other locks are held records
/// held->acquired edges; an edge that closes a cycle is a lock-order
/// inversion and aborts the process with the full cycle, which turns
/// latent deadlocks into deterministic test failures.
///
/// Enabled by default in debug builds (!NDEBUG); tests and sanitizer
/// runs may toggle it explicitly. Disabled, the cost per Lock() is one
/// relaxed atomic load.
void Enable(bool enabled);
bool IsEnabled();

/// Drops every recorded edge (test isolation).
void ResetForTesting();

namespace internal {
void RecordAcquire(const void* mutex, const char* name, bool recursive);
void RecordRelease(const void* mutex);
}  // namespace internal

}  // namespace lock_graph

/// std::mutex wrapper carrying the `capability` annotation plus
/// lock-graph bookkeeping. Pass a name (a string literal, typically
/// "Class::member") to participate in lock-order checking; unnamed
/// mutexes are only checked for self-deadlock.
class EDADB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(const char* name) : name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() EDADB_ACQUIRE() {
    lock_graph::internal::RecordAcquire(this, name_, /*recursive=*/false);
    mu_.lock();
  }

  void Unlock() EDADB_RELEASE() {
    mu_.unlock();
    lock_graph::internal::RecordRelease(this);
  }

  bool TryLock() EDADB_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lock_graph::internal::RecordAcquire(this, name_, /*recursive=*/false);
    return true;
  }

  // BasicLockable interface so the wrapper composes with
  // std::condition_variable_any and std::scoped_lock. Annotated like
  // Lock()/Unlock() so direct use stays visible to the analysis.
  void lock() EDADB_ACQUIRE() { Lock(); }
  void unlock() EDADB_RELEASE() { Unlock(); }

 private:
  std::mutex mu_;
  const char* name_ = nullptr;
};

/// std::recursive_mutex wrapper. Needed where database trigger
/// callbacks re-enter the owner while it already holds the lock
/// (QueueManager's enqueue -> commit -> trigger -> runtime update path).
class EDADB_CAPABILITY("recursive_mutex") RecursiveMutex {
 public:
  RecursiveMutex() = default;
  explicit RecursiveMutex(const char* name) : name_(name) {}

  RecursiveMutex(const RecursiveMutex&) = delete;
  RecursiveMutex& operator=(const RecursiveMutex&) = delete;

  void Lock() EDADB_ACQUIRE() {
    lock_graph::internal::RecordAcquire(this, name_, /*recursive=*/true);
    mu_.lock();
  }

  void Unlock() EDADB_RELEASE() {
    mu_.unlock();
    lock_graph::internal::RecordRelease(this);
  }

  void lock() EDADB_ACQUIRE() { Lock(); }
  void unlock() EDADB_RELEASE() { Unlock(); }

 private:
  std::recursive_mutex mu_;
  const char* name_ = nullptr;
};

/// RAII guard for Mutex (the analysis-aware std::lock_guard).
class EDADB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) EDADB_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() EDADB_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// RAII guard for RecursiveMutex.
class EDADB_SCOPED_CAPABILITY RecursiveMutexLock {
 public:
  explicit RecursiveMutexLock(RecursiveMutex* mu) EDADB_ACQUIRE(mu)
      : mu_(mu) {
    mu_->Lock();
  }
  ~RecursiveMutexLock() EDADB_RELEASE() { mu_->Unlock(); }

  RecursiveMutexLock(const RecursiveMutexLock&) = delete;
  RecursiveMutexLock& operator=(const RecursiveMutexLock&) = delete;

 private:
  RecursiveMutex* const mu_;
};

/// Condition variable working over the annotated wrappers. Waiters must
/// hold the mutex exactly once (also true of the std types it wraps).
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // The waits release and reacquire through the wrapper's annotated
  // lock()/unlock(), which the analysis cannot model inside one
  // function body; REQUIRES covers callers, NO_ANALYSIS the bodies.
  void Wait(Mutex* mu) EDADB_REQUIRES(mu) EDADB_NO_THREAD_SAFETY_ANALYSIS;
  void Wait(RecursiveMutex* mu) EDADB_REQUIRES(mu)
      EDADB_NO_THREAD_SAFETY_ANALYSIS;

  /// Returns false on timeout.
  bool WaitForMicros(Mutex* mu, int64_t micros) EDADB_REQUIRES(mu)
      EDADB_NO_THREAD_SAFETY_ANALYSIS;
  bool WaitForMicros(RecursiveMutex* mu, int64_t micros) EDADB_REQUIRES(mu)
      EDADB_NO_THREAD_SAFETY_ANALYSIS;

  void Signal();
  void SignalAll();

 private:
  std::condition_variable_any cv_;
};

}  // namespace edadb

#endif  // EDADB_COMMON_MUTEX_H_
