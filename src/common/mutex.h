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

/// Runtime lock-order checker behind the Mutex wrapper. Named mutexes
/// are nodes in a global acquired-before graph keyed by name (so
/// ordering is per lock *class*, e.g. "QueueManager::mu_", not per
/// instance). Each acquisition while other locks are held records
/// held->acquired edges; an edge that closes a cycle is a lock-order
/// inversion and aborts the process with the full cycle, which turns
/// latent deadlocks into deterministic test failures. No edadb mutex is
/// recursive: re-acquiring one the thread already holds aborts as a
/// self-deadlock, so "nothing re-enters under this lock" is checked.
///
/// Enabled by default in debug builds (!NDEBUG); tests and sanitizer
/// runs may toggle it explicitly. Disabled, the cost per Lock() is one
/// relaxed atomic load.
void Enable(bool enabled);
bool IsEnabled();

/// Drops every recorded edge (test isolation).
void ResetForTesting();

namespace internal {
void RecordAcquire(const void* mutex, const char* name);
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
    lock_graph::internal::RecordAcquire(this, name_);
    mu_.lock();
  }

  void Unlock() EDADB_RELEASE() {
    mu_.unlock();
    lock_graph::internal::RecordRelease(this);
  }

  bool TryLock() EDADB_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lock_graph::internal::RecordAcquire(this, name_);
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

/// Condition variable working over the annotated Mutex.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // The waits release and reacquire through the wrapper's annotated
  // lock()/unlock(), which the analysis cannot model inside one
  // function body; REQUIRES covers callers, NO_ANALYSIS the bodies.
  void Wait(Mutex* mu) EDADB_REQUIRES(mu) EDADB_NO_THREAD_SAFETY_ANALYSIS;

  /// Returns false on timeout.
  bool WaitForMicros(Mutex* mu, int64_t micros) EDADB_REQUIRES(mu)
      EDADB_NO_THREAD_SAFETY_ANALYSIS;

  void Signal();
  void SignalAll();

 private:
  std::condition_variable_any cv_;
};

}  // namespace edadb

#endif  // EDADB_COMMON_MUTEX_H_
