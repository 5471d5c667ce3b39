// Mini shims so the analyzer fixtures are valid, self-contained C++.
//
// The analyzer only needs the *shapes* (Mutex members, MutexLock RAII,
// CondVar::Wait, ::fdatasync); the shims keep each fixture valid C++, so
// a seeded violation is written the way real code would write it.
//
// This header must itself produce ZERO findings: the self-test treats any
// finding without a matching `// expect-analyze:` comment as a failure.
#ifndef EDADB_SCRIPTS_ANALYZE_FIXTURES_SUPPORT_H_
#define EDADB_SCRIPTS_ANALYZE_FIXTURES_SUPPORT_H_

#include <cstdint>

// POSIX-compatible declarations so `::fdatasync` / `::write` resolve
// without pulling in <unistd.h> (signatures match glibc on LP64).
extern "C" int fdatasync(int fd);
extern "C" long write(int fd, const void* buf, unsigned long n);

#define EDADB_GUARDED_BY(mu)

namespace fx {

class Mutex {
 public:
  Mutex() = default;
  explicit Mutex(const char* name) { (void)name; }
  void Lock() {}
  void Unlock() {}
};

class MutexLock {
 public:
  explicit MutexLock(Mutex* mu) { (void)mu; }
};

class CondVar {
 public:
  void Wait(Mutex* mu) { (void)mu; }
  bool WaitForMicros(Mutex* mu, int64_t timeout) {
    (void)mu;
    (void)timeout;
    return true;
  }
  void Signal() {}
  void SignalAll() {}
};

// Raw (untyped) clock reads: these are what the clock-domain check
// taints. The typed reads below produce domain-checked values and must
// taint nothing.
int64_t NowMicros();
int64_t SteadyNowMicros();

struct WallMicros {
  int64_t v;
  int64_t micros() const { return v; }
};

WallMicros WallNow();

}  // namespace fx

#endif  // EDADB_SCRIPTS_ANALYZE_FIXTURES_SUPPORT_H_
