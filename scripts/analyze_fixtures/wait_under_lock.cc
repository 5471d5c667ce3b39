// Seeded wait-under-lock and cv-wait-no-loop violations.
//
// - Direct blocking syscall (::fdatasync) under a held mutex.
// - Transitive ::write reached through a typed-receiver call while a
//   mutex is held (needs the may-block closure).
// - CondVar wait while a DIFFERENT mutex is also held (classic
//   convoy/deadlock shape; waiting on one's own mutex is fine).
// - The same, where the call's arguments hold a lambda body or the call
//   is an `if` condition: block headers carry calls too.
// - The same, through an owning local (`std::unique_ptr<T> x = ...`),
//   whose declaration names the receiver's type.
// - std::this_thread::sleep_for under a lock.
// - cv-wait-no-loop: a CondVar wait with no enclosing predicate loop.
// - Negative controls: ::write with no lock held, and a correctly
//   looped wait on the waited mutex only.
#include <chrono>
#include <memory>
#include <thread>

#include "support.h"

namespace fx {

class DirectSync {
 public:
  void Flush() {
    MutexLock l(&mu_);
    ::fdatasync(fd_);  // expect-analyze: wait-under-lock
  }

 private:
  Mutex mu_{"DirectSync::mu_"};
  int fd_ EDADB_GUARDED_BY(mu_);
};

// Negative: blocking with no lock held is fine on its own...
class Sink {
 public:
  void Emit() { ::write(1, "x", 1); }
};

// ...but reaching it while holding a mutex is not.
class CallsUnderLock {
 public:
  void Publish() {
    MutexLock l(&mu_);
    sink_->Emit();  // expect-analyze: wait-under-lock
  }

 private:
  Mutex mu_{"CallsUnderLock::mu_"};
  Sink* sink_ EDADB_GUARDED_BY(mu_);
};

class Store {
 public:
  int UpdateWhere(int key, int (*mutate)(int)) {
    ::write(1, "x", 1);
    return mutate(key);
  }
  bool Flush() { return ::write(1, "x", 1) == 1; }
};

class LambdaArgUnderLock {
 public:
  void Bump() {
    MutexLock l(&mu_);
    store_->UpdateWhere(1, [](int row) {  // expect-analyze: wait-under-lock
      return row + 1;
    });
  }

 private:
  Mutex mu_{"LambdaArgUnderLock::mu_"};
  Store* store_ EDADB_GUARDED_BY(mu_);
};

class ConditionUnderLock {
 public:
  void Sync() {
    MutexLock l(&mu_);
    if (store_->Flush()) {  // expect-analyze: wait-under-lock
      ++flushes_;
    }
  }

 private:
  Mutex mu_{"ConditionUnderLock::mu_"};
  Store* store_ EDADB_GUARDED_BY(mu_);
  int flushes_ EDADB_GUARDED_BY(mu_) = 0;
};

class OwnedTxn {
 public:
  bool Commit() { return ::write(1, "x", 1) == 1; }
};

class TxnSource {
 public:
  std::unique_ptr<OwnedTxn> Begin() { return std::make_unique<OwnedTxn>(); }
};

class OwnedLocalUnderLock {
 public:
  void Apply() {
    MutexLock l(&mu_);
    std::unique_ptr<OwnedTxn> txn = source_->Begin();
    txn->Commit();  // expect-analyze: wait-under-lock
  }

 private:
  Mutex mu_{"OwnedLocalUnderLock::mu_"};
  TxnSource* source_ EDADB_GUARDED_BY(mu_);
};

class TwoLockWait {
 public:
  void Drain() {
    MutexLock outer(&reg_mu_);
    MutexLock inner(&mu_);
    while (busy_) {
      cv_.Wait(&mu_);  // expect-analyze: wait-under-lock
    }
  }

 private:
  Mutex reg_mu_{"TwoLockWait::reg_mu_"};
  Mutex mu_{"TwoLockWait::mu_"};
  CondVar cv_;
  bool busy_ EDADB_GUARDED_BY(mu_);
};

class SleepyHold {
 public:
  void Nap() {
    MutexLock l(&mu_);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));  // expect-analyze: wait-under-lock
  }

 private:
  Mutex mu_{"SleepyHold::mu_"};
};

class NoLoopWait {
 public:
  void WaitOnce() {
    MutexLock l(&mu_);
    cv_.Wait(&mu_);  // expect-analyze: cv-wait-no-loop
  }

 private:
  Mutex mu_{"NoLoopWait::mu_"};
  CondVar cv_;
};

// Negative: waiting on the mutex you hold, inside a predicate loop, is
// the correct pattern and must produce nothing.
class OkWait {
 public:
  void WaitReady() {
    MutexLock l(&mu_);
    while (!ready_) {
      cv_.Wait(&mu_);
    }
  }

 private:
  Mutex mu_{"OkWait::mu_"};
  CondVar cv_;
  bool ready_ EDADB_GUARDED_BY(mu_);
};

}  // namespace fx
