// Seeded lock-order violations.
//
// 1. A two-lock cycle that only exists across call boundaries: each
//    function takes one lock directly and reaches the other through a
//    typed-receiver call, so detecting it requires the inter-procedural
//    may-acquire closure, not just per-function nesting.
// 2. A self-deadlock: re-acquiring a mutex through a this-call while
//    it is already held.
#include "support.h"

namespace fx {

class CycleTwo;

class CycleOne {
 public:
  void Forward();
  void GrabOne() { MutexLock l(&mu_one_); }

 private:
  Mutex mu_one_{"CycleOne::mu_one_"};
  CycleTwo* two_ EDADB_GUARDED_BY(mu_one_);
};

class CycleTwo {
 public:
  void Back();
  void GrabTwo() { MutexLock l(&mu_two_); }

 private:
  Mutex mu_two_{"CycleTwo::mu_two_"};
  CycleOne* one_ EDADB_GUARDED_BY(mu_two_);
};

// Edge A: holds mu_one_, call chain acquires mu_two_. The cycle finding
// anchors here (earliest edge in the file).
void CycleOne::Forward() {
  MutexLock l(&mu_one_);
  two_->GrabTwo();  // expect-analyze: lock-order
}

// Edge B: holds mu_two_, call chain acquires mu_one_. Closes the cycle.
void CycleTwo::Back() {
  MutexLock l(&mu_two_);
  one_->GrabOne();
}

class SelfDead {
 public:
  void Outer() {
    MutexLock l(&mu_);
    Inner();  // expect-analyze: lock-order
  }
  void Inner() { MutexLock l(&mu_); }

 private:
  Mutex mu_{"SelfDead::mu_"};
};

}  // namespace fx
