// Tests for the annotated mutex wrappers and the debug lock-rank
// registry. The death tests enable the registry explicitly so they pass
// in both Debug and Release builds.

#include "common/mutex.h"

#include <atomic>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace edadb {
namespace {

class LockGraphTest : public testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = lock_graph::IsEnabled();
    lock_graph::ResetForTesting();
    lock_graph::Enable(true);
  }
  void TearDown() override {
    lock_graph::ResetForTesting();
    lock_graph::Enable(was_enabled_);
  }
  bool was_enabled_ = false;
};

TEST_F(LockGraphTest, ConsistentOrderIsAccepted) {
  Mutex a("order_test::a");
  Mutex b("order_test::b");
  for (int i = 0; i < 3; ++i) {
    MutexLock la(&a);
    MutexLock lb(&b);
  }
}

using LockGraphDeathTest = LockGraphTest;

TEST_F(LockGraphDeathTest, InversionAborts) {
  Mutex a("inversion_test::a");
  Mutex b("inversion_test::b");
  {
    MutexLock la(&a);
    MutexLock lb(&b);
  }
  EXPECT_DEATH(
      {
        MutexLock lb(&b);
        MutexLock la(&a);
      },
      "lock-order inversion");
}

TEST_F(LockGraphDeathTest, SelfDeadlockAborts) {
  Mutex m("self_deadlock_test::m");
  EXPECT_DEATH(
      {
        m.Lock();
        m.Lock();
      },
      "self-deadlock");
}

TEST(MutexTest, TryLockReportsContention) {
  Mutex m;
  m.Lock();
  std::thread other([&] { EXPECT_FALSE(m.TryLock()); });
  other.join();
  m.Unlock();
  ASSERT_TRUE(m.TryLock());
  m.Unlock();
}

TEST(MutexTest, CondVarSignalsWaiters) {
  Mutex m("condvar_test::m");
  CondVar cv;
  bool ready = false;
  std::thread waiter([&] {
    MutexLock lock(&m);
    while (!ready) cv.Wait(&m);
  });
  {
    MutexLock lock(&m);
    ready = true;
  }
  cv.SignalAll();
  waiter.join();
}

TEST(MutexTest, CondVarWaitForMicrosTimesOut) {
  Mutex m;
  MutexLock lock(&m);
  CondVar cv;
  EXPECT_FALSE(cv.WaitForMicros(&m, 1000));
}

TEST(MutexTest, MutualExclusionUnderContention) {
  Mutex m("contention_test::m");
  int64_t counter = 0;  // Deliberately non-atomic; mu_ is the guard.
  constexpr int kThreads = 4;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(&m);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, int64_t{kThreads} * kIncrements);
}

}  // namespace
}  // namespace edadb
