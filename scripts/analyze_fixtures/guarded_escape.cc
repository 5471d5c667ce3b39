// Seeded guarded-field escape violations: references, iterators and
// captures of EDADB_GUARDED_BY storage leaving the critical section --
// the aliases that turn into cross-shard races once lock domains are
// split.
//
// Negative controls: returning a COPY, and a by-ref lambda that dies
// inside the critical section, must stay silent.
#include <cstdint>
#include <functional>
#include <vector>

#include "support.h"

namespace fx {

void RunDeferred(const std::function<void()>& fn);

class EscapeCache {
 public:
  // Positive: a pointer into guarded storage handed to the caller.
  const std::vector<int>* Snapshot() {
    MutexLock l(&cache_mu_);
    return &entries_;  // expect-analyze: guarded-escape
  }

  // Positive: a guarded container's iterator stored through a member.
  void Seek() {
    MutexLock l(&cache_mu_);
    cursor_ = entries_.begin();  // expect-analyze: guarded-escape
  }

  // Positive: guarded fields captured (via this) by a lambda handed to
  // a deferred callee -- it runs after the lock is gone.
  void PublishStats() {
    RunDeferred([this] {
      total_ += entries_.size();  // expect-analyze: guarded-escape
    });
  }

  // Negative: a copy leaves the critical section; a reference does not.
  int Size() {
    MutexLock l(&cache_mu_);
    return static_cast<int>(entries_.size());
  }

  // Negative: the lambda never outlives the statement it is called in.
  int Sum() {
    MutexLock l(&cache_mu_);
    int sum = 0;
    auto add = [&] { sum += static_cast<int>(entries_.size()); };
    add();
    return sum;
  }

 private:
  Mutex cache_mu_{"EscapeCache::cache_mu_"};
  std::vector<int> entries_ EDADB_GUARDED_BY(cache_mu_);
  std::vector<int>::const_iterator cursor_ EDADB_GUARDED_BY(cache_mu_);
  uint64_t total_ EDADB_GUARDED_BY(cache_mu_) = 0;
};

}  // namespace fx

// Defined so the fixture is complete, valid C++ (see support.h).
void fx::RunDeferred(const std::function<void()>& fn) { fn(); }
