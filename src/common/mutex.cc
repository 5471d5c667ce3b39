#include "common/mutex.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace edadb {
namespace lock_graph {

namespace {

#ifdef NDEBUG
constexpr bool kEnabledByDefault = false;
#else
constexpr bool kEnabledByDefault = true;
#endif

std::atomic<bool> g_enabled{kEnabledByDefault};

/// One lock a thread currently holds.
struct HeldLock {
  const void* mutex;
  const char* name;  // nullptr = unnamed, excluded from ordering.
};

/// The locks this thread holds, in acquisition order. Bookkeeping is
/// recorded *before* blocking on the underlying mutex so that the
/// ordering report reflects intent even if the acquisition deadlocks.
thread_local std::vector<HeldLock> t_held;

/// Global acquired-before graph over mutex *names*: edge a->b means
/// "some thread acquired b while holding a". Guarded by its own raw
/// std::mutex (deliberately not a wrapper: the checker cannot check
/// itself).
struct Graph {
  std::mutex mu;
  std::map<std::string, std::set<std::string>> edges;
};

Graph& GetGraph() {
  static Graph* graph = new Graph();  // lint:allow(raw-new-delete): intentional leak, outlives static destructors
  return *graph;
}

/// DFS for a path from `from` to `to`; fills `path` (inclusive of both
/// endpoints) when found. Caller holds the graph mutex.
bool FindPath(const Graph& graph, const std::string& from,
              const std::string& to, std::vector<std::string>* path,
              std::set<std::string>* visited) {
  if (!visited->insert(from).second) return false;
  path->push_back(from);
  if (from == to) return true;
  auto it = graph.edges.find(from);
  if (it != graph.edges.end()) {
    for (const std::string& next : it->second) {
      if (FindPath(graph, next, to, path, visited)) return true;
    }
  }
  path->pop_back();
  return false;
}

[[noreturn]] void ReportInversion(const char* holding, const char* acquiring,
                                  const std::vector<std::string>& path) {
  std::fprintf(stderr,
               "edadb lock-order inversion: acquiring '%s' while holding "
               "'%s', but the established order requires '%s' first:\n",
               acquiring, holding, acquiring);
  for (size_t i = 0; i < path.size(); ++i) {
    std::fprintf(stderr, "  %s'%s'%s\n", i == 0 ? "" : "-> acquired before ",
                 path[i].c_str(), i + 1 == path.size() ? "" : "");
  }
  std::fprintf(stderr,
               "Fix: acquire these mutexes in one global order (see "
               "DESIGN.md \"Concurrency invariants\").\n");
  std::fflush(stderr);
  std::abort();
}

[[noreturn]] void ReportSelfDeadlock(const char* name) {
  std::fprintf(stderr,
               "edadb lock error: recursive acquisition of mutex '%s' "
               "(self-deadlock)\n",
               name != nullptr ? name : "<unnamed>");
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void Enable(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool IsEnabled() { return g_enabled.load(std::memory_order_relaxed); }

void ResetForTesting() {
  Graph& graph = GetGraph();
  std::lock_guard lock(graph.mu);
  graph.edges.clear();
}

namespace internal {

void RecordAcquire(const void* mutex, const char* name) {
  if (!IsEnabled()) return;
  for (const HeldLock& held : t_held) {
    if (held.mutex == mutex) ReportSelfDeadlock(name);
  }
  if (name != nullptr) {
    Graph& graph = GetGraph();
    std::lock_guard lock(graph.mu);
    for (const HeldLock& held : t_held) {
      if (held.name == nullptr) continue;
      if (std::string_view(held.name) == name) continue;  // Same class.
      std::set<std::string>& out = graph.edges[held.name];
      if (out.count(name) > 0) continue;  // Known-consistent edge.
      // Adding held->name: if name already reaches held, this closes a
      // cycle — two call paths disagree about the order.
      std::vector<std::string> path;
      std::set<std::string> visited;
      if (FindPath(graph, name, held.name, &path, &visited)) {
        ReportInversion(held.name, name, path);
      }
      out.insert(name);
    }
  }
  t_held.push_back({mutex, name});
}

void RecordRelease(const void* mutex) {
  if (!IsEnabled()) return;
  for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
    if (it->mutex == mutex) {
      t_held.erase(std::next(it).base());
      return;
    }
  }
}

}  // namespace internal
}  // namespace lock_graph

void CondVar::Wait(Mutex* mu) { cv_.wait(*mu); }

bool CondVar::WaitForMicros(Mutex* mu, int64_t micros) {
  return cv_.wait_for(*mu, std::chrono::microseconds(micros)) ==
         std::cv_status::no_timeout;
}

void CondVar::Signal() { cv_.notify_one(); }

void CondVar::SignalAll() { cv_.notify_all(); }

}  // namespace edadb
