// Experiment E2 — message storage performance & scalability (§2.2.b.ii.2).
//
// Enqueue and dequeue+ack throughput through the database-backed staging
// areas, across payload sizes, WAL sync policies and consumer-group
// fanout. Expected shape: throughput falls with payload size and sync
// strictness; fanout to G groups costs ~G delivery rows per message.

#include <memory>
#include <mutex>
#include <vector>

#include "benchmark/benchmark.h"
#include "bench_util.h"
#include "mq/queue_manager.h"
#include "mq/shard_router.h"
#include "common/macros.h"

namespace edadb {
namespace {

struct QueueFixture {
  bench::BenchDir dir;
  std::unique_ptr<Database> db;
  std::unique_ptr<QueueManager> queues;

  explicit QueueFixture(WalSyncPolicy sync = WalSyncPolicy::kNever) {
    DatabaseOptions options;
    options.dir = dir.path();
    options.wal_sync_policy = sync;
    db = *Database::Open(std::move(options));
    queues = *QueueManager::Attach(db.get());
    if (!queues->CreateQueue("bench").ok()) std::abort();
  }
};

void BM_Enqueue(benchmark::State& state) {
  const size_t payload_size = static_cast<size_t>(state.range(0));
  QueueFixture fx;
  Random rng(1);
  EnqueueRequest request;
  request.payload = rng.NextString(payload_size);
  request.attributes = {{"severity", Value::Int64(5)},
                        {"region", Value::String("east")}};
  for (auto _ : state) {
    auto id = fx.queues->Enqueue("bench", request);
    if (!id.ok()) std::abort();
    benchmark::DoNotOptimize(id);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(payload_size));
}
BENCHMARK(BM_Enqueue)->Arg(64)->Arg(1024)->Arg(16384)
    ->Unit(benchmark::kMicrosecond);

void BM_EnqueueSyncPolicy(benchmark::State& state) {
  const auto policy = static_cast<WalSyncPolicy>(state.range(0));
  QueueFixture fx(policy);
  EnqueueRequest request;
  request.payload = "sync policy benchmark payload";
  for (auto _ : state) {
    if (!fx.queues->Enqueue("bench", request).ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(policy == WalSyncPolicy::kNever
                     ? "sync=never"
                     : (policy == WalSyncPolicy::kOnCommit
                            ? "sync=on_commit"
                            : "sync=every_append"));
}
BENCHMARK(BM_EnqueueSyncPolicy)
    ->Arg(static_cast<int>(WalSyncPolicy::kNever))
    ->Arg(static_cast<int>(WalSyncPolicy::kOnCommit))
    ->Arg(static_cast<int>(WalSyncPolicy::kEveryAppend))
    ->Unit(benchmark::kMicrosecond);

void BM_EnqueueDequeueAck(benchmark::State& state) {
  QueueFixture fx;
  EnqueueRequest request;
  request.payload = "round trip";
  DequeueRequest dq;
  for (auto _ : state) {
    if (!fx.queues->Enqueue("bench", request).ok()) std::abort();
    auto message = fx.queues->Dequeue("bench", dq);
    if (!message.ok() || !message->has_value()) std::abort();
    if (!fx.queues->Ack("bench", "", (*message)->id).ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EnqueueDequeueAck)->Unit(benchmark::kMicrosecond);

void BM_DequeueWithSelector(benchmark::State& state) {
  // Selector matches ~half the backlog; measures selector evaluation on
  // the dequeue path.
  QueueFixture fx;
  Random rng(2);
  DequeueRequest dq;
  dq.selector = *Predicate::Compile("severity >= 5");
  EnqueueRequest request;
  request.payload = "x";
  for (auto _ : state) {
    state.PauseTiming();
    request.attributes = {
        {"severity", Value::Int64(rng.UniformInt(0, 9))}};
    EDADB_IGNORE_STATUS(fx.queues->Enqueue("bench", request),
                      "bench drive loop; a failed enqueue surfaces as an empty dequeue in the measured path");
    request.attributes = {{"severity", Value::Int64(9)}};
    EDADB_IGNORE_STATUS(fx.queues->Enqueue("bench", request),
                      "bench drive loop; a failed enqueue surfaces as an empty dequeue in the measured path");
    state.ResumeTiming();
    auto message = fx.queues->Dequeue("bench", dq);
    if (!message.ok() || !message->has_value()) std::abort();
    if (!fx.queues->Ack("bench", "", (*message)->id).ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DequeueWithSelector)->Unit(benchmark::kMicrosecond);

void BM_FanoutToGroups(benchmark::State& state) {
  const int64_t groups = state.range(0);
  QueueFixture fx;
  for (int64_t g = 0; g < groups; ++g) {
    if (!fx.queues->AddConsumerGroup("bench", "g" + std::to_string(g)).ok()) {
      std::abort();
    }
  }
  EnqueueRequest request;
  request.payload = "fanout";
  for (auto _ : state) {
    if (!fx.queues->Enqueue("bench", request).ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations() * groups);
  state.counters["groups"] = static_cast<double>(groups);
}
BENCHMARK(BM_FanoutToGroups)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

void BM_TransactionalEnqueueBatch(benchmark::State& state) {
  const int64_t batch = state.range(0);
  QueueFixture fx;
  EnqueueRequest request;
  request.payload = "batched";
  for (auto _ : state) {
    auto txn = fx.db->BeginTransaction();
    for (int64_t i = 0; i < batch; ++i) {
      if (!fx.queues->EnqueueInTransaction(txn.get(), "bench", request)
               .ok()) {
        std::abort();
      }
    }
    if (!txn->Commit().ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.counters["batch"] = static_cast<double>(batch);
}
BENCHMARK(BM_TransactionalEnqueueBatch)->Arg(1)->Arg(16)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

/// The tentpole measurement: batch-size sweep of EnqueueBatch (one
/// transaction, one WAL barrier) against the per-event Enqueue loop
/// (one of each per message), both under sync=on_commit so the fsync
/// amortization is what's being measured. range(0) = batch size,
/// range(1) = 1 for EnqueueBatch / 0 for the loop.
void BM_EnqueueBatchVsLoop(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  const bool use_batch = state.range(1) != 0;
  QueueFixture fx(WalSyncPolicy::kOnCommit);
  std::vector<EnqueueRequest> requests(batch);
  for (auto& request : requests) {
    request.payload = "group commit sweep payload";
    request.attributes = {{"severity", Value::Int64(5)}};
  }
  for (auto _ : state) {
    if (use_batch) {
      if (!fx.queues->EnqueueBatch("bench", requests).ok()) std::abort();
    } else {
      for (const auto& request : requests) {
        if (!fx.queues->Enqueue("bench", request).ok()) std::abort();
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
  state.SetLabel(use_batch ? "batch" : "loop");
}
BENCHMARK(BM_EnqueueBatchVsLoop)
    ->ArgsProduct({{1, 8, 64, 512}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

/// Concurrent single-message enqueues under sync=on_commit: with the
/// WAL's leader/follower group commit, T threads committing at once
/// should share fdatasyncs rather than paying one each, so aggregate
/// items_per_second should grow with thread count.
void BM_ConcurrentEnqueueGroupCommit(benchmark::State& state) {
  static QueueFixture fx(WalSyncPolicy::kOnCommit);
  EnqueueRequest request;
  request.payload = "concurrent group commit";
  for (auto _ : state) {
    if (!fx.queues->Enqueue("bench", request).ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConcurrentEnqueueGroupCommit)
    ->Threads(1)
    ->Threads(4)
    ->Threads(16)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// The sharding measurement: 4 threads batch-enqueueing under
/// sync=on_commit, round-robin over 16 queues hash-routed across
/// range(0) delivery-core shards. One shard = every commit serializes
/// through one WAL stream and one queue lock domain; N shards = commits
/// on different shards overlap their fsyncs and contend on disjoint
/// locks, so aggregate items_per_second should grow with the shard
/// count even on few cores (the win is overlapped sync waits, not CPU).
struct ShardedQueueFixture {
  bench::BenchDir dir;
  std::unique_ptr<Database> db;
  std::unique_ptr<ShardRouter> router;
  std::vector<std::string> queues;

  explicit ShardedQueueFixture(size_t shards) {
    DatabaseOptions options;
    options.dir = dir.path();
    options.wal_sync_policy = WalSyncPolicy::kOnCommit;
    db = *Database::Open(std::move(options));
    router = *ShardRouter::Open(db.get(), shards);
    for (int i = 0; i < 16; ++i) {
      const std::string name = "bench" + std::to_string(i);
      if (!router->CreateQueue(name).ok()) std::abort();
      queues.push_back(name);
    }
  }
};

void BM_ShardedEnqueueBatch(benchmark::State& state) {
  // Shared across the 4 threads of one run; rebuilt when the shard
  // count argument changes (first thread to arrive wins the race).
  static std::mutex fixture_mu;
  static std::unique_ptr<ShardedQueueFixture> fx;
  static int64_t fx_shards = -1;
  {
    std::lock_guard<std::mutex> lock(fixture_mu);
    if (fx_shards != state.range(0)) {
      fx.reset();
      fx = std::make_unique<ShardedQueueFixture>(
          static_cast<size_t>(state.range(0)));
      fx_shards = state.range(0);
    }
  }
  constexpr size_t kBatch = 64;
  std::vector<EnqueueRequest> requests(kBatch);
  for (auto& request : requests) {
    request.payload = "sharded batch enqueue payload";
  }
  // Stagger the starting queue per thread so threads spread over shards
  // instead of convoying on one.
  size_t next = static_cast<size_t>(state.thread_index()) * 4;
  for (auto _ : state) {
    const std::string& queue = fx->queues[next++ % fx->queues.size()];
    if (!fx->router->EnqueueBatch(queue, requests).ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kBatch));
  // kAvgThreads: the shard count is a dimension, not a per-thread sum.
  state.counters["shards"] = benchmark::Counter(
      static_cast<double>(state.range(0)), benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_ShardedEnqueueBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// Drains a backlog of range(0) messages one Dequeue + Ack at a time,
/// topping it back up (untimed) whenever half of it is gone, so the
/// depth stays between range(0)/2 and range(0). A dequeue must not pay
/// for the messages behind the one it takes: the cost per message
/// should stay flat across depths.
void BM_DrainBacklog(benchmark::State& state) {
  const size_t depth = static_cast<size_t>(state.range(0));
  QueueFixture fx;
  EnqueueRequest request;
  request.payload = "backlog";
  const std::vector<EnqueueRequest> chunk(depth / 2, request);
  for (int half = 0; half < 2; ++half) {
    if (!fx.queues->EnqueueBatch("bench", chunk).ok()) std::abort();
  }
  DequeueRequest dq;
  size_t level = depth;
  for (auto _ : state) {
    if (level == depth / 2) {
      state.PauseTiming();
      if (!fx.queues->EnqueueBatch("bench", chunk).ok()) std::abort();
      level = depth;
      state.ResumeTiming();
    }
    auto message = fx.queues->Dequeue("bench", dq);
    if (!message.ok() || !message->has_value()) std::abort();
    if (!fx.queues->Ack("bench", "", (*message)->id).ok()) std::abort();
    --level;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["depth"] = static_cast<double>(depth);
}
BENCHMARK(BM_DrainBacklog)->Arg(1000)->Arg(10000)->Arg(40000)
    ->Unit(benchmark::kMicrosecond);

/// DequeueBatch draining a pre-filled backlog `batch` messages at a
/// time (all of a batch's locks persist in one transaction).
void BM_DequeueBatch(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  QueueFixture fx;
  EnqueueRequest request;
  request.payload = "drain me";
  DequeueRequest dq;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<EnqueueRequest> refill(batch, request);
    if (!fx.queues->EnqueueBatch("bench", refill).ok()) std::abort();
    state.ResumeTiming();
    auto messages = fx.queues->DequeueBatch("bench", dq, batch);
    if (!messages.ok() || messages->size() != batch) std::abort();
    state.PauseTiming();
    for (const Message& message : *messages) {
      if (!fx.queues->Ack("bench", "", message.id).ok()) std::abort();
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_DequeueBatch)->Arg(1)->Arg(8)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace edadb

int main(int argc, char** argv) { return edadb::bench::BenchMain(argc, argv); }
