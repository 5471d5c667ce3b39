// Experiment E6 — publish/subscribe fanout (§2.2.c.i): publish
// throughput against growing subscription populations, comparing
// exact-topic subscriptions (hash-indexable) with content-based filters
// and glob patterns. Expected shape: publish cost tracks the number of
// MATCHING subscriptions, not the total population, because
// subscriptions compile into the indexed rule matcher.

#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "benchmark/benchmark.h"
#include "bench_util.h"
#include "mq/queue_manager.h"
#include "pubsub/broker.h"

namespace edadb {
namespace {

struct BrokerFixture {
  bench::BenchDir dir;
  std::unique_ptr<Database> db;
  std::unique_ptr<QueueManager> queues;
  std::unique_ptr<Broker> broker;
  uint64_t delivered = 0;

  BrokerFixture() {
    DatabaseOptions options;
    options.dir = dir.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    db = *Database::Open(std::move(options));
    queues = *QueueManager::Attach(db.get());
    broker = *Broker::Attach(db.get(), queues.get());
  }

  void AddHandlerSub(const std::string& topic_pattern,
                     const std::string& filter) {
    SubscriptionSpec spec;
    spec.subscriber = "bench";
    spec.topic_pattern = topic_pattern;
    spec.content_filter = filter;
    spec.handler = [this](const Publication&) { ++delivered; };
    if (!broker->Subscribe(std::move(spec)).ok()) std::abort();
  }
};

/// N exact-topic subscribers spread over 100 topics; each publish
/// matches ~N/100.
void BM_PublishExactTopics(benchmark::State& state) {
  const int64_t subs = state.range(0);
  BrokerFixture fx;
  for (int64_t i = 0; i < subs; ++i) {
    fx.AddHandlerSub("topic/" + std::to_string(i % 100), "");
  }
  Random rng(1);
  Publication pub;
  pub.payload = "x";
  for (auto _ : state) {
    pub.topic = "topic/" + std::to_string(rng.Uniform(100));
    auto n = fx.broker->Publish(pub);
    if (!n.ok()) std::abort();
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["subscriptions"] = static_cast<double>(subs);
  state.counters["deliveries_per_publish"] =
      static_cast<double>(fx.delivered) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_PublishExactTopics)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

/// Content-based subscriptions: equality + range filter per subscriber.
void BM_PublishContentFiltered(benchmark::State& state) {
  const int64_t subs = state.range(0);
  BrokerFixture fx;
  Random rng(2);
  for (int64_t i = 0; i < subs; ++i) {
    fx.AddHandlerSub(
        "", StringPrintf("shard = %lld AND severity >= %lld",
                         static_cast<long long>(i % 256),
                         static_cast<long long>(rng.UniformInt(3, 9))));
  }
  Publication pub;
  pub.payload = "x";
  pub.topic = "t";
  for (auto _ : state) {
    pub.attributes = {
        {"shard", Value::Int64(rng.UniformInt(0, 255))},
        {"severity", Value::Int64(rng.UniformInt(0, 10))}};
    auto n = fx.broker->Publish(pub);
    if (!n.ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["subscriptions"] = static_cast<double>(subs);
  state.counters["deliveries_per_publish"] =
      static_cast<double>(fx.delivered) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_PublishContentFiltered)->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

/// Glob subscriptions cannot be hash-indexed (LIKE residual → scan
/// list): the anti-pattern the indexed matcher cannot save you from.
void BM_PublishGlobSubscriptions(benchmark::State& state) {
  const int64_t subs = state.range(0);
  BrokerFixture fx;
  for (int64_t i = 0; i < subs; ++i) {
    fx.AddHandlerSub("sensors/" + std::to_string(i) + "/*", "");
  }
  Random rng(3);
  Publication pub;
  pub.payload = "x";
  for (auto _ : state) {
    pub.topic = "sensors/" + std::to_string(rng.Uniform(subs)) + "/temp";
    if (!fx.broker->Publish(pub).ok()) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["subscriptions"] = static_cast<double>(subs);
}
BENCHMARK(BM_PublishGlobSubscriptions)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

/// Durable fanout: every delivery is a persistent enqueue, all of one
/// publication's in one transaction.
void BM_PublishDurable(benchmark::State& state) {
  const int64_t subs = state.range(0);
  BrokerFixture fx;
  for (int64_t i = 0; i < subs; ++i) {
    SubscriptionSpec spec;
    spec.subscriber = "worker" + std::to_string(i);
    spec.topic_pattern = "jobs";
    spec.durable = true;
    if (!fx.broker->Subscribe(std::move(spec)).ok()) std::abort();
  }
  Publication pub;
  pub.topic = "jobs";
  pub.payload = "durable fanout";
  for (auto _ : state) {
    auto n = fx.broker->Publish(pub);
    if (!n.ok() || *n != static_cast<size_t>(subs)) std::abort();
  }
  state.SetItemsProcessed(state.iterations() * subs);
  state.counters["subscriptions"] = static_cast<double>(subs);
}
BENCHMARK(BM_PublishDurable)->Arg(1)->Arg(8)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

/// Durable fan-out round trip (§2.2.c.i, §2.2.d.i): each iteration
/// publishes one publication to N durable subscribers, staged by one
/// EnqueueFanout (one transaction), then drains every subscriber with
/// Fetch, one REMOVE-mode dequeue (one transaction) per delivery.
/// Items are deliveries.
void BM_DurableFanoutFetch(benchmark::State& state) {
  const int64_t subs = state.range(0);
  BrokerFixture fx;
  std::vector<std::string> ids;
  for (int64_t i = 0; i < subs; ++i) {
    SubscriptionSpec spec;
    spec.subscriber = "worker" + std::to_string(i);
    spec.topic_pattern = "jobs";
    spec.durable = true;
    auto id = fx.broker->Subscribe(std::move(spec));
    if (!id.ok()) std::abort();
    ids.push_back(*std::move(id));
  }
  Publication pub;
  pub.topic = "jobs";
  pub.payload = "durable fanout";
  pub.attributes = {{"severity", Value::Int64(7)}};
  for (auto _ : state) {
    auto n = fx.broker->Publish(pub);
    if (!n.ok() || *n != static_cast<size_t>(subs)) std::abort();
    for (const std::string& id : ids) {
      auto fetched = fx.broker->Fetch(id);
      if (!fetched.ok() || !fetched->has_value()) std::abort();
      benchmark::DoNotOptimize(fetched);
    }
  }
  state.SetItemsProcessed(state.iterations() * subs);
  state.counters["subscriptions"] = static_cast<double>(subs);
}
BENCHMARK(BM_DurableFanoutFetch)->Arg(1)->Arg(8)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

/// Inline fan-out baseline for the live-feed scenario: N handler
/// subscriptions ALL matching every publish, so each publish invokes N
/// handlers synchronously. This is the path the event ring replaces for
/// live subscribers; BM_PublishLiveRing at 10k subscribers must beat
/// this at 100 by ≥10x (ISSUE 7 acceptance).
void BM_PublishInlineFanout(benchmark::State& state) {
  const int64_t subs = state.range(0);
  BrokerFixture fx;
  for (int64_t i = 0; i < subs; ++i) fx.AddHandlerSub("feed", "");
  Publication pub;
  pub.topic = "feed";
  pub.payload = "live tick";
  pub.attributes = {{"seq", Value::Int64(0)}};
  for (auto _ : state) {
    auto n = fx.broker->Publish(pub);
    if (!n.ok() || *n != static_cast<size_t>(subs)) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["subscribers"] = static_cast<double>(subs);
}
BENCHMARK(BM_PublishInlineFanout)->Arg(1)->Arg(100)
    ->Unit(benchmark::kMicrosecond);

/// Live-ring scaling (DESIGN.md §13): N poll-based ring subscribers
/// drained by a couple of background poller threads while the publisher
/// runs flat out. Publish cost is O(1) in N — the ring is written once
/// per publish — and slow consumers show up as an accounted miss_rate
/// in the JSON output, never as publisher backpressure.
void BM_PublishLiveRing(benchmark::State& state) {
  const int64_t subs = state.range(0);
  constexpr int kPollers = 2;
  BrokerFixture fx;
  std::vector<std::shared_ptr<LiveSubscription>> live;
  live.reserve(static_cast<size_t>(subs));
  for (int64_t i = 0; i < subs; ++i) {
    auto sub = fx.broker->SubscribeLive(
        {.subscriber = "live-" + std::to_string(i),
         .topic_pattern = "",
         .content_filter = ""});
    if (!sub.ok()) std::abort();
    live.push_back(*std::move(sub));
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> pollers;
  for (int t = 0; t < kPollers; ++t) {
    pollers.emplace_back([&, t] {
      std::vector<std::pair<uint64_t, Publication>> got;
      while (!stop.load(std::memory_order_acquire)) {
        for (size_t s = static_cast<size_t>(t); s < live.size();
             s += kPollers) {
          got.clear();
          benchmark::DoNotOptimize(live[s]->Poll(64, &got));
        }
      }
    });
  }

  Publication pub;
  pub.topic = "feed";
  pub.payload = "live tick";
  pub.attributes = {{"seq", Value::Int64(0)}};
  for (auto _ : state) {
    auto n = fx.broker->Publish(pub);
    if (!n.ok()) std::abort();
    benchmark::DoNotOptimize(n);
  }

  stop.store(true, std::memory_order_release);
  for (std::thread& t : pollers) t.join();
  // Final sweep: drain what is still in the ring so every event ends
  // up either delivered or in the accounted miss tally.
  std::vector<std::pair<uint64_t, Publication>> got;
  uint64_t delivered = 0, missed = 0;
  for (const auto& sub : live) {
    while (sub->lag() > 0) {
      got.clear();
      if (sub->Poll(1024, &got) == 0 && sub->lag() > 0) break;
    }
    delivered += sub->delivered();
    missed += sub->missed();
  }
  const double observed = static_cast<double>(delivered + missed);
  state.SetItemsProcessed(state.iterations());
  state.counters["subscribers"] = static_cast<double>(subs);
  state.counters["ring_delivered"] = static_cast<double>(delivered);
  state.counters["ring_missed"] = static_cast<double>(missed);
  state.counters["miss_rate"] =
      observed > 0 ? static_cast<double>(missed) / observed : 0.0;
}
BENCHMARK(BM_PublishLiveRing)->Arg(1)->Arg(100)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace edadb

int main(int argc, char** argv) { return edadb::bench::BenchMain(argc, argv); }
