// Experiment E10 — end-to-end message consumption & distribution
// (§2.2.d): the full pipeline ingest → rules → staging queue →
// propagation → external service, with per-stage and end-to-end
// latency percentiles printed as a table, plus sustained pipeline
// throughput as a benchmark.

#include <cstdio>
#include <memory>
#include <vector>

#include "analytics/stats.h"
#include "benchmark/benchmark.h"
#include "bench_util.h"
#include "core/processor.h"
#include "mq/propagation.h"

namespace edadb {
namespace {

struct Pipeline {
  bench::BenchDir dir;
  std::unique_ptr<EventProcessor> processor;
  std::unique_ptr<SimulatedExternalService> gateway;

  /// One delivery-core shard (the EventProcessor default) unless the
  /// sharded sweep below asks for more.
  explicit Pipeline(int shards = 1) {
    EventProcessorOptions options;
    options.data_dir = dir.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    options.shards = shards;
    processor = *EventProcessor::Open(std::move(options));
    if (!processor->queues()->CreateQueue("alerts").ok()) std::abort();
    if (!processor->queues()->CreateQueue("outbound").ok()) std::abort();
    if (!processor->rules()
             ->AddRule("critical", "severity >= 8", "queue:alerts")
             .ok()) {
      std::abort();
    }
    // alerts -> outbound -> external gateway.
    PropagationRule hop;
    hop.name = "stage";
    hop.source_queue = "alerts";
    hop.destination_queue = "outbound";
    if (!processor->propagator()->AddRule(std::move(hop)).ok()) std::abort();
    gateway = std::make_unique<SimulatedExternalService>(
        "gateway", SimulatedExternalService::Options{},
        processor->clock());
    PropagationRule out;
    out.name = "deliver";
    out.source_queue = "outbound";
    out.external = gateway.get();
    if (!processor->propagator()->AddRule(std::move(out)).ok()) std::abort();
  }

  Event MakeEvent(Random* rng, bool critical) {
    Event event;
    event.type = "reading";
    event.source = "s" + std::to_string(rng->Uniform(100));
    event.Set("severity",
              Value::Int64(critical ? 9 : rng->UniformInt(1, 5)));
    event.Set("payload_sz", Value::Int64(128));
    return event;
  }
};

void PrintLatencyTable() {
  static bool printed = false;
  if (printed) return;
  printed = true;
  Pipeline pipeline;
  Random rng(1);
  // Latency of one critical event through every stage, sampled 2000
  // times (steady clock: latency is a duration, not an event time).
  P2Quantile p50(0.5), p99(0.99);
  StreamingStats stats;
  for (int i = 0; i < 2000; ++i) {
    const SteadyMicros start = SystemClock::Default()->SteadyNow();
    if (!pipeline.processor->Ingest(pipeline.MakeEvent(&rng, true)).ok()) {
      std::abort();
    }
    if (!pipeline.processor->propagator()->RunOnce().ok()) std::abort();
    if (!pipeline.processor->propagator()->RunOnce().ok()) std::abort();
    const double micros = static_cast<double>(
        SystemClock::Default()->SteadyNow() - start);
    p50.Add(micros);
    p99.Add(micros);
    stats.Add(micros);
  }
  if (pipeline.gateway->delivered_count() != 2000) std::abort();
  std::printf(
      "\n=== E10: end-to-end latency, ingest -> rules -> queue -> "
      "propagate x2 -> external (2000 critical events) ===\n");
  std::printf("%10s %10s %10s %10s\n", "mean_us", "p50_us", "p99_us",
              "max_us");
  std::printf("%10.1f %10.1f %10.1f %10.1f\n\n", stats.mean(), p50.value(),
              p99.value(), stats.max());
}

/// Sustained throughput with a realistic critical fraction; propagation
/// pumped in batches as a scheduler would.
void BM_PipelineThroughput(benchmark::State& state) {
  PrintLatencyTable();
  const int64_t critical_percent = state.range(0);
  Pipeline pipeline;
  Random rng(2);
  int64_t since_pump = 0;
  for (auto _ : state) {
    const bool critical =
        rng.Uniform(100) < static_cast<uint64_t>(critical_percent);
    if (!pipeline.processor->Ingest(pipeline.MakeEvent(&rng, critical))
             .ok()) {
      std::abort();
    }
    if (++since_pump >= 256) {
      if (!pipeline.processor->propagator()->RunOnce().ok()) std::abort();
      if (!pipeline.processor->propagator()->RunOnce().ok()) std::abort();
      since_pump = 0;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["critical_pct"] = static_cast<double>(critical_percent);
  state.counters["delivered"] =
      static_cast<double>(pipeline.gateway->delivered_count());
}
BENCHMARK(BM_PipelineThroughput)->Arg(1)->Arg(10)->Arg(50)
    ->Unit(benchmark::kMicrosecond);

/// Ingest-only rate (rules evaluated, nothing matches): the pipeline's
/// fixed per-event tax.
void BM_IngestNoMatch(benchmark::State& state) {
  Pipeline pipeline;
  Random rng(3);
  for (auto _ : state) {
    if (!pipeline.processor->Ingest(pipeline.MakeEvent(&rng, false)).ok()) {
      std::abort();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IngestNoMatch)->Unit(benchmark::kMicrosecond);

/// Batch ingest sweep: IngestBatch(N) amortizes the matcher lock over N
/// events (nothing matches here, so no routing runs). Compare against
/// BM_IngestNoMatch for the N=1 tax.
void BM_IngestBatch(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  Pipeline pipeline;
  Random rng(4);
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Event> events;
    events.reserve(batch);
    for (size_t i = 0; i < batch; ++i) {
      events.push_back(pipeline.MakeEvent(&rng, false));
    }
    state.ResumeTiming();
    if (!pipeline.processor->IngestBatch(std::move(events)).ok()) {
      std::abort();
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_IngestBatch)->Arg(1)->Arg(8)->Arg(64)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

/// The full pipeline across delivery-core shard counts: queue routing,
/// rule-matched staging, and both propagation hops now run against a
/// sharded delivery core (the alerts -> outbound hop crosses shards
/// whenever the two queues hash apart, exercising the handoff path
/// under load). counters["shards"] makes the datapoint filterable in
/// the merged bench JSON.
void BM_PipelineThroughputSharded(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  Pipeline pipeline(shards);
  Random rng(6);
  int64_t since_pump = 0;
  for (auto _ : state) {
    const bool critical = rng.Uniform(100) < 10;
    if (!pipeline.processor->Ingest(pipeline.MakeEvent(&rng, critical))
             .ok()) {
      std::abort();
    }
    if (++since_pump >= 256) {
      if (!pipeline.processor->propagator()->RunOnce().ok()) std::abort();
      if (!pipeline.processor->propagator()->RunOnce().ok()) std::abort();
      since_pump = 0;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["delivered"] =
      static_cast<double>(pipeline.gateway->delivered_count());
}
BENCHMARK(BM_PipelineThroughputSharded)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

/// Full-pipeline latency of one critical event, exported as p50_us /
/// p99_us counters so the --json reporter carries real percentiles
/// (the latency table above prints the same numbers for humans).
void BM_PipelineLatency(benchmark::State& state) {
  Pipeline pipeline;
  Random rng(5);
  P2Quantile p50(0.5), p99(0.99);
  for (auto _ : state) {
    const SteadyMicros start = SystemClock::Default()->SteadyNow();
    if (!pipeline.processor->Ingest(pipeline.MakeEvent(&rng, true)).ok()) {
      std::abort();
    }
    if (!pipeline.processor->propagator()->RunOnce().ok()) std::abort();
    if (!pipeline.processor->propagator()->RunOnce().ok()) std::abort();
    const double micros = static_cast<double>(
        SystemClock::Default()->SteadyNow() - start);
    p50.Add(micros);
    p99.Add(micros);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["p50_us"] = p50.value();
  state.counters["p99_us"] = p99.value();
}
BENCHMARK(BM_PipelineLatency)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace edadb

int main(int argc, char** argv) { return edadb::bench::BenchMain(argc, argv); }
