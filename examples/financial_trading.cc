// Financial services use case (§2.2.e.i): "event processing to execute
// online transactions, to react to opportunities and threats and to
// identify new opportunities and threats."
//
// A synthetic tick stream flows through three detectors:
//   - a CEP pattern (three consecutive drops then a rebound, per symbol)
//     flags a *dip-and-recover* buying opportunity;
//   - a sliding-window aggregation computes 1-second OHLC-style stats;
//   - an expectation model (EWMA) flags abnormal price jumps as threats.
// Opportunities and threats are staged on queues a trading desk drains.
//
// Build & run:  ./build/examples/financial_trading [data_dir]
// With no data_dir the app wipes and uses /tmp/edadb_financial; a
// data_dir it is given must be new or empty.

#include <cstdio>
#include <map>
#include <optional>
#include <string>

#include "common/random.h"
#include "core/monitor.h"
#include "core/processor.h"
#include "cq/pattern.h"
#include "cq/window.h"
#include "common/macros.h"
#include "mq/queue_manager.h"
#include "data_dir.h"

using namespace edadb;

namespace {

SchemaPtr TickSchema() {
  return Schema::Make({
      {"symbol", ValueType::kString, false},
      {"price", ValueType::kDouble, false},
      {"delta", ValueType::kDouble, false},
  });
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<std::string> dir =
      examples::FreshDataDir(argc, argv, "/tmp/edadb_financial");
  if (!dir.has_value()) return 2;
  EventProcessorOptions options;
  options.data_dir = *dir;
  auto processor = EventProcessor::Open(std::move(options));
  if (!processor.ok()) {
    std::fprintf(stderr, "%s\n", processor.status().ToString().c_str());
    return 1;
  }
  QueueService* queues = (*processor)->queues();
  for (const char* queue : {"opportunities", "threats"}) {
    if (auto s = queues->CreateQueue(queue); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }

  // --- CEP: dip (3+ consecutive drops) then rebound, per symbol.
  PatternSpec dip;
  dip.name = "dip_and_recover";
  PatternStep drop;
  drop.name = "drops";
  drop.condition = *Predicate::Compile("delta < 0");
  drop.one_or_more = true;
  PatternStep rebound;
  rebound.name = "rebound";
  rebound.condition = *Predicate::Compile("delta > 0.5");
  dip.steps = {drop, rebound};
  dip.within_micros = 10 * kMicrosPerSecond;
  dip.partition_by = "symbol";
  size_t opportunities = 0;
  auto pattern = *PatternMatcher::Create(dip, [&](const PatternMatch& m) {
    ++opportunities;
    EnqueueRequest request;
    request.payload = "dip-and-recover on " +
                      m.partition_key.string_value();
    request.attributes = {
        {"symbol", m.partition_key},
        {"drops", Value::Int64(static_cast<int64_t>(
                      m.bindings[0].second.size()))}};
    EDADB_IGNORE_STATUS(queues->Enqueue("opportunities", request),
                      "demo fan-out; a failed enqueue only drops the sample opportunity");
  });

  // --- Windowed stats: count/avg/min/max per symbol per second.
  WindowAggregatorOptions window_options;
  window_options.window_size_micros = kMicrosPerSecond;
  window_options.key_column = "symbol";
  window_options.aggregates = {
      {Aggregate::Func::kCount, "", "ticks"},
      {Aggregate::Func::kAvg, "price", "vwap_ish"},
      {Aggregate::Func::kMin, "price", "low"},
      {Aggregate::Func::kMax, "price", "high"}};
  size_t windows = 0;
  WindowedAggregator window(window_options, [&](const WindowResult& r) {
    ++windows;
    if (windows <= 4) {
      std::printf("  window %s\n", r.ToString().c_str());
    }
  });

  // --- Management by exception: abnormal jumps are threats.
  DeviationDetector::Options detector_options;
  detector_options.threshold_sigmas = 5.0;
  detector_options.min_uncertainty = 0.05;
  ExpectationMonitor monitor(
      [] { return std::make_unique<EwmaForecaster>(0.1); },
      detector_options,
      [&](const std::string& symbol, TimestampMicros, double price,
          const DetectionResult& result) {
        EnqueueRequest request;
        request.payload = "abnormal move on " + symbol;
        request.attributes = {{"symbol", Value::String(symbol)},
                              {"price", Value::Double(price)},
                              {"sigmas", Value::Double(result.score)}};
        request.priority = 9;
        EDADB_IGNORE_STATUS(queues->Enqueue("threats", request),
                      "demo fan-out; a failed enqueue only drops the sample threat");
      });

  // --- Synthetic market: random walks + one engineered dip + one shock.
  Random rng(2007);
  const char* symbols[] = {"ACME", "GLOBEX", "INITECH"};
  std::map<std::string, double> price = {
      {"ACME", 100}, {"GLOBEX", 250}, {"INITECH", 40}};
  TimestampMicros ts = 0;
  SchemaPtr schema = TickSchema();
  auto push_tick = [&](const std::string& symbol, double delta) {
    price[symbol] += delta;
    Record tick(schema, {Value::String(symbol),
                         Value::Double(price[symbol]),
                         Value::Double(delta)});
    ts += 20 * kMicrosPerMilli;
    EDADB_IGNORE_STATUS(pattern->Push(tick, ts),
                      "demo feed loop; a per-tick failure only thins the printed output");
    EDADB_IGNORE_STATUS(window.Push(tick, ts),
                      "demo feed loop; a per-tick failure only thins the printed output");
    EDADB_IGNORE_STATUS(monitor.Process(symbol, ts, price[symbol]),
                      "demo feed loop; a per-tick failure only thins the printed output");
  };

  for (int i = 0; i < 2000; ++i) {
    const std::string symbol = symbols[rng.Uniform(3)];
    push_tick(symbol, rng.Normal(0, 0.05));
    if (i == 800) {
      // Engineered dip-and-recover on ACME.
      for (int d = 0; d < 4; ++d) push_tick("ACME", -0.4);
      push_tick("ACME", 1.2);
    }
    if (i == 1500) {
      // Price shock on INITECH: a threat.
      push_tick("INITECH", 15.0);
    }
  }
  EDADB_IGNORE_STATUS(window.Flush(),
                      "end-of-demo flush; leftover window contents are printed best-effort");

  std::printf("\nprocessed 2000+ ticks, %zu windows emitted\n", windows);
  std::printf("pattern matches (opportunities): %zu\n", opportunities);

  auto drain = [&](const char* queue) {
    std::printf("%s:\n", queue);
    for (;;) {
      DequeueRequest dq;
      auto message = queues->Dequeue(queue, dq);
      if (!message.ok() || !message->has_value()) break;
      std::printf("  %s\n", (*message)->payload.c_str());
      EDADB_IGNORE_STATUS(queues->Ack(queue, "", (*message)->id),
                      "demo drain loop; a failed ack only redelivers and re-prints the message");
    }
  };
  drain("opportunities");
  drain("threats");

  if (opportunities == 0) {
    std::fprintf(stderr, "expected at least one opportunity!\n");
    return 1;
  }
  std::printf("financial_trading done.\n");
  return 0;
}
