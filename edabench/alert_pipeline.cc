// alert_pipeline: the paper's staging and forwarding path (§2.2.b,
// §2.2.d.ii). Readings are matched against 4 critical rules and 256
// sensor-threshold rules; critical ones are staged on alerts_<region>,
// forwarded to outbound and delivered to a gateway the benchmark owns.
// Phase 1 is a closed loop (throughput); phase 2 an open loop at a fixed
// rate (latency from each critical event's due time to its delivery).

#include <algorithm>
#include <charconv>

#include "common/random.h"
#include "common/status_macros.h"
#include "common/string_util.h"
#include "harness.h"
#include "mq/propagation.h"

namespace edabench {
namespace {

using edadb::Event;
using edadb::Status;
using edadb::Value;

constexpr const char* kRegions[] = {"north", "south", "east", "west"};
constexpr int kNumRegions = 4;
constexpr int kSensors = 256;
constexpr size_t kBatch = 64;
constexpr size_t kClosedEvents = 16384;
constexpr size_t kOpenEvents = 10000;
// At 10,000 events/s about 10% of critical events arrive while the
// benchmark thread is still pumping an earlier alert, so p90 sits on
// that queueing knee and swung 55–107 µs across identical 30-second
// runs on a 4-vCPU host; higher rates spread it further. p80 is the
// reported tail.
constexpr double kOpenRatePerSecond = 10000;
constexpr int kCriticalPercent = 20;
constexpr int64_t kValueRange = 1000;
constexpr int64_t kThresholdFloor = 900;  // About 10% of readings pass.

/// Compact input record; materialized into an Event just before use.
struct Spec {
  uint16_t sensor;
  uint8_t region;
  uint8_t severity;
  int16_t value;
};

bool IsCritical(const Spec& spec) { return spec.severity >= 8; }

Event MakeEvent(const Spec& spec, uint64_t id) {
  Event event;
  event.id = id;
  event.type = "reading";
  event.source = "sensor";
  event.attributes.reserve(4);
  event.Set("sensor", Value::Int64(spec.sensor));
  event.Set("region", Value::String(kRegions[spec.region]));
  event.Set("severity", Value::Int64(spec.severity));
  event.Set("value", Value::Int64(spec.value));
  return event;
}

/// The external endpoint at the end of the pipeline. Records, per event
/// id, how often and when it was delivered; ids outside the generated
/// range are counted as strays.
class Gateway : public edadb::ExternalService {
 public:
  Gateway(Tracer* tracer, size_t max_id)
      : tracer_(tracer), deliveries_(max_id + 1, 0), at_ns_(max_id + 1, 0) {}

  const std::string& name() const override { return name_; }

  Status Deliver(const edadb::Message& message) override {
    Tracer::Scope span(tracer_, kDeliver, 0);
    uint64_t id = 0;
    const std::string& cid = message.correlation_id;
    const auto parsed = std::from_chars(cid.data(), cid.data() + cid.size(), id);
    if (parsed.ec != std::errc() || id == 0 || id >= deliveries_.size()) {
      ++strays_;
      return Status::OK();
    }
    ++deliveries_[id];
    ++delivered_;
    at_ns_[id] = NowNs();
    return Status::OK();
  }

  uint32_t deliveries(uint64_t id) const { return deliveries_[id]; }
  Nanos delivered_at(uint64_t id) const { return at_ns_[id]; }
  uint64_t strays() const { return strays_; }
  uint64_t delivered() const { return delivered_; }

 private:
  const std::string name_ = "gateway";
  Tracer* const tracer_;
  std::vector<uint32_t> deliveries_;
  std::vector<Nanos> at_ns_;
  uint64_t strays_ = 0;
  uint64_t delivered_ = 0;
};

std::vector<Spec> MakeSpecs(edadb::Random* rng, size_t n) {
  std::vector<Spec> specs(n);
  for (Spec& spec : specs) {
    spec.sensor = static_cast<uint16_t>(rng->Uniform(kSensors));
    spec.region = static_cast<uint8_t>(rng->Uniform(kNumRegions));
    const bool critical =
        rng->Uniform(100) < static_cast<uint64_t>(kCriticalPercent);
    spec.severity = static_cast<uint8_t>(critical ? rng->UniformInt(8, 10)
                                                  : rng->UniformInt(1, 7));
    spec.value = static_cast<int16_t>(rng->UniformInt(0, kValueRange - 1));
  }
  return specs;
}

Status Install(edadb::EventProcessor* p, Gateway* gateway,
               const std::vector<int64_t>& thresholds) {
  for (const char* region : kRegions) {
    const std::string queue = std::string("alerts_") + region;
    EDADB_RETURN_IF_ERROR(p->queues()->CreateQueue(queue));
    EDADB_RETURN_IF_ERROR(p->rules()->AddRule(
        std::string("critical_") + region,
        std::string("severity >= 8 AND region = '") + region + "'",
        "queue:" + queue));
  }
  EDADB_RETURN_IF_ERROR(p->queues()->CreateQueue("outbound"));
  for (int s = 0; s < kSensors; ++s) {
    EDADB_RETURN_IF_ERROR(p->rules()->AddRule(
        "threshold_" + std::to_string(s),
        "sensor = " + std::to_string(s) + " AND value > " +
            std::to_string(thresholds[static_cast<size_t>(s)]),
        "threshold"));
  }
  // Propagator rules run in name order: every hop1 drains into outbound
  // before hop2 drains it, so one PumpOnce carries an alert end to end.
  for (const char* region : kRegions) {
    edadb::PropagationRule hop;
    hop.name = std::string("hop1_") + region;
    hop.source_queue = std::string("alerts_") + region;
    hop.destination_queue = "outbound";
    EDADB_RETURN_IF_ERROR(p->propagator()->AddRule(std::move(hop)));
  }
  edadb::PropagationRule out;
  out.name = "hop2_gateway";
  out.source_queue = "outbound";
  out.external = gateway;
  return p->propagator()->AddRule(std::move(out));
}

/// Pumps until a pump moves nothing (bounded, so a stuck queue fails
/// the depth check instead of hanging the run).
void Drain(edadb::EventProcessor* p, RunResult* result) {
  for (int i = 0; i < 64; ++i) {
    auto moved = p->PumpOnce();
    if (!moved.ok()) {
      result->Fail("drain: " + moved.status().ToString());
      return;
    }
    if (*moved == 0) return;
  }
}

size_t QueueDepth(edadb::EventProcessor* p) {
  size_t depth = 0;
  for (const char* region : kRegions) {
    auto d = p->queues()->Depth(std::string("alerts_") + region, "");
    if (d.ok()) depth += *d;
  }
  auto d = p->queues()->Depth("outbound", "");
  if (d.ok()) depth += *d;
  return depth;
}

}  // namespace

RunResult RunAlertPipeline(const Options& options) {
  RunResult result;
  Tracer tracer(options.trace);
  RoundFigures figures;
  std::vector<double> latency_us, late_us;
  PhaseTotals closed_trace;
  uint64_t forwarded_traced = 0, ticks_traced = 0, ticked_events = 0;
  uint64_t backlog_max = 0;

  RunRounds(options, [&](int round, bool traced) {
    // Inputs come from (seed, round) and are generated before timing.
    edadb::Random rng(options.seed * 1000003 + static_cast<uint64_t>(round));
    std::vector<int64_t> thresholds(kSensors);
    for (int64_t& t : thresholds) {
      t = rng.UniformInt(kThresholdFloor, kValueRange - 1);
    }
    const std::vector<Spec> closed = MakeSpecs(&rng, kClosedEvents);
    const std::vector<Spec> open = MakeSpecs(&rng, kOpenEvents);
    std::vector<Nanos> due(kOpenEvents);
    std::vector<Nanos> sent(kOpenEvents);
    std::vector<Event> batch;

    Gateway gateway(&tracer, kClosedEvents + kOpenEvents);
    Stack stack(RoundDir(options, round));
    const Nanos setup_start = NowNs();
    Status status = stack.Open();
    if (status.ok()) status = Install(stack.processor(), &gateway, thresholds);
    const Nanos setup_end = NowNs();
    if (!status.ok()) {
      result.Count(status, kClosedEvents + kOpenEvents);
      return;
    }
    edadb::EventProcessor* p = stack.processor();

    // Phase 1: closed loop, IngestBatch(64) then one pump per batch.
    const RegistrySnapshot before = TakeRegistrySnapshot();
    tracer.BeginPhase(traced);
    uint64_t forwarded = 0;
    const Nanos phase_start = NowNs();
    for (size_t b = 0; b < kClosedEvents; b += kBatch) {
      const size_t n = std::min(kBatch, kClosedEvents - b);
      batch.clear();
      batch.reserve(n);
      for (size_t i = b; i < b + n; ++i) {
        batch.push_back(MakeEvent(closed[i], i + 1));
      }
      const auto request = static_cast<int64_t>(b / kBatch);
      Tracer::Scope ingest_span(&tracer, kIngestBatch, request);
      const Status ingested = p->IngestBatch(std::move(batch));
      ingest_span.Finish();
      result.Count(ingested, n);
      Tracer::Scope pump_span(&tracer, kPumpOnce, request);
      const edadb::Result<size_t> moved = p->PumpOnce();
      pump_span.Finish();
      if (moved.ok()) {
        forwarded += *moved;
      } else {
        result.Fail("pump: " + moved.status().ToString());
      }
    }
    const Nanos phase_wall = NowNs() - phase_start;
    tracer.EndPhase();
    const Nanos closed_call_ns = tracer.TopLevelTotal();
    if (traced) {
      closed_trace.Add(tracer, phase_wall, kClosedEvents,
                       Diff(TakeRegistrySnapshot(), before));
      forwarded_traced += forwarded;
    }

    // Phase 2: open loop. Event i is due at start + i / rate; each tick
    // ingests everything due by now and pumps once.
    tracer.BeginPhase(traced);
    const Nanos open_start = NowNs() + 1000000;
    const double interval_ns = 1e9 / kOpenRatePerSecond;
    for (size_t i = 0; i < kOpenEvents; ++i) {
      due[i] = open_start + static_cast<Nanos>(static_cast<double>(i) * interval_ns);
    }
    size_t next = 0;
    uint64_t critical_sent = static_cast<uint64_t>(
        std::count_if(closed.begin(), closed.end(), IsCritical));
    while (next < kOpenEvents) {
      const Nanos now = NowNs();
      if (due[next] > now) {
        CpuRelax();
        continue;
      }
      size_t end = next;
      while (end < kOpenEvents && due[end] <= now) ++end;
      batch.clear();
      batch.reserve(end - next);
      for (size_t i = next; i < end; ++i) {
        sent[i] = now;
        critical_sent += IsCritical(open[i]);
        batch.push_back(MakeEvent(open[i], kClosedEvents + i + 1));
      }
      const auto request = static_cast<int64_t>(next);
      Tracer::Scope ingest_span(&tracer, kIngestBatch, request);
      const Status ingested = p->IngestBatch(std::move(batch));
      ingest_span.Finish();
      result.Count(ingested, end - next);
      // Alerts staged in alerts_* or outbound and not yet delivered: what
      // this tick's pump faces.
      if (traced) {
        backlog_max = std::max(backlog_max, critical_sent - gateway.delivered());
      }
      Tracer::Scope pump_span(&tracer, kPumpOnce, request);
      const edadb::Result<size_t> moved = p->PumpOnce();
      pump_span.Finish();
      if (!moved.ok()) result.Fail("pump: " + moved.status().ToString());
      if (traced) {
        ++ticks_traced;
        ticked_events += end - next;
      }
      next = end;
    }
    tracer.EndPhase();
    Drain(p, &result);

    // Checks: every critical event delivered exactly once, nothing else
    // delivered, every queue empty.
    auto check = [&](const std::vector<Spec>& specs, uint64_t first_id) {
      for (size_t i = 0; i < specs.size(); ++i) {
        const uint32_t want = IsCritical(specs[i]) ? 1 : 0;
        const uint32_t got = gateway.deliveries(first_id + i);
        if (got != want) {
          result.Fail("event " + std::to_string(first_id + i) +
                      " delivered " + std::to_string(got) + " times, want " +
                      std::to_string(want));
          return;
        }
      }
    };
    check(closed, 1);
    check(open, kClosedEvents + 1);
    if (gateway.strays() != 0) result.Fail("gateway received stray messages");
    if (QueueDepth(p) != 0) result.Fail("queues not empty after drain");
    if (p->GetStats().ingest_failures != 0) result.Fail("ingest failures");

    std::vector<double> round_latency_us;
    for (size_t i = 0; i < kOpenEvents; ++i) {
      if (IsCritical(open[i])) {
        const uint64_t id = kClosedEvents + i + 1;
        round_latency_us.push_back(
            static_cast<double>(gateway.delivered_at(id) - due[i]) / 1000.0);
      }
      if (traced) late_us.push_back(static_cast<double>(sent[i] - due[i]) / 1000.0);
    }
    if (figures.AddRound(
            round, traced, setup_end - setup_start, kClosedEvents,
            closed_call_ns,
            edadb::StringPrintf(", alert p50 %.1f us, p80 %.1f us",
                                Percentile(round_latency_us, 0.5),
                                Percentile(round_latency_us, 0.8)))) {
      latency_us.insert(latency_us.end(), round_latency_us.begin(),
                        round_latency_us.end());
    }
  });

  if (!options.trace) {
    figures.Report(&result.metrics);
    result.metrics["latency_p50_us"] = Percentile(latency_us, 0.5);
    result.metrics["latency_p80_us"] = Percentile(latency_us, 0.8);
    return result;
  }
  auto& m = result.metrics;
  AddLayerMetrics(closed_trace, &m);
  m["mq.propagate_us_per_message"] =
      forwarded_traced > 0
          ? static_cast<double>(closed_trace.span_ns[kPumpOnce]) / 1000.0 /
                static_cast<double>(forwarded_traced)
          : 0;
  m["mq.backlog_max"] = static_cast<double>(backlog_max);
  m["harness.late_us_p90"] = Percentile(late_us, 0.9);
  m["harness.late_us_max"] = Percentile(late_us, 1.0);
  m["harness.batch_mean"] =
      ticks_traced > 0
          ? static_cast<double>(ticked_events) / static_cast<double>(ticks_traced)
          : 0;
  m["trace.overhead_pct"] = figures.TraceOverheadPct();
  if (!options.trace_out.empty() && !tracer.WriteSpans(options.trace_out)) {
    result.Fail("could not write " + options.trace_out);
  }
  return result;
}

}  // namespace edabench
