// capture_fanout: the database as event source plus pub/sub consumption
// (§2.2.a.i, §2.2.c.i, §2.2.d.i). Rows inserted into `readings` in
// transactions of 16 are captured by an AFTER trigger; 4 rules publish
// rows with severity >= 6 on alerts.<region>. 64 durable subscriptions
// (a quarter on alerts.*) with `severity >= k` filters are drained with
// Broker::Fetch after every transaction, and 16 live-ring cursors are
// polled.


#include "common/random.h"
#include "common/status_macros.h"
#include "common/string_util.h"
#include "harness.h"

namespace edabench {
namespace {

using edadb::Status;

constexpr const char* kRegions[] = {"north", "south", "east", "west"};
constexpr int kNumRegions = 4;
constexpr size_t kRowsPerTxn = 16;
constexpr size_t kTxns = 256;
constexpr size_t kRows = kRowsPerTxn * kTxns;
constexpr int kDurableSubs = 64;
constexpr int kWildcardSubs = kDurableSubs / 4;
constexpr int kLiveSubs = 16;
constexpr int kPublishSeverity = 6;
constexpr size_t kPollMax = 1024;

struct Row {
  uint8_t region;
  uint8_t severity;
  int32_t value;
};

/// Durable subscription i: alerts.* for the first quarter, else one
/// region; minimum severity 6..9.
struct DurableSpec {
  int region;  // -1 = every region.
  int min_severity;
};

DurableSpec Durable(int i) {
  return DurableSpec{i < kWildcardSubs ? -1 : i % kNumRegions,
                     kPublishSeverity + (i / kNumRegions) % 4};
}

/// Live cursor j: even ones on alerts.*, odd ones on one region; the
/// upper half also filters on severity.
DurableSpec Live(int j) {
  return DurableSpec{j % 2 == 0 ? -1 : (j / 2) % kNumRegions,
                     j < kLiveSubs / 2 ? kPublishSeverity
                                       : kPublishSeverity + 1 + j % 3};
}

bool Selects(const DurableSpec& spec, const Row& row) {
  return row.severity >= kPublishSeverity &&
         (spec.region < 0 || spec.region == row.region) &&
         row.severity >= spec.min_severity;
}

std::string Pattern(const DurableSpec& spec) {
  return spec.region < 0 ? "alerts.*"
                         : std::string("alerts.") + kRegions[spec.region];
}

std::string Filter(const DurableSpec& spec) {
  return "severity >= " + std::to_string(spec.min_severity);
}

struct Setup {
  std::vector<std::string> durable_ids;
  std::vector<std::shared_ptr<edadb::LiveSubscription>> live;
};

Status Install(edadb::EventProcessor* p, Setup* setup) {
  auto schema = edadb::Schema::Make({
      {"reading_id", edadb::ValueType::kInt64, false},
      {"region", edadb::ValueType::kString, false},
      {"severity", edadb::ValueType::kInt64, false},
      {"value", edadb::ValueType::kInt64, false},
  });
  EDADB_RETURN_IF_ERROR(p->db()->CreateTable("readings", schema).status());
  EDADB_RETURN_IF_ERROR(p->AttachTriggerCapture("readings", "reading"));
  for (const char* region : kRegions) {
    EDADB_RETURN_IF_ERROR(p->rules()->AddRule(
        std::string("publish_") + region,
        "severity >= " + std::to_string(kPublishSeverity) + " AND region = '" +
            region + "'",
        std::string("topic:alerts.") + region));
  }
  for (int i = 0; i < kDurableSubs; ++i) {
    edadb::SubscriptionSpec spec;
    spec.subscriber = "durable-" + std::to_string(i);
    spec.topic_pattern = Pattern(Durable(i));
    spec.content_filter = Filter(Durable(i));
    spec.durable = true;
    EDADB_ASSIGN_OR_RETURN(std::string id, p->broker()->Subscribe(std::move(spec)));
    setup->durable_ids.push_back(std::move(id));
  }
  for (int j = 0; j < kLiveSubs; ++j) {
    edadb::LiveSubscriptionSpec spec;
    spec.subscriber = "live-" + std::to_string(j);
    spec.topic_pattern = Pattern(Live(j));
    spec.content_filter = Filter(Live(j));
    EDADB_ASSIGN_OR_RETURN(auto live, p->broker()->SubscribeLive(spec));
    setup->live.push_back(std::move(live));
  }
  return Status::OK();
}

/// Marks, in traced rounds, when the first AFTER trigger of a commit
/// fires: triggers fire in name order, so this one runs before the
/// capture trigger ("__capture_readings") on every row.
Status InstallCaptureMark(edadb::Database* db, Nanos* first_fire) {
  edadb::TriggerDef def;
  def.name = "__bench_mark";
  def.table = "readings";
  def.timing = edadb::TriggerTiming::kAfter;
  def.ops = edadb::kDmlInsert;
  def.action = [first_fire](const edadb::TriggerEvent&) {
    if (*first_fire == 0) *first_fire = NowNs();
    return Status::OK();
  };
  return db->CreateTrigger(std::move(def));
}

int64_t ReadingId(const edadb::Publication& pub) {
  for (const auto& [name, value] : pub.attributes) {
    if (name == "reading_id" && value.type() == edadb::ValueType::kInt64) {
      return value.int64_value();
    }
  }
  return -1;
}

}  // namespace

RunResult RunCaptureFanout(const Options& options) {
  RunResult result;
  Tracer tracer(options.trace);
  RoundFigures figures;
  std::vector<double> latency_us;
  PhaseTotals trace_totals;
  uint64_t fetched_traced = 0, live_delivered = 0, live_missed = 0;

  RunRounds(options, [&](int round, bool traced) {
    edadb::Random rng(options.seed * 1000003 + static_cast<uint64_t>(round));
    std::vector<Row> rows(kRows);
    for (Row& row : rows) {
      row.region = static_cast<uint8_t>(rng.Uniform(kNumRegions));
      row.severity = static_cast<uint8_t>(rng.UniformInt(0, 9));
      row.value = static_cast<int32_t>(rng.UniformInt(0, 999999));
    }
    // The oracle: which rows each subscriber must receive, in order.
    std::vector<std::vector<int64_t>> want(kDurableSubs);
    std::vector<std::vector<int64_t>> got(kDurableSubs);
    for (int i = 0; i < kDurableSubs; ++i) {
      for (size_t r = 0; r < kRows; ++r) {
        if (Selects(Durable(i), rows[r])) want[i].push_back(static_cast<int64_t>(r));
      }
      got[i].reserve(want[i].size());
    }
    uint64_t published = 0;
    for (const Row& row : rows) published += row.severity >= kPublishSeverity;
    std::vector<uint64_t> live_want(kLiveSubs, 0);
    for (int j = 0; j < kLiveSubs; ++j) {
      for (const Row& row : rows) live_want[j] += Selects(Live(j), row);
    }
    std::vector<std::pair<uint64_t, edadb::Publication>> polled;
    polled.reserve(kPollMax);
    std::vector<double> round_latency;
    round_latency.reserve(kTxns);

    Nanos first_fire = 0;  // Outlives the stack whose trigger sets it.
    Stack stack(RoundDir(options, round));
    Setup setup;
    const Nanos setup_start = NowNs();
    Status status = stack.Open();
    if (status.ok()) status = Install(stack.processor(), &setup);
    const Nanos setup_end = NowNs();
    if (status.ok() && traced) {
      status = InstallCaptureMark(stack.processor()->db(), &first_fire);
    }
    if (!status.ok()) {
      result.Count(status, kRows);
      return;
    }
    edadb::EventProcessor* p = stack.processor();
    edadb::Broker* broker = p->broker();
    auto table = p->db()->GetTable("readings");
    if (!table.ok()) {
      result.Count(table.status(), kRows);
      return;
    }
    const edadb::SchemaPtr schema = (*table)->schema();

    const RegistrySnapshot before = TakeRegistrySnapshot();
    tracer.BeginPhase(traced);
    uint64_t fetched = 0;
    const Nanos phase_start = NowNs();
    for (size_t t = 0; t < kTxns; ++t) {
      std::vector<edadb::Record> records;
      records.reserve(kRowsPerTxn);
      for (size_t r = t * kRowsPerTxn; r < (t + 1) * kRowsPerTxn; ++r) {
        auto record = edadb::RecordBuilder(schema)
                          .SetInt64("reading_id", static_cast<int64_t>(r))
                          .SetString("region", kRegions[rows[r].region])
                          .SetInt64("severity", rows[r].severity)
                          .SetInt64("value", rows[r].value)
                          .Build();
        if (!record.ok()) {
          result.Fail("record: " + record.status().ToString());
          return;
        }
        records.push_back(*std::move(record));
      }
      const auto request = static_cast<int64_t>(t);
      auto txn = p->db()->BeginTransaction();
      const Nanos txn_start = NowNs();
      Tracer::Scope insert_span(&tracer, kInsert, request);
      Status staged = Status::OK();
      for (edadb::Record& record : records) {
        if (staged.ok()) staged = txn->Insert("readings", std::move(record)).status();
      }
      insert_span.Finish();
      first_fire = 0;
      Tracer::Scope commit_span(&tracer, kCommit, request);
      const Status committed = staged.ok() ? txn->Commit() : staged;
      const Nanos commit_end = NowNs();
      commit_span.Finish();
      result.Count(committed, kRowsPerTxn);
      if (first_fire != 0) {
        // AFTER-trigger work (capture, ingest, publish) as a child span
        // of the commit: from the first trigger to the commit's return.
        tracer.AddChildSpan(kCaptureFire, request, first_fire, commit_end);
      }

      for (int i = 0; i < kDurableSubs; ++i) {
        for (;;) {
          Tracer::Scope fetch_span(&tracer, kFetch, request);
          auto pub = broker->Fetch(setup.durable_ids[i]);
          fetch_span.Finish();
          if (!pub.ok()) {
            result.Fail("fetch: " + pub.status().ToString());
            break;
          }
          if (!pub->has_value()) break;
          got[i].push_back(ReadingId(**pub));
          ++fetched;
        }
      }
      for (auto& live : setup.live) {
        polled.clear();
        Tracer::Scope poll_span(&tracer, kPoll, request);
        static_cast<void>(live->Poll(kPollMax, &polled));
        poll_span.Finish();
      }
      round_latency.push_back(static_cast<double>(NowNs() - txn_start) / 1000.0);
    }
    const Nanos phase_wall = NowNs() - phase_start;
    tracer.EndPhase();
    const Nanos call_ns = tracer.TopLevelTotal();
    const RegistrySnapshot delta = Diff(TakeRegistrySnapshot(), before);
    if (traced) {
      trace_totals.Add(tracer, phase_wall, kRows, delta);
      fetched_traced += fetched;
    }

    // Checks: each durable subscriber got exactly the rows its pattern
    // and filter select, in commit order; each live cursor accounts for
    // every publication (delivered + filtered + missed) and, when it
    // missed none, delivered exactly the rows it selects.
    for (int i = 0; i < kDurableSubs; ++i) {
      if (got[i] != want[i]) {
        result.Fail("durable subscription " + std::to_string(i) + " got " +
                    std::to_string(got[i].size()) + " rows, want " +
                    std::to_string(want[i].size()));
        break;
      }
    }
    for (int j = 0; j < kLiveSubs; ++j) {
      const edadb::LiveSubscription& live = *setup.live[static_cast<size_t>(j)];
      const uint64_t seen = live.delivered() + live.filtered() + live.missed();
      if (seen != published) {
        result.Fail("live cursor " + std::to_string(j) + " accounts for " +
                    std::to_string(seen) + " of " + std::to_string(published) +
                    " publications");
      } else if (live.missed() == 0 && live.delivered() != live_want[j]) {
        result.Fail("live cursor " + std::to_string(j) + " delivered " +
                    std::to_string(live.delivered()) + ", want " +
                    std::to_string(live_want[j]));
      }
      if (traced) {
        live_delivered += live.delivered();
        live_missed += live.missed();
      }
    }
    if (p->GetStats().ingest_failures != 0) result.Fail("ingest failures");

    if (figures.AddRound(
            round, traced, setup_end - setup_start, kRows, call_ns,
            edadb::StringPrintf(", txn p50 %.1f us, p80 %.1f us",
                                Percentile(round_latency, 0.5),
                                Percentile(round_latency, 0.8)))) {
      latency_us.insert(latency_us.end(), round_latency.begin(),
                        round_latency.end());
    }
  });

  if (!options.trace) {
    figures.Report(&result.metrics);
    result.metrics["latency_p50_us"] = Percentile(latency_us, 0.5);
    result.metrics["latency_p80_us"] = Percentile(latency_us, 0.8);
    return result;
  }
  auto& m = result.metrics;
  AddLayerMetrics(trace_totals, &m);
  m["pubsub.fetch_us_per_message"] =
      fetched_traced > 0 ? static_cast<double>(trace_totals.span_ns[kFetch]) /
                               1000.0 / static_cast<double>(fetched_traced)
                         : 0;
  m["pubsub.live_delivered_share"] =
      live_delivered + live_missed > 0
          ? static_cast<double>(live_delivered) /
                static_cast<double>(live_delivered + live_missed)
          : 0;
  m["trace.overhead_pct"] = figures.TraceOverheadPct();
  if (!options.trace_out.empty() && !tracer.WriteSpans(options.trace_out)) {
    result.Fail("could not write " + options.trace_out);
  }
  return result;
}

}  // namespace edabench
