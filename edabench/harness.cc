#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

namespace edabench {

namespace {

constexpr size_t kSpanCapacity = size_t{1} << 20;

edadb::metrics::Histogram* InstrumentHistogram(Instrument instrument) {
  static const std::array<edadb::metrics::Histogram*, kNumInstruments>
      histograms = [] {
        auto* registry = edadb::metrics::Registry::Default();
        return std::array<edadb::metrics::Histogram*, kNumInstruments>{
            registry->GetHistogram("rules.match.latency_us"),
            registry->GetHistogram("pubsub.publish.latency_us"),
            registry->GetHistogram("mq.enqueue.latency_us"),
            registry->GetHistogram("mq.dequeue.latency_us"),
            registry->GetHistogram("mq.ack.latency_us"),
            registry->GetHistogram("db.commit.latency_us"),
            registry->GetHistogram("wal.append.latency_us"),
            registry->GetHistogram("wal.sync.latency_us"),
        };
      }();
  return histograms[instrument];
}

}  // namespace

const char* SpanNameString(SpanName name) {
  static const char* const kNames[kNumSpanNames] = {
      "core.IngestBatch", "core.PumpOnce",    "harness.Deliver",
      "rules.AddRule",    "rules.RemoveRule", "db.Insert",
      "db.Commit",        "core.capture",     "pubsub.Fetch",
      "pubsub.Poll",      "harness.handler",
  };
  return kNames[name];
}

Probe Probe::Read() {
  Probe probe;
  for (size_t i = 0; i < kNumInstruments; ++i) {
    const edadb::metrics::HistogramSnapshot snap =
        InstrumentHistogram(static_cast<Instrument>(i))->Snapshot();
    probe.sum_us[i] = snap.sum;
  }
  return probe;
}

void Probe::Add(const Probe& after, const Probe& before) {
  for (size_t i = 0; i < kNumInstruments; ++i) {
    sum_us[i] += after.sum_us[i] - before.sum_us[i];
  }
}

// ---------------------------------------------------------------------
// Tracer

Tracer::Tracer(bool enabled) : enabled_(enabled) {
  open_.reserve(16);
  if (enabled_) spans_.reserve(kSpanCapacity);
}

void Tracer::BeginPhase(bool traced) {
  active_ = true;
  traced_ = enabled_ && traced;
  depth_ = 0;
  open_.clear();
  total_ns_.fill(0);
  calls_.fill(0);
  nested_.fill(Probe{});
}

Nanos Tracer::TopLevelTotal() const {
  Nanos total = 0;
  for (SpanName name : kTopLevelSpans) total += total_ns_[name];
  return total;
}

Tracer::Scope::Scope(Tracer* tracer, SpanName name, int64_t request)
    : tracer_(tracer), name_(name) {
  top_ = tracer_->depth_++ == 0;
  if (tracer_->traced()) {
    // The probe is read outside the timed interval so that the call
    // time (and the throughput built on it) excludes it.
    if (top_) before_ = Probe::Read();
    if (tracer_->spans_.size() < kSpanCapacity) {
      Span span;
      span.name = name;
      span.request = request;
      span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
      span_ = static_cast<int32_t>(tracer_->spans_.size());
      tracer_->spans_.push_back(span);
    } else {
      ++tracer_->dropped_;
    }
    tracer_->open_.push_back(span_);
  }
  start_ = NowNs();
  if (span_ >= 0) tracer_->spans_[static_cast<size_t>(span_)].start = start_;
}

Nanos Tracer::Scope::Finish() {
  if (done_) return 0;
  done_ = true;
  const Nanos end = NowNs();
  const Nanos duration = end - start_;
  --tracer_->depth_;
  if (tracer_->active_) {
    tracer_->total_ns_[name_] += duration;
    tracer_->calls_[name_] += 1;
  }
  if (tracer_->traced()) {
    if (span_ >= 0) tracer_->spans_[static_cast<size_t>(span_)].end = end;
    tracer_->open_.pop_back();
    if (top_) {
      tracer_->last_top_ = span_;
      tracer_->nested_[name_].Add(Probe::Read(), before_);
    }
  }
  return duration;
}

void Tracer::AddChildSpan(SpanName name, int64_t request, Nanos start,
                          Nanos end) {
  if (!active_) return;
  total_ns_[name] += end - start;
  calls_[name] += 1;
  if (!traced()) return;
  if (spans_.size() >= kSpanCapacity) {
    ++dropped_;
    return;
  }
  Span span;
  span.name = name;
  span.request = request;
  span.parent = last_top_;
  span.start = start;
  span.end = end;
  spans_.push_back(span);
}

bool Tracer::WriteSpans(const std::string& path) const {
  if (dropped_ > 0) {
    std::fprintf(stderr, "edabench: span buffer full, %llu spans dropped\n",
                 static_cast<unsigned long long>(dropped_));
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "id\tname\tparent\trequest\tstart_ns\tend_ns\tself_ns\n");
  // Self time: duration minus the children's durations.
  std::vector<Nanos> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end - span.start;
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out, "%zu\t%s\t%d\t%lld\t%lld\t%lld\t%lld\n", i,
                 SpanNameString(span.name), span.parent,
                 static_cast<long long>(span.request),
                 static_cast<long long>(span.start),
                 static_cast<long long>(span.end),
                 static_cast<long long>(span.end - span.start - child_ns[i]));
  }
  return std::fclose(out) == 0;
}

// ---------------------------------------------------------------------
// Registry snapshots

RegistrySnapshot TakeRegistrySnapshot() {
  RegistrySnapshot snap;
  for (const edadb::metrics::MetricSnapshot& m :
       edadb::metrics::Registry::Default()->Snapshot()) {
    snap[m.name] = RegistryValue{m.value, m.sum};
  }
  return snap;
}

RegistrySnapshot Diff(const RegistrySnapshot& after,
                      const RegistrySnapshot& before) {
  RegistrySnapshot delta;
  for (const auto& [name, value] : after) {
    RegistryValue d = value;
    if (auto it = before.find(name); it != before.end()) {
      d.value -= it->second.value;
      d.sum -= it->second.sum;
    }
    delta[name] = d;
  }
  return delta;
}

void Accumulate(const RegistrySnapshot& delta, RegistrySnapshot* total) {
  for (const auto& [name, value] : delta) {
    RegistryValue& t = (*total)[name];
    t.value += value.value;
    t.sum += value.sum;
  }
}

int64_t RegistryCount(const RegistrySnapshot& snap, const std::string& name) {
  auto it = snap.find(name);
  return it == snap.end() ? 0 : it->second.value;
}

uint64_t RegistrySum(const RegistrySnapshot& snap, const std::string& name) {
  auto it = snap.find(name);
  return it == snap.end() ? 0 : it->second.sum;
}

// ---------------------------------------------------------------------
// Statistics

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index =
      rank < 1 ? 0 : std::min(samples.size(), static_cast<size_t>(rank)) - 1;
  return samples[index];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

// ---------------------------------------------------------------------
// Per-layer model

void PhaseTotals::Add(const Tracer& tracer, Nanos wall,
                      uint64_t phase_units, const RegistrySnapshot& delta) {
  wall_ns += wall;
  units += phase_units;
  for (size_t i = 0; i < kNumSpanNames; ++i) {
    const auto name = static_cast<SpanName>(i);
    span_ns[i] += tracer.total(name);
    span_calls[i] += tracer.calls(name);
    const Probe& p = tracer.nested(name);
    for (size_t k = 0; k < kNumInstruments; ++k) {
      nested[i].sum_us[k] += p.sum_us[k];
    }
  }
  Accumulate(delta, &registry);
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},
      {"throughput_eps", "1/s"},
      {"latency_p50_us", "us"},
      {"latency_p80_us", "us"},
      {"peak_rss_mb", "MB"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"core.ingest_us_per_event", "us"},
      {"core.self_us_per_event", "us"},
      {"core.capture_us_per_row", "us"},
      {"core.wall_share", "share"},
      {"rules.match_us_per_event", "us"},
      {"rules.matches_per_event", "count"},
      {"rules.remove_us_p50", "us"},
      {"rules.add_us_p50", "us"},
      {"rules.wall_share", "share"},
      {"mq.propagate_us_per_message", "us"},
      {"mq.enqueue_us", "us"},
      {"mq.dequeue_us", "us"},
      {"mq.ack_us", "us"},
      {"mq.empty_dequeue_share", "share"},
      {"mq.backlog_max", "count"},
      {"mq.wall_share", "share"},
      {"db.commits_per_event", "count"},
      {"db.commit_us", "us"},
      {"db.wall_share", "share"},
      {"storage.wal_records_per_event", "count"},
      {"storage.wal_bytes_per_event", "B"},
      {"storage.wal_syncs_per_event", "count"},
      {"storage.wall_share", "share"},
      {"pubsub.publish_us", "us"},
      {"pubsub.deliveries_per_publish", "count"},
      {"pubsub.fetch_us_per_message", "us"},
      {"pubsub.live_poll_us", "us"},
      {"pubsub.live_delivered_share", "share"},
      {"pubsub.wall_share", "share"},
      {"harness.late_us_p90", "us"},
      {"harness.late_us_max", "us"},
      {"harness.batch_mean", "count"},
      {"harness.wall_share", "share"},
      {"trace.overhead_pct", "%"},
  };
  return kDefs;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double MeanUs(const RegistrySnapshot& reg, const std::string& histogram) {
  return Ratio(static_cast<double>(RegistrySum(reg, histogram)),
               static_cast<double>(RegistryCount(reg, histogram)));
}

}  // namespace

void AddLayerMetrics(const PhaseTotals& phase,
                     std::map<std::string, double>* out) {
  const RegistrySnapshot& reg = phase.registry;
  const double units = static_cast<double>(phase.units);
  auto span_us = [&](SpanName name) {
    return static_cast<double>(phase.span_ns[name]) / 1000.0;
  };
  // Registry µs nested in top-level spans of `name`; all_us sums them
  // over every name.
  auto nested_us = [&](SpanName name, Instrument instrument) {
    return static_cast<double>(phase.nested[name].sum_us[instrument]);
  };
  auto all_us = [&](Instrument instrument) {
    double total = 0;
    for (size_t i = 0; i < kNumSpanNames; ++i) {
      total += nested_us(static_cast<SpanName>(i), instrument);
    }
    return total;
  };

  // Self time per layer, attributed to the innermost layer whose call
  // covers it (README.md, "Per-layer model"). The nesting the code
  // has: db commits (and the WAL under them) run inside mq calls, rule
  // updates and the benchmark's own capture transactions; AFTER-trigger
  // capture (core) runs inside those transactions' commits; publishes
  // enqueue onto subscription queues.
  const double wall = static_cast<double>(phase.wall_ns) / 1000.0;
  const double storage = all_us(kWalAppend) + all_us(kWalSync);
  const double fire = span_us(kCaptureFire);
  const double commit = all_us(kDbCommit);
  const double db =
      std::max(0.0, commit - storage - fire) + span_us(kInsert);
  const double rule_update_commits =
      nested_us(kAddRule, kDbCommit) + nested_us(kRemoveRule, kDbCommit);
  const double commits_in_mq =
      std::max(0.0, commit - rule_update_commits - span_us(kCommit));
  const double mq_calls =
      all_us(kEnqueue) + all_us(kDequeue) + all_us(kAck);
  double enqueue_in_publish = 0;
  for (size_t i = 0; i < kNumSpanNames; ++i) {
    const auto name = static_cast<SpanName>(i);
    if (nested_us(name, kPublish) > 0) {
      enqueue_in_publish +=
          std::min(nested_us(name, kEnqueue), nested_us(name, kPublish));
    }
  }
  const double mq = std::max(0.0, mq_calls - commits_in_mq);
  const double pubsub =
      std::max(0.0, all_us(kPublish) - enqueue_in_publish) +
      std::max(0.0, span_us(kFetch) - nested_us(kFetch, kDequeue) -
                        nested_us(kFetch, kAck)) +
      span_us(kPoll);
  const double rules =
      all_us(kMatch) +
      std::max(0.0, span_us(kAddRule) + span_us(kRemoveRule) -
                        rule_update_commits);
  double top_level = 0;
  for (SpanName name : kTopLevelSpans) top_level += span_us(name);
  const double harness =
      std::max(0.0, wall - top_level) + span_us(kDeliver) + span_us(kHandler);
  const double core =
      std::max(0.0, wall - storage - db - mq - pubsub - rules - harness);

  auto& m = *out;
  m["core.wall_share"] = Ratio(core, wall);
  m["rules.wall_share"] = Ratio(rules, wall);
  m["mq.wall_share"] = Ratio(mq, wall);
  m["db.wall_share"] = Ratio(db, wall);
  m["storage.wall_share"] = Ratio(storage, wall);
  m["pubsub.wall_share"] = Ratio(pubsub, wall);
  m["harness.wall_share"] = Ratio(harness, wall);

  m["core.ingest_us_per_event"] =
      Ratio(span_us(kIngestBatch) + fire, units);
  m["core.self_us_per_event"] = Ratio(core, units);
  m["core.capture_us_per_row"] = Ratio(span_us(kCommit), units);

  const double evaluated =
      static_cast<double>(RegistryCount(reg, "rules.evaluated"));
  m["rules.match_us_per_event"] =
      Ratio(static_cast<double>(RegistrySum(reg, "rules.match.latency_us")),
            evaluated);
  m["rules.matches_per_event"] =
      Ratio(static_cast<double>(RegistryCount(reg, "rules.matched")), evaluated);

  m["mq.enqueue_us"] = MeanUs(reg, "mq.enqueue.latency_us");
  m["mq.dequeue_us"] = MeanUs(reg, "mq.dequeue.latency_us");
  m["mq.ack_us"] = MeanUs(reg, "mq.ack.latency_us");
  const double dequeue_calls =
      static_cast<double>(RegistryCount(reg, "mq.dequeue.latency_us"));
  m["mq.empty_dequeue_share"] = Ratio(
      dequeue_calls - static_cast<double>(RegistryCount(reg, "mq.dequeued")),
      dequeue_calls);

  m["db.commits_per_event"] =
      Ratio(static_cast<double>(RegistryCount(reg, "db.commits")), units);
  m["db.commit_us"] = MeanUs(reg, "db.commit.latency_us");

  m["storage.wal_records_per_event"] =
      Ratio(static_cast<double>(RegistryCount(reg, "wal.append.records")), units);
  m["storage.wal_bytes_per_event"] =
      Ratio(static_cast<double>(RegistryCount(reg, "wal.append.bytes")), units);
  m["storage.wal_syncs_per_event"] =
      Ratio(static_cast<double>(RegistryCount(reg, "wal.sync.latency_us")), units);

  m["pubsub.publish_us"] = MeanUs(reg, "pubsub.publish.latency_us");
  m["pubsub.deliveries_per_publish"] =
      Ratio(static_cast<double>(RegistryCount(reg, "pubsub.deliveries")),
            static_cast<double>(RegistryCount(reg, "pubsub.publishes")));
  m["pubsub.live_poll_us"] =
      Ratio(span_us(kPoll), static_cast<double>(phase.span_calls[kPoll]));
}

// ---------------------------------------------------------------------
// Stack, results, rounds

Stack::~Stack() {
  processor_.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

edadb::Status Stack::Open() {
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
  edadb::EventProcessorOptions options;
  options.data_dir = dir_;
  options.wal_sync_policy = edadb::WalSyncPolicy::kNever;
  options.shards = 2;
  auto opened = edadb::EventProcessor::Open(std::move(options));
  if (!opened.ok()) return opened.status();
  processor_ = *std::move(opened);
  return edadb::Status::OK();
}

void RunResult::Fail(const std::string& what) {
  correct = false;
  if (errors.size() < 8) errors.push_back(what);
}

void RunResult::Count(const edadb::Status& status, uint64_t units) {
  attempted += units;
  if (!status.ok()) {
    failed += units;
    if (errors.size() < 8) errors.push_back(status.ToString());
  }
}

namespace {

double PerSecond(uint64_t units, Nanos ns) {
  return ns > 0 ? static_cast<double>(units) / (static_cast<double>(ns) / 1e9)
                : 0;
}

}  // namespace

bool RoundFigures::AddRound(int round, bool traced, Nanos setup_ns,
                            uint64_t round_units, Nanos round_call_ns,
                            const std::string& extra) {
  const double setup = static_cast<double>(setup_ns) / 1e9;
  std::fprintf(stderr, "round %d%s: setup %.6f s, throughput %.1f/s%s\n",
               round, traced ? " (traced)" : "", setup,
               PerSecond(round_units, round_call_ns), extra.c_str());
  if (round == 0) return false;
  if (setup_s.empty()) peak_rss_mb = PeakRssMb();
  setup_s.push_back(setup);
  units[traced] += round_units;
  call_ns[traced] += round_call_ns;
  return true;
}

void RoundFigures::Report(std::map<std::string, double>* out) const {
  (*out)["setup_s"] = Median(setup_s);
  (*out)["throughput_eps"] =
      PerSecond(units[0] + units[1], call_ns[0] + call_ns[1]);
  (*out)["peak_rss_mb"] = peak_rss_mb;
}

double RoundFigures::TraceOverheadPct() const {
  const double base = PerSecond(units[0], call_ns[0]);
  return base > 0 ? (base - PerSecond(units[1], call_ns[1])) / base * 100 : 0;
}

void RunRounds(const Options& options,
               const std::function<void(int round, bool traced)>& round) {
  const Nanos start = NowNs();
  const Nanos budget = static_cast<Nanos>(options.seconds * 1e9);
  for (int i = 0;; ++i) {
    if (i >= kMinRounds && NowNs() - start >= budget) break;
    round(i, options.trace && i % 2 == 1);
  }
}

double PeakRssMb() {
  // VmHWM is this process image's own high-water mark. ru_maxrss would
  // also carry the peak of the process that exec'd this one.
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long long kb = -1;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) break;
    }
    std::fclose(status);
    if (kb >= 0) return static_cast<double>(kb) / 1024.0;
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string RoundDir(const Options& options, int round) {
  return options.data_root + "/round-" + std::to_string(round);
}

}  // namespace edabench
