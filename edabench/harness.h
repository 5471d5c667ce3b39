#ifndef EDABENCH_HARNESS_H_
#define EDABENCH_HARNESS_H_

// Shared pieces of edabench: options, call timing and span tracing,
// registry probes, statistics, the per-layer model and the result
// line. Every workload runs on one thread, in rounds of a fixed amount
// of work, each on a fresh data directory.

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/processor.h"

namespace edabench {

using Nanos = int64_t;

inline Nanos NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Busy-wait hint for the open-loop generator's spin.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Parent of the per-round data directories; inside the checkout.
  std::string data_root;
  /// Where the traced run writes its spans at exit.
  std::string trace_out;
};

// ---------------------------------------------------------------------
// Call timing and spans.

/// Every call the benchmark makes into a layer of src/.
enum SpanName : uint8_t {
  kIngestBatch,  // core: EventProcessor::IngestBatch
  kPumpOnce,     // core: EventProcessor::PumpOnce
  kDeliver,      // harness: the gateway's Deliver, nested in kPumpOnce
  kAddRule,      // rules: RulesEngine::AddRule
  kRemoveRule,   // rules: RulesEngine::RemoveRule
  kInsert,       // db: Transaction::Insert of one transaction's rows
  kCommit,       // db: Transaction::Commit (trigger capture runs inside)
  kCaptureFire,  // core: AFTER-trigger work inside kCommit
  kFetch,        // pubsub: Broker::Fetch
  kPoll,         // pubsub: LiveSubscription::Poll
  kHandler,      // harness: rule action handler, nested in kIngestBatch
  kNumSpanNames,
};

/// The calls the benchmark makes directly; the others nest inside them.
inline constexpr SpanName kTopLevelSpans[] = {
    kIngestBatch, kPumpOnce, kAddRule, kRemoveRule,
    kInsert,      kCommit,   kFetch,   kPoll,
};

const char* SpanNameString(SpanName name);

/// Registry histograms whose sums (whole µs per sample) the per-layer
/// model reads. Only instruments src/ owns: looking up a collector-fed
/// name would create an unrelated instrument.
enum Instrument : uint8_t {
  kMatch,      // rules.match.latency_us (matching only, not handlers)
  kPublish,    // pubsub.publish.latency_us
  kEnqueue,    // mq.enqueue.latency_us (Enqueue/EnqueueBatch)
  kDequeue,    // mq.dequeue.latency_us
  kAck,        // mq.ack.latency_us
  kDbCommit,   // db.commit.latency_us (includes AFTER triggers)
  kWalAppend,  // wal.append.latency_us
  kWalSync,    // wal.sync.latency_us
  kNumInstruments,
};

struct Probe {
  std::array<uint64_t, kNumInstruments> sum_us{};

  static Probe Read();
  void Add(const Probe& after, const Probe& before);
};

struct Span {
  Nanos start = 0;
  Nanos end = 0;
  int64_t request = 0;
  int32_t parent = -1;
  SpanName name = kIngestBatch;
};

/// Times the benchmark's calls into edadb. Always accumulates per-name call
/// time (the closed-loop throughput denominators); in a traced round it
/// also keeps every span in memory and, around top-level spans, the
/// registry deltas of the instruments nested inside them.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// Resets the per-phase totals. `traced` selects span recording for
  /// the phase (only ever true when the run is a traced run).
  void BeginPhase(bool traced);
  void EndPhase() { active_ = false; }
  bool traced() const { return active_ && traced_; }

  /// RAII span. Finish() (or the destructor) closes it and returns the
  /// call's duration.
  class Scope {
   public:
    Scope(Tracer* tracer, SpanName name, int64_t request);
    ~Scope() { Finish(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Nanos Finish();

   private:
    Tracer* const tracer_;
    const SpanName name_;
    int32_t span_ = -1;
    bool top_ = false;
    bool done_ = false;
    Probe before_;
    Nanos start_ = 0;
  };

  /// Records a span measured by other means (a trigger's timestamp) as
  /// a child of the last top-level span, which has already closed.
  void AddChildSpan(SpanName name, int64_t request, Nanos start, Nanos end);

  Nanos total(SpanName name) const { return total_ns_[name]; }
  uint64_t calls(SpanName name) const { return calls_[name]; }
  const Probe& nested(SpanName name) const { return nested_[name]; }
  /// Sum of top-level call time: the benchmark's time inside edadb.
  Nanos TopLevelTotal() const;

  /// Writes every recorded span as TSV; returns false on I/O failure.
  bool WriteSpans(const std::string& path) const;

 private:
  const bool enabled_;
  bool active_ = false;
  bool traced_ = false;
  int depth_ = 0;
  std::vector<int32_t> open_;  // Span indices of open traced scopes.
  int32_t last_top_ = -1;      // Span index of the last top-level span.
  std::array<Nanos, kNumSpanNames> total_ns_{};
  std::array<uint64_t, kNumSpanNames> calls_{};
  std::array<Probe, kNumSpanNames> nested_{};
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

// ---------------------------------------------------------------------
// Registry snapshots (both runs take one around each timed phase).

struct RegistryValue {
  int64_t value = 0;  // Counter/gauge value; histogram sample count.
  uint64_t sum = 0;   // Histogram sum.
};
using RegistrySnapshot = std::map<std::string, RegistryValue>;

RegistrySnapshot TakeRegistrySnapshot();
/// after - before, per name (names missing before count from zero).
RegistrySnapshot Diff(const RegistrySnapshot& after,
                      const RegistrySnapshot& before);
/// Adds `delta` into `total`.
void Accumulate(const RegistrySnapshot& delta, RegistrySnapshot* total);
int64_t RegistryCount(const RegistrySnapshot& snap, const std::string& name);
uint64_t RegistrySum(const RegistrySnapshot& snap, const std::string& name);

// ---------------------------------------------------------------------
// Statistics over raw samples.

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

// ---------------------------------------------------------------------
// The per-layer model of one traced phase (summed over traced rounds).

struct PhaseTotals {
  Nanos wall_ns = 0;
  uint64_t units = 0;  // Events (or captured rows) the phase completed.
  std::array<Nanos, kNumSpanNames> span_ns{};
  std::array<uint64_t, kNumSpanNames> span_calls{};
  std::array<Probe, kNumSpanNames> nested{};
  RegistrySnapshot registry;

  /// Folds the tracer's totals and the phase's registry delta in.
  void Add(const Tracer& tracer, Nanos wall, uint64_t phase_units,
           const RegistrySnapshot& delta);
};

/// Every per-layer metric name, in report order, with its unit.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& PerLayerMetrics();
const std::vector<MetricDef>& EndToEndMetrics();

/// Fills the registry- and span-derived per-layer metrics (self-time
/// wall shares included) into `out`. Workload-specific metrics
/// (percentiles of rule updates, open-loop lateness, live-reader
/// shares) are set by the workload itself.
void AddLayerMetrics(const PhaseTotals& phase,
                     std::map<std::string, double>* out);

// ---------------------------------------------------------------------
// Processor set-up and the round loop.

/// One edadb stack on a fresh data directory, removed on destruction.
class Stack {
 public:
  explicit Stack(std::string dir) : dir_(std::move(dir)) {}
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Opens the processor with the settings every workload shares: WAL
  /// sync off (see README.md) and two delivery-core shards.
  edadb::Status Open();
  edadb::EventProcessor* processor() { return processor_.get(); }

 private:
  std::string dir_;
  std::unique_ptr<edadb::EventProcessor> processor_;
};

/// What a run reports on its last line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> errors;  // The first few failures.

  /// Records a failed output check.
  void Fail(const std::string& what);
  /// Counts `units` attempted units of work whose call returned `status`.
  void Count(const edadb::Status& status, uint64_t units = 1);
};

/// The per-round figures every workload keeps. Round 0 is a warm-up:
/// AddRound logs it but keeps nothing.
///
/// Throughput is total units over total call time, and latency
/// percentiles are taken over the pooled samples of all measured
/// rounds. The host alternates between fast and slow spells lasting
/// tens of seconds, so a median over rounds jumps to whichever spell
/// held most of the run, while the pooled figure moves in proportion.
struct RoundFigures {
  std::vector<double> setup_s;
  /// Units and call time of measured rounds, [untraced, traced].
  std::array<uint64_t, 2> units{};
  std::array<Nanos, 2> call_ns{};
  /// Peak RSS after the first measured round. Later rounds repeat the
  /// same work on a fresh stack, so their peak differs only by how
  /// fragmented the heap has become, and the round count varies with
  /// host speed.
  double peak_rss_mb = 0;

  /// Logs the round to stderr (with `extra` appended) and keeps its
  /// figures unless it is the warm-up. Returns whether it kept them.
  bool AddRound(int round, bool traced, Nanos setup_ns, uint64_t round_units,
                Nanos round_call_ns, const std::string& extra = "");
  /// Fills setup_s (median), throughput_eps and peak_rss_mb; the
  /// workload adds its latency percentiles.
  void Report(std::map<std::string, double>* out) const;
  /// Untraced vs traced throughput, in percent of untraced.
  double TraceOverheadPct() const;
};

/// Runs `round(i, traced)` until `options.seconds` have passed, and at
/// least kMinRounds times. Round 0 is a warm-up: its output is still
/// checked, but the caller drops its measurements. In a traced run,
/// odd rounds are traced and even rounds measure the untraced baseline
/// for trace.overhead_pct.
constexpr int kMinRounds = 3;
void RunRounds(const Options& options,
               const std::function<void(int round, bool traced)>& round);

/// Peak resident set of the process so far.
double PeakRssMb();

/// The round's data directory under options.data_root.
std::string RoundDir(const Options& options, int round);

RunResult RunAlertPipeline(const Options& options);
RunResult RunRuleChurn(const Options& options);
RunResult RunCaptureFanout(const Options& options);

}  // namespace edabench

#endif  // EDABENCH_HARNESS_H_
