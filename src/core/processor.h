#ifndef EDADB_CORE_PROCESSOR_H_
#define EDADB_CORE_PROCESSOR_H_

#include <atomic>
#include <memory>
#include <string>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/result.h"
#include "core/audit.h"
#include "core/metrics_table.h"
#include "core/event.h"
#include "core/sources.h"
#include "core/responder.h"
#include "core/virt.h"
#include "db/database.h"
#include "mq/propagation.h"
#include "mq/shard_router.h"
#include "pubsub/broker.h"
#include "rules/rules_engine.h"

namespace edadb {

struct EventProcessorOptions {
  std::string data_dir;
  WalSyncPolicy wal_sync_policy = WalSyncPolicy::kOnCommit;
  Clock* clock = nullptr;
  /// Record routing decisions in the __audit table ("operational
  /// characteristics: security, auditing, tracking"). One extra insert
  /// per routed event; off by default.
  bool audit_routing = false;
  /// How often PumpOnce() mirrors the metrics registry into the
  /// `__metrics` table (steady-clock throttled). 0 = every pump (tests);
  /// negative = never.
  TimestampMicros metrics_refresh_interval_micros = kMicrosPerSecond;
  /// Number of delivery-core shards: each shard owns its own WAL
  /// stream, commit pipeline, queue lock domain and dispatcher pool,
  /// with queue names hash-routed across them. Must be >= 1. The
  /// default, 1, is the classic single-domain layout (same on-disk
  /// format and ids as before sharding existed) on every host. A data
  /// dir that already holds more shards opens all of them.
  int shards = 1;
};

/// The assembled event-driven application stack: one database under a
/// queue manager, rules engine, pub/sub broker, propagator, VIRT filter
/// and responder registry — the tutorial's claim that "commercial
/// databases with their complementary enterprise software stacks provide
/// all, or almost all, the components required for event-driven
/// applications", in one object.
///
/// Standard wiring: Ingest() evaluates each event against the rules
/// engine; each matched rule routes the event by its action tag, as the
/// rule stood when the event matched it:
///   "queue:<name>"  — stage the event on a queue
///   "topic:<name>"  — publish on the broker under that topic
///   "respond:<role>[:<capability>]" — dispatch via the responder
///                     registry
///   anything else   — dispatched to handlers registered on rules()
/// Consumers then drain queues / subscriptions, optionally behind
/// virt() gating.
class EventProcessor {
 public:
  EDADB_NODISCARD static Result<std::unique_ptr<EventProcessor>> Open(
      EventProcessorOptions options);

  ~EventProcessor();

  EventProcessor(const EventProcessor&) = delete;
  EventProcessor& operator=(const EventProcessor&) = delete;

  /// Normalizes (id/timestamp) and runs the event through the pipeline.
  /// Thin wrapper over a one-event IngestBatch (single code path).
  EDADB_NODISCARD Status Ingest(Event event);

  /// Batch ingest: normalizes every event, evaluates all events against
  /// the rule set in one matcher pass, then routes the matched actions.
  /// Every queue route of the batch is staged with ONE EnqueueFanout:
  /// one target per destination queue, its events in event order — one
  /// transaction and one WAL barrier per shard, not per destination or
  /// event. A shard transaction that applies nothing falls back to one
  /// per destination; a destination whose own transaction applies
  /// nothing is re-staged event by event, so a poisoned event fails
  /// alone. One that applied but failed its WAL sync
  /// (DurabilityUnknown) is never staged twice. Topic publishes and
  /// responder dispatches stay per event.
  /// Within a batch, every handler registered on rules() runs before
  /// any action routing, and topic routes go out before queue staging
  /// (per-channel order is unchanged from the per-event loop).
  ///
  /// Every destination is tried. Returns OK only when every queue route
  /// was staged; otherwise the first staging error, with each failed
  /// route counted in Stats::route_failures (core.route_failures).
  EDADB_NODISCARD Status IngestBatch(std::vector<Event> events);

  /// One scheduler tick: polls attached journal/query capture sources,
  /// pumps queue propagation and dispatcher bindings once. Returns
  /// events captured + messages moved + handled. Call from the
  /// application's periodic loop (or use dispatcher()->Start() for a
  /// background thread).
  EDADB_NODISCARD Result<size_t> PumpOnce();

  // -------------------------------------------------------------------
  // Capture attachment (§2.2.a): adapters owned by the processor whose
  // events feed Ingest().

  /// Synchronous capture: committed changes of `table` become events of
  /// `event_type` immediately.
  EDADB_NODISCARD Status AttachTriggerCapture(const std::string& table,
                              const std::string& event_type);

  /// Asynchronous capture via the journal; drained by PumpOnce().
  EDADB_NODISCARD Status AttachJournalCapture(const std::string& table,
                              const std::string& event_type);

  /// Result-set-diff capture; re-evaluated by PumpOnce().
  EDADB_NODISCARD Status AttachQueryCapture(Query query,
                            std::vector<std::string> key_columns,
                            const std::string& event_type);

  Database* db() { return db_.get(); }
  ShardRouter* queues() { return queues_.get(); }
  RulesEngine* rules() { return rules_.get(); }
  Broker* broker() { return broker_.get(); }
  Propagator* propagator() { return propagator_.get(); }
  VirtFilter* virt() { return virt_.get(); }
  ResponderRegistry* responders() { return responders_.get(); }
  AuditLog* audit() { return audit_.get(); }
  ShardedDispatcher* dispatcher() { return dispatcher_.get(); }
  MetricsTable* metrics_table() { return metrics_table_.get(); }
  Clock* clock() { return clock_; }

  struct Stats {  // lint:allow(adhoc-stats): per-instance counts, also exported as core.* metrics
    uint64_t ingested = 0;
    uint64_t rules_matched = 0;
    uint64_t routed_to_queues = 0;
    uint64_t routed_to_topics = 0;
    uint64_t dispatched_to_responders = 0;
    /// Events delivered by a capture source (trigger/journal/query)
    /// whose Ingest() failed, e.g. a rule condition errored. The event
    /// is lost to routing; the failure is logged and counted here so
    /// it is observable instead of silently dropped.
    uint64_t ingest_failures = 0;
    /// Queue routes (event × matched queue rule) that could not be
    /// staged; IngestBatch reported the first of them to its caller.
    uint64_t route_failures = 0;
  };
  Stats GetStats() const;

 private:
  explicit EventProcessor(EventProcessorOptions options);

  /// An IngestBatch's queue routes: a request per routed (event, queue
  /// rule), in event order, with the rule and event behind it, and a
  /// fan-out target per destination queue.
  struct QueueRoutes {
    std::vector<EnqueueRequest> requests;
    std::vector<std::pair<const Rule*, const Event*>> routed;
    std::vector<FanoutTarget> targets;
  };

  /// Stages every route with one EnqueueFanout (creating queues on
  /// first use); returns the first failure after trying every route.
  EDADB_NODISCARD Status StageQueueRoutes(QueueRoutes routes);

  /// Topic and responder routes (queue routes go through
  /// StageQueueRoutes).
  void RouteAction(const Rule& rule, const Event& event);
  /// Capture-source callback: Ingest() with failures logged + counted
  /// (sources deliver on a void callback, so there is no caller to
  /// propagate to).
  void IngestFromSource(const Event& event);

  EventProcessorOptions options_;
  Clock* clock_ = nullptr;
  std::unique_ptr<Database> db_;
  std::unique_ptr<ShardRouter> queues_;
  std::unique_ptr<RulesEngine> rules_;
  std::unique_ptr<Broker> broker_;
  std::unique_ptr<Propagator> propagator_;
  std::unique_ptr<VirtFilter> virt_;
  std::unique_ptr<ResponderRegistry> responders_;
  std::unique_ptr<AuditLog> audit_;
  std::unique_ptr<MetricsTable> metrics_table_;
  std::unique_ptr<ShardedDispatcher> dispatcher_;
  std::vector<std::unique_ptr<TriggerEventSource>> trigger_sources_;
  std::vector<std::unique_ptr<JournalEventSource>> journal_sources_;
  std::vector<std::unique_ptr<QueryEventSource>> query_sources_;

  /// Instance-owned counters (GetStats stays per-processor); the
  /// collector below also exports them process-wide as core.*.
  metrics::Counter ingested_;
  metrics::Counter rules_matched_;
  metrics::Counter routed_to_queues_;
  metrics::Counter routed_to_topics_;
  metrics::Counter dispatched_to_responders_;
  metrics::Counter ingest_failures_;
  metrics::Counter route_failures_;

  /// Throttles __metrics refreshes inside PumpOnce (steady domain).
  std::atomic<TimestampMicros> last_metrics_refresh_steady_{0};

  /// LAST member: destroyed first, so an in-flight collector reading
  /// the counters above finishes before they are torn down.
  metrics::CallbackHandle metrics_collector_;
};

}  // namespace edadb

#endif  // EDADB_CORE_PROCESSOR_H_
