#include "core/processor.h"

#include <algorithm>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace edadb {

EventProcessor::EventProcessor(EventProcessorOptions options)
    : options_(std::move(options)) {}

EventProcessor::~EventProcessor() = default;

Result<std::unique_ptr<EventProcessor>> EventProcessor::Open(
    EventProcessorOptions options) {
  auto processor =
      std::unique_ptr<EventProcessor>(new EventProcessor(std::move(options)));
  DatabaseOptions db_options;
  db_options.dir = processor->options_.data_dir;
  db_options.wal_sync_policy = processor->options_.wal_sync_policy;
  db_options.clock = processor->options_.clock;
  EDADB_ASSIGN_OR_RETURN(processor->db_, Database::Open(db_options));
  processor->clock_ = processor->db_->clock();
  EDADB_ASSIGN_OR_RETURN(
      processor->queues_,
      ShardRouter::Open(processor->db_.get(),
                        static_cast<size_t>(processor->options_.shards)));
  EDADB_ASSIGN_OR_RETURN(processor->rules_,
                         RulesEngine::Attach(processor->db_.get()));
  EDADB_ASSIGN_OR_RETURN(
      processor->broker_,
      Broker::Attach(processor->db_.get(), processor->queues_.get()));
  processor->propagator_ =
      std::make_unique<Propagator>(processor->queues_.get());
  processor->virt_ = std::make_unique<VirtFilter>(processor->clock_);
  processor->responders_ =
      std::make_unique<ResponderRegistry>(processor->queues_.get());
  EDADB_ASSIGN_OR_RETURN(processor->audit_,
                         AuditLog::Attach(processor->db_.get()));
  EDADB_ASSIGN_OR_RETURN(processor->metrics_table_,
                         MetricsTable::Attach(processor->db_.get()));
  processor->dispatcher_ =
      std::make_unique<ShardedDispatcher>(processor->queues_.get());
  // Export the instance counters process-wide (multiple processors sum).
  EventProcessor* raw = processor.get();
  processor->metrics_collector_ =
      metrics::Registry::Default()->RegisterCollector(
          [raw](std::vector<metrics::MetricSnapshot>* out) {
            const auto emit = [out](const char* name, uint64_t value) {
              metrics::MetricSnapshot ms;
              ms.name = name;
              ms.kind = metrics::MetricKind::kCounter;
              ms.value = static_cast<int64_t>(value);
              out->push_back(std::move(ms));
            };
            emit("core.ingested", raw->ingested_.Value());
            emit("core.rules_matched", raw->rules_matched_.Value());
            emit("core.routed_to_queues", raw->routed_to_queues_.Value());
            emit("core.routed_to_topics", raw->routed_to_topics_.Value());
            emit("core.dispatched_to_responders",
                 raw->dispatched_to_responders_.Value());
            emit("core.ingest_failures", raw->ingest_failures_.Value());
            emit("core.route_failures", raw->route_failures_.Value());
          });
  return processor;
}

void EventProcessor::RouteAction(const Rule& rule, const Event& event) {
  const std::string& action = rule.action;
  if (StartsWith(action, "topic:")) {
    Publication pub;
    pub.topic = action.substr(6);
    pub.attributes = event.attributes;
    pub.attributes.emplace_back("event_type", Value::String(event.type));
    pub.payload = event.payload;
    const auto published = broker_->Publish(pub);
    if (published.ok()) {
      routed_to_topics_.Add(1);
      if (options_.audit_routing) {
        EDADB_IGNORE_STATUS(
            audit_->Append("processor", "route.topic", pub.topic,
                           "rule=" + rule.id + " event=" +
                               std::to_string(event.id)),
            "audit trail is best-effort; the routing itself succeeded");
      }
    } else {
      EDADB_LOG(Warn) << "publish to '" << pub.topic
                      << "' failed: " << published.status();
    }
    return;
  }
  if (StartsWith(action, "respond:")) {
    const std::vector<std::string> parts = Split(action.substr(8), ':');
    ResponseCriteria criteria;
    if (!parts.empty()) criteria.required_role = parts[0];
    if (parts.size() > 1) criteria.required_capability = parts[1];
    if (auto region = event.Get("region");
        region.has_value() && region->type() == ValueType::kString) {
      criteria.region = region->string_value();
    }
    const auto dispatched = responders_->Dispatch(event, criteria);
    if (dispatched.ok()) {
      dispatched_to_responders_.Add(dispatched->size());
      if (options_.audit_routing) {
        for (const std::string& responder : *dispatched) {
          EDADB_IGNORE_STATUS(
              audit_->Append("processor", "route.respond", responder,
                             "rule=" + rule.id + " event=" +
                                 std::to_string(event.id)),
              "audit trail is best-effort; the dispatch itself succeeded");
        }
      }
    } else {
      EDADB_LOG(Warn) << "responder dispatch for rule '" << rule.id
                      << "' failed: " << dispatched.status();
    }
    return;
  }
  // Plain action tags are dispatched through the rules engine's handler
  // registry during Evaluate(); nothing further to do here.
}

Status EventProcessor::Ingest(Event event) {
  std::vector<Event> batch;
  batch.push_back(std::move(event));
  return IngestBatch(std::move(batch));
}

Status EventProcessor::IngestBatch(std::vector<Event> events) {
  if (events.empty()) return Status::OK();
  FAILPOINT("core.ingest");
  for (Event& event : events) {
    if (event.id == 0) event.id = NextEventId();
    if (event.timestamp == 0) event.timestamp = clock_->NowMicros();
  }
  ingested_.Add(events.size());

  // Evaluate critical conditions (handlers registered on rules() fire
  // inside EvaluateBatch), then interpret routing action tags per event.
  std::vector<EventView> views;
  views.reserve(events.size());
  for (const Event& event : events) views.emplace_back(event);
  std::vector<const RowAccessor*> accessors;
  accessors.reserve(events.size());
  for (const EventView& view : views) accessors.push_back(&view);
  EDADB_ASSIGN_OR_RETURN(std::vector<std::vector<Rule>> matched,
                         rules_->EvaluateBatch(accessors));
  // Queue routes collect into one request per (event, queue rule) and
  // one fan-out target per destination queue, in event order; topic and
  // responder routes go out as they come.
  QueueRoutes routes;
  for (size_t i = 0; i < events.size(); ++i) {
    rules_matched_.Add(matched[i].size());
    for (const Rule& rule : matched[i]) {
      if (!StartsWith(rule.action, "queue:")) {
        if (!rule.action.empty()) RouteAction(rule, events[i]);
        continue;
      }
      const std::string_view queue = std::string_view(rule.action).substr(6);
      auto target = std::find_if(
          routes.targets.begin(), routes.targets.end(),
          [queue](const FanoutTarget& t) { return t.queue == queue; });
      if (target == routes.targets.end()) {
        target = routes.targets.insert(routes.targets.end(),
                                       FanoutTarget{std::string(queue), {}});
      }
      target->requests.push_back(routes.requests.size());
      const Event& event = events[i];
      EnqueueRequest request;
      request.payload = event.payload;
      request.attributes = event.attributes;
      request.attributes.emplace_back("event_type", Value::String(event.type));
      request.attributes.emplace_back("event_source",
                                      Value::String(event.source));
      request.attributes.emplace_back("matched_rule", Value::String(rule.id));
      request.correlation_id = std::to_string(event.id);
      routes.requests.push_back(std::move(request));
      routes.routed.emplace_back(&rule, &event);
    }
  }
  return StageQueueRoutes(std::move(routes));
}

Status EventProcessor::StageQueueRoutes(QueueRoutes routes) {
  Status first_failure;
  // Counts, logs and audits one route's outcome.
  const auto settle = [&](const std::string& queue, size_t r, Status s) {
    const auto& [rule, event] = routes.routed[r];
    if (!s.ok()) {
      route_failures_.Add(1);
      EDADB_LOG(Warn) << "enqueue of event " << event->id << " to '" << queue
                      << "' failed: " << s;
      if (first_failure.ok()) first_failure = std::move(s);
      return;
    }
    routed_to_queues_.Add(1);
    if (options_.audit_routing) {
      EDADB_IGNORE_STATUS(
          audit_->Append("processor", "route.queue", queue,
                         "rule=" + rule->id + " event=" +
                             std::to_string(event->id)),
          "audit trail is best-effort; the routing itself succeeded");
    }
  };
  // A queue is created on first use; one that cannot be fails its
  // routes with the creation error and is left out of the fan-out.
  for (auto target = routes.targets.begin();
       target != routes.targets.end();) {
    const Status created = queues_->HasQueue(target->queue)
                               ? Status::OK()
                               : queues_->CreateQueue(target->queue);
    if (created.ok() || created.IsAlreadyExists()) {
      ++target;
      continue;
    }
    for (const size_t r : target->requests) settle(target->queue, r, created);
    target = routes.targets.erase(target);
  }
  if (routes.targets.empty()) return first_failure;
  // One transaction per shard for every destination. A target whose own
  // transaction applied nothing is re-staged event by event, so a
  // poisoned event fails alone; one that applied (DurabilityUnknown) is
  // never staged again.
  const std::vector<Status> staged =
      queues_->EnqueueFanout(routes.requests, routes.targets);
  for (size_t t = 0; t < routes.targets.size(); ++t) {
    const FanoutTarget& target = routes.targets[t];
    const bool per_event =
        !CommitApplied(staged[t]) && target.requests.size() > 1;
    for (const size_t r : target.requests) {
      settle(target.queue, r,
             per_event
                 ? queues_->Enqueue(target.queue, routes.requests[r]).status()
                 : staged[t]);
    }
  }
  return first_failure;
}

void EventProcessor::IngestFromSource(const Event& event) {
  const Status s = Ingest(event);
  if (!s.ok()) {
    ingest_failures_.Add(1);
    EDADB_LOG(Warn) << "capture-source ingest of event type '" << event.type
                    << "' failed: " << s;
  }
}

Result<size_t> EventProcessor::PumpOnce() {
  size_t total = 0;
  // Mirror the registry into __metrics BEFORE the query-source polls,
  // so a capture source watching __metrics sees this tick's values in
  // the same pump (no one-tick lag for continuous queries on health).
  if (options_.metrics_refresh_interval_micros >= 0) {
    // Steady-domain throttle (the atomic stores raw micros; the typed
    // points keep the arithmetic in one domain).
    const SteadyMicros steady_now = clock_->SteadyNow();
    const SteadyMicros last = SteadyMicros::FromMicros(
        last_metrics_refresh_steady_.load(std::memory_order_relaxed));
    if (last.micros() == 0 ||
        steady_now - last >= options_.metrics_refresh_interval_micros) {
      last_metrics_refresh_steady_.store(steady_now.micros(),
                                         std::memory_order_relaxed);
      EDADB_RETURN_IF_ERROR(metrics_table_->Refresh().status());
    }
  }
  for (const auto& source : journal_sources_) {
    EDADB_ASSIGN_OR_RETURN(size_t captured, source->Poll());
    total += captured;
  }
  for (const auto& source : query_sources_) {
    EDADB_ASSIGN_OR_RETURN(size_t captured, source->Poll());
    total += captured;
  }
  EDADB_ASSIGN_OR_RETURN(size_t propagated, propagator_->RunOnce());
  EDADB_ASSIGN_OR_RETURN(size_t dispatched, dispatcher_->PumpOnce());
  return total + propagated + dispatched;
}

Status EventProcessor::AttachTriggerCapture(const std::string& table,
                                            const std::string& event_type) {
  EDADB_ASSIGN_OR_RETURN(
      auto source,
      TriggerEventSource::Create(
          db_.get(), [this](const Event& event) { IngestFromSource(event); },
          table, "__capture_" + table, event_type));
  trigger_sources_.push_back(std::move(source));
  return Status::OK();
}

Status EventProcessor::AttachJournalCapture(const std::string& table,
                                            const std::string& event_type) {
  EDADB_RETURN_IF_ERROR(db_->GetTable(table).status());
  journal_sources_.push_back(std::make_unique<JournalEventSource>(
      db_.get(), [this](const Event& event) { IngestFromSource(event); }, table,
      event_type, db_->wal_end_lsn()));
  return Status::OK();
}

Status EventProcessor::AttachQueryCapture(
    Query query, std::vector<std::string> key_columns,
    const std::string& event_type) {
  EDADB_RETURN_IF_ERROR(db_->GetTable(query.table).status());
  query_sources_.push_back(std::make_unique<QueryEventSource>(
      db_.get(), [this](const Event& event) { IngestFromSource(event); },
      std::move(query), std::move(key_columns), event_type));
  // Prime the baseline so pre-existing rows are not reported as changes.
  return query_sources_.back()->Poll().status();
}

EventProcessor::Stats EventProcessor::GetStats() const {
  Stats stats;
  stats.ingested = ingested_.Value();
  stats.rules_matched = rules_matched_.Value();
  stats.routed_to_queues = routed_to_queues_.Value();
  stats.routed_to_topics = routed_to_topics_.Value();
  stats.dispatched_to_responders = dispatched_to_responders_.Value();
  stats.ingest_failures = ingest_failures_.Value();
  stats.route_failures = route_failures_.Value();
  return stats;
}

}  // namespace edadb
