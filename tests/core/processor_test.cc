#include "core/processor.h"

#include <set>
#include <stdexcept>

#include "common/failpoint.h"
#include "core/sources.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace edadb {
namespace {

Event MakeEvent(const std::string& type, int64_t severity,
                const std::string& region = "east") {
  Event event;
  event.type = type;
  event.Set("severity", Value::Int64(severity));
  event.Set("region", Value::String(region));
  return event;
}

class ProcessorTest : public testing::Test {
 protected:
  void SetUp() override {
    EventProcessorOptions options;
    options.data_dir = dir_.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    processor_ = *EventProcessor::Open(std::move(options));
  }

  TempDir dir_;
  std::unique_ptr<EventProcessor> processor_;
};

TEST_F(ProcessorTest, OpensAllSubsystems) {
  EXPECT_NE(processor_->db(), nullptr);
  EXPECT_NE(processor_->queues(), nullptr);
  EXPECT_NE(processor_->rules(), nullptr);
  EXPECT_NE(processor_->broker(), nullptr);
  EXPECT_NE(processor_->propagator(), nullptr);
  EXPECT_NE(processor_->virt(), nullptr);
  EXPECT_NE(processor_->responders(), nullptr);
}

TEST_F(ProcessorTest, QueueActionRoutesMatchingEvents) {
  ASSERT_OK(processor_->rules()->AddRule(
      "critical", "severity >= 7", "queue:alerts"));
  ASSERT_OK(processor_->Ingest(MakeEvent("reading", 3)));
  ASSERT_OK(processor_->Ingest(MakeEvent("reading", 9)));
  DequeueRequest dq;
  auto msg = *processor_->queues()->Dequeue("alerts", dq);
  ASSERT_TRUE(msg.has_value());
  bool has_rule_tag = false;
  for (const auto& [name, value] : msg->attributes) {
    if (name == "matched_rule") {
      has_rule_tag = true;
      EXPECT_EQ(value.string_value(), "critical");
    }
  }
  EXPECT_TRUE(has_rule_tag);
  EXPECT_FALSE(processor_->queues()->Dequeue("alerts", dq)->has_value());
  const auto stats = processor_->GetStats();
  EXPECT_EQ(stats.ingested, 2u);
  EXPECT_EQ(stats.rules_matched, 1u);
  EXPECT_EQ(stats.routed_to_queues, 1u);
}

TEST_F(ProcessorTest, TopicActionPublishes) {
  int received = 0;
  SubscriptionSpec spec;
  spec.subscriber = "dash";
  spec.topic_pattern = "dashboard";
  spec.handler = [&](const Publication&) { ++received; };
  ASSERT_OK(processor_->broker()->Subscribe(std::move(spec)).status());
  ASSERT_OK(processor_->rules()->AddRule("to_dash", "severity >= 5",
                                         "topic:dashboard"));
  ASSERT_OK(processor_->Ingest(MakeEvent("r", 6)));
  EXPECT_EQ(received, 1);
  EXPECT_EQ(processor_->GetStats().routed_to_topics, 1u);
}

TEST_F(ProcessorTest, RespondActionDispatchesByRoleAndRegion) {
  Responder responder;
  responder.id = "east-crew";
  responder.roles = {"hazmat"};
  responder.region = "east";
  ASSERT_OK(processor_->responders()->RegisterResponder(responder));
  ASSERT_OK(processor_->rules()->AddRule("dispatch", "severity >= 8",
                                         "respond:hazmat"));
  ASSERT_OK(processor_->Ingest(MakeEvent("spill", 9, "east")));
  EXPECT_EQ(processor_->GetStats().dispatched_to_responders, 1u);
  DequeueRequest dq;
  EXPECT_TRUE(
      processor_->queues()->Dequeue("__responder_east-crew", dq)
          ->has_value());
}

TEST_F(ProcessorTest, PlainActionsGoToRegisteredHandlers) {
  int called = 0;
  processor_->rules()->RegisterActionHandler(
      "custom", [&](const Rule&, const RowAccessor&) { ++called; });
  ASSERT_OK(processor_->rules()->AddRule("r", "severity > 0", "custom"));
  ASSERT_OK(processor_->Ingest(MakeEvent("x", 5)));
  EXPECT_EQ(called, 1);
}

TEST_F(ProcessorTest, PumpOnceDrivesPropagationAndDispatch) {
  // alerts --propagate--> downstream --dispatch--> handler.
  ASSERT_OK(processor_->queues()->CreateQueue("alerts"));
  ASSERT_OK(processor_->queues()->CreateQueue("downstream"));
  ASSERT_OK(processor_->rules()->AddRule("crit", "severity >= 7",
                                         "queue:alerts"));
  PropagationRule hop;
  hop.name = "hop";
  hop.source_queue = "alerts";
  hop.destination_queue = "downstream";
  ASSERT_OK(processor_->propagator()->AddRule(std::move(hop)));
  int handled = 0;
  QueueDispatcher::Binding binding;
  binding.queue = "downstream";
  binding.handler = [&](const Message&) {
    ++handled;
    return Status::OK();
  };
  ASSERT_OK(processor_->dispatcher()->Bind(std::move(binding)));

  ASSERT_OK(processor_->Ingest(MakeEvent("spill", 9)));
  // Tick 1 propagates; tick 2 dispatches (single-pass pump ordering:
  // propagation runs before dispatch each tick, so one tick suffices
  // when the message is already staged).
  EXPECT_EQ(*processor_->PumpOnce(), 2u);  // 1 propagated + 1 handled.
  EXPECT_EQ(handled, 1);
  EXPECT_EQ(*processor_->PumpOnce(), 0u);  // Drained.
}

// A throwing action handler is contained by the rules engine (counted
// as rules.handler_errors): IngestBatch still stages the queue route of
// every event in the batch, including the one whose handler threw.
TEST_F(ProcessorTest, ThrowingHandlerStillRoutesTheWholeBatch) {
  metrics::Counter* errors =
      metrics::Registry::Default()->GetCounter("rules.handler_errors");
  const uint64_t errors_before = errors->Value();
  ASSERT_OK(processor_->queues()->CreateQueue("alerts"));
  ASSERT_OK(processor_->rules()->AddRule("crit", "severity >= 7",
                                         "queue:alerts"));
  ASSERT_OK(processor_->rules()->AddRule("page", "severity >= 7", "page"));
  int calls = 0;
  processor_->rules()->RegisterActionHandler(
      "page", [&](const Rule&, const RowAccessor&) {
        if (calls++ == 0) throw std::runtime_error("pager down");
      });

  std::vector<Event> batch;
  for (int i = 0; i < 3; ++i) batch.push_back(MakeEvent("reading", 9));
  ASSERT_OK(processor_->IngestBatch(std::move(batch)));
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(errors->Value() - errors_before, 1u);
  EXPECT_EQ(*processor_->queues()->Depth("alerts", ""), 3u);
  EXPECT_EQ(processor_->GetStats().routed_to_queues, 3u);
}

// Each event is routed by the version of the rule it matched. A handler
// that replaces rule `crit` mid-batch redirects later batches, not the
// events already matched against the old version.
TEST_F(ProcessorTest, RoutesByTheRuleVersionEachEventMatched) {
  ASSERT_OK(processor_->queues()->CreateQueue("alerts"));
  ASSERT_OK(processor_->queues()->CreateQueue("other"));
  RulesEngine* rules = processor_->rules();
  ASSERT_OK(rules->AddRule("crit", "severity >= 7", "queue:alerts"));
  ASSERT_OK(rules->AddRule("swap", "severity >= 7", "swap"));
  bool replaced = false;
  rules->RegisterActionHandler("swap", [&](const Rule&, const RowAccessor&) {
    if (replaced) return;
    replaced = true;
    EXPECT_OK(rules->RemoveRule("crit"));
    EXPECT_OK(rules->AddRule("crit", "severity >= 7", "queue:other"));
  });

  std::vector<Event> batch;
  batch.push_back(MakeEvent("reading", 9));
  batch.push_back(MakeEvent("reading", 8));
  ASSERT_OK(processor_->IngestBatch(std::move(batch)));
  EXPECT_TRUE(replaced);
  EXPECT_EQ(*processor_->queues()->Depth("alerts", ""), 2u);
  EXPECT_EQ(*processor_->queues()->Depth("other", ""), 0u);

  ASSERT_OK(processor_->Ingest(MakeEvent("reading", 9)));
  EXPECT_EQ(*processor_->queues()->Depth("alerts", ""), 2u);
  EXPECT_EQ(*processor_->queues()->Depth("other", ""), 1u);
}

TEST_F(ProcessorTest, DefaultsToOneShardAndRejectsFewer) {
  EXPECT_EQ(processor_->queues()->num_shards(), 1u);
  for (const int shards : {0, -1}) {
    TempDir dir;
    EventProcessorOptions options;
    options.data_dir = dir.path();
    options.shards = shards;
    const Status opened = EventProcessor::Open(std::move(options)).status();
    EXPECT_TRUE(opened.IsInvalidArgument()) << shards << ": " << opened;
  }
}

// IngestBatch stages every queue route with one EnqueueFanout: one
// commit per shard its destination queues live on, not one per queue.
TEST_F(ProcessorTest, IngestBatchCommitsOncePerShard) {
  metrics::Counter* commits =
      metrics::Registry::Default()->GetCounter("db.commits");
  for (const int shards : {1, 2}) {
    TempDir dir;
    EventProcessorOptions options;
    options.data_dir = dir.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    options.shards = shards;
    std::unique_ptr<EventProcessor> processor =
        *EventProcessor::Open(std::move(options));
    ShardRouter* router = processor->queues();
    // Three destination queues; the first two hash to different shards
    // when there are two.
    std::vector<std::string> queues;
    for (int i = 0; queues.size() < 3; ++i) {
      const std::string name = "q" + std::to_string(i);
      if (queues.size() == 1 && shards > 1 &&
          router->HashShard(name) == router->HashShard(queues[0])) {
        continue;
      }
      queues.push_back(name);
    }
    for (const std::string& queue : queues) {
      ASSERT_OK(router->CreateQueue(queue));
      ASSERT_OK(processor->rules()->AddRule("to_" + queue, "severity >= 0",
                                            "queue:" + queue));
    }
    std::vector<Event> batch;
    for (int i = 0; i < 4; ++i) batch.push_back(MakeEvent("reading", i));
    const uint64_t commits_before = commits->Value();
    ASSERT_OK(processor->IngestBatch(std::move(batch)));
    EXPECT_EQ(commits->Value() - commits_before,
              static_cast<uint64_t>(shards));
    for (const std::string& queue : queues) {
      EXPECT_EQ(*router->Depth(queue, ""), 4u) << queue;
    }
    EXPECT_EQ(processor->GetStats().routed_to_queues, 12u);
  }
}

TEST_F(ProcessorTest, AttachedCapturesFeedThePipeline) {
  Database* db = processor_->db();
  auto schema = Schema::Make({{"sensor", ValueType::kString, false},
                              {"severity", ValueType::kInt64, false}});
  ASSERT_TRUE(db->CreateTable("readings", schema).ok());
  ASSERT_OK(processor_->rules()->AddRule(
      "crit", "event_type = 'reading' AND severity >= 7", "queue:alerts"));
  ASSERT_OK(processor_->queues()->CreateQueue("alerts"));

  // Trigger capture: synchronous.
  ASSERT_OK(processor_->AttachTriggerCapture("readings", "reading"));
  ASSERT_TRUE(db->Insert("readings", Record(schema, {Value::String("s1"),
                                                     Value::Int64(9)}))
                  .ok());
  EXPECT_EQ(*processor_->queues()->Depth("alerts", ""), 1u);

  // Journal capture on a second table: drained by PumpOnce.
  ASSERT_TRUE(db->CreateTable("readings2", schema).ok());
  ASSERT_OK(processor_->rules()->AddRule(
      "crit2", "event_type = 'reading2' AND severity >= 7",
      "queue:alerts"));
  ASSERT_OK(processor_->AttachJournalCapture("readings2", "reading2"));
  ASSERT_TRUE(db->Insert("readings2", Record(schema, {Value::String("s2"),
                                                      Value::Int64(8)}))
                  .ok());
  EXPECT_EQ(*processor_->queues()->Depth("alerts", ""), 1u);  // Not yet.
  ASSERT_OK(processor_->PumpOnce().status());
  EXPECT_EQ(*processor_->queues()->Depth("alerts", ""), 2u);

  // Query capture: result-set change events on the next pump.
  Query query = QueryBuilder("readings").Where("severity >= 7").Build();
  ASSERT_OK(processor_->AttachQueryCapture(std::move(query), {"sensor"},
                                           "hot_sensor"));
  ASSERT_OK(processor_->rules()->AddRule(
      "hot", "event_type = 'hot_sensor'", "queue:alerts"));
  ASSERT_TRUE(db->Insert("readings", Record(schema, {Value::String("s3"),
                                                     Value::Int64(9)}))
                  .ok());
  ASSERT_OK(processor_->PumpOnce().status());
  // s3's insert fired the trigger capture (reading) AND the query
  // capture (hot_sensor): alerts gained 2.
  EXPECT_EQ(*processor_->queues()->Depth("alerts", ""), 4u);
}

// ---------------------------------------------------------------------------
// Capture sources (§2.2.a)

SchemaPtr MeterSchema() {
  return Schema::Make({
      {"meter", ValueType::kString, false},
      {"kwh", ValueType::kDouble, false},
  });
}

Record MeterRow(const std::string& meter, double kwh) {
  return Record(MeterSchema(), {Value::String(meter), Value::Double(kwh)});
}

class SourcesTest : public testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.dir = dir_.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    db_ = *Database::Open(std::move(options));
    ASSERT_TRUE(db_->CreateTable("meters", MeterSchema()).ok());
    sink_ = [this](const Event& event) { captured_.push_back(event); };
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
  EventSink sink_;
  std::vector<Event> captured_;
};

TEST_F(SourcesTest, TriggerSourceCapturesSynchronously) {
  auto source = *TriggerEventSource::Create(db_.get(), sink_, "meters",
                                            "cap_meters", "meter_change");
  const RowId id = *db_->Insert("meters", MeterRow("m1", 5.5));
  ASSERT_EQ(captured_.size(), 1u);  // No polling needed.
  EXPECT_EQ(captured_[0].type, "meter_change");
  EXPECT_EQ(captured_[0].source, "trigger:meters");
  EXPECT_EQ(captured_[0].Get("op")->string_value(), "INSERT");
  EXPECT_EQ(captured_[0].Get("meter")->string_value(), "m1");
  EXPECT_EQ(captured_[0].Get("kwh")->double_value(), 5.5);
  ASSERT_OK(db_->DeleteRow("meters", id));
  ASSERT_EQ(captured_.size(), 2u);
  EXPECT_EQ(captured_[1].Get("op")->string_value(), "DELETE");
  EXPECT_EQ(captured_[1].Get("meter")->string_value(), "m1");
  EXPECT_EQ(source->captured(), 2u);
}

TEST_F(SourcesTest, TriggerSourceUnregistersOnDestruction) {
  {
    auto source = *TriggerEventSource::Create(db_.get(), sink_, "meters",
                                              "cap_meters", "meter_change");
  }
  ASSERT_OK(db_->Insert("meters", MeterRow("m1", 1)).status());
  EXPECT_TRUE(captured_.empty());
}

TEST_F(SourcesTest, JournalSourceCapturesOnPoll) {
  JournalEventSource source(db_.get(), sink_, "meters", "meter_change");
  ASSERT_OK(db_->Insert("meters", MeterRow("m1", 5.5)).status());
  EXPECT_TRUE(captured_.empty());  // Asynchronous: nothing until Poll.
  EXPECT_EQ(*source.Poll(), 1u);
  ASSERT_EQ(captured_.size(), 1u);
  EXPECT_EQ(captured_[0].source, "journal:meters");
  EXPECT_EQ(captured_[0].Get("meter")->string_value(), "m1");
  EXPECT_TRUE(captured_[0].Get("lsn").has_value());
  EXPECT_EQ(*source.Poll(), 0u);  // Incremental.
}

TEST_F(SourcesTest, QuerySourceCapturesResultSetChanges) {
  Query query = QueryBuilder("meters").Where("kwh > 10").Build();
  QueryEventSource source(db_.get(), sink_, std::move(query), {"meter"},
                          "overload");
  ASSERT_OK(source.Poll().status());  // Prime.
  ASSERT_OK(db_->Insert("meters", MeterRow("m1", 5)).status());
  EXPECT_EQ(*source.Poll(), 0u);  // Below threshold: not in result set.
  ASSERT_OK(db_->Insert("meters", MeterRow("m2", 15)).status());
  EXPECT_EQ(*source.Poll(), 1u);
  ASSERT_EQ(captured_.size(), 1u);
  EXPECT_EQ(captured_[0].type, "overload");
  EXPECT_EQ(captured_[0].Get("op")->string_value(), "ADDED");
}

TEST_F(SourcesTest, PushSourceStampsDefaults) {
  PushEventSource source(sink_, "scada-gateway");
  Event event;
  event.type = "external";
  source.Push(event);
  ASSERT_EQ(captured_.size(), 1u);
  EXPECT_EQ(captured_[0].source, "scada-gateway");
  EXPECT_NE(captured_[0].id, 0u);
  EXPECT_NE(captured_[0].timestamp, 0);
  EXPECT_EQ(source.captured(), 1u);
}

TEST_F(SourcesTest, AllThreeCapturePathsSeeTheSameChange) {
  auto trigger_source = *TriggerEventSource::Create(
      db_.get(), sink_, "meters", "trig", "via_trigger");
  JournalEventSource journal_source(db_.get(), sink_, "meters",
                                    "via_journal");
  QueryEventSource query_source(db_.get(), sink_,
                                QueryBuilder("meters").Build(), {"meter"},
                                "via_query");
  ASSERT_OK(query_source.Poll().status());

  ASSERT_OK(db_->Insert("meters", MeterRow("m9", 1.0)).status());
  ASSERT_OK(journal_source.Poll().status());
  ASSERT_OK(query_source.Poll().status());

  std::set<std::string> types;
  for (const Event& event : captured_) types.insert(event.type);
  EXPECT_EQ(types, (std::set<std::string>{"via_trigger", "via_journal",
                                          "via_query"}));
}

#if EDADB_FAILPOINTS_ENABLED
// Regression: a capture-source delivery whose Ingest() fails must not
// vanish. Sources deliver on a void callback, so there is no caller to
// propagate to — the processor logs the failure and bumps
// Stats::ingest_failures instead of silently dropping the event.
TEST_F(ProcessorTest, CaptureIngestFailuresAreCountedNotSilentlyDropped) {
  Database* db = processor_->db();
  auto schema = Schema::Make({{"sensor", ValueType::kString, false},
                              {"severity", ValueType::kInt64, false}});
  ASSERT_OK(db->CreateTable("readings", schema));
  ASSERT_OK(processor_->AttachTriggerCapture("readings", "reading"));

  // Default Action injects IOError at the top of Ingest().
  failpoint::Arm("core.ingest", failpoint::Action{});
  // The insert itself still succeeds: the trigger capture hands the
  // event to a void callback, so an ingest failure cannot fail the
  // committing transaction.
  ASSERT_OK(db->Insert("readings", Record(schema, {Value::String("s1"),
                                                   Value::Int64(9)}))
                .status());
  failpoint::DisarmAll();

  EventProcessor::Stats stats = processor_->GetStats();
  EXPECT_EQ(stats.ingest_failures, 1u);
  EXPECT_EQ(stats.ingested, 0u);  // rejected before counting as ingested

  ASSERT_OK(db->Insert("readings", Record(schema, {Value::String("s2"),
                                                   Value::Int64(3)}))
                .status());
  stats = processor_->GetStats();
  EXPECT_EQ(stats.ingest_failures, 1u);
  EXPECT_EQ(stats.ingested, 1u);
}

// A staging failure surfaces: IngestBatch tries every destination queue,
// re-stages a failed group event by event so only the poisoned event is
// lost, counts each lost route, and returns the first error.
TEST_F(ProcessorTest, StagingFailuresAreReturnedAndCounted) {
  ASSERT_OK(processor_->queues()->CreateQueue("east_alerts"));
  ASSERT_OK(processor_->queues()->CreateQueue("west_alerts"));
  ASSERT_OK(processor_->rules()->AddRule(
      "east", "region = 'east'", "queue:east_alerts"));
  ASSERT_OK(processor_->rules()->AddRule(
      "west", "region = 'west'", "queue:west_alerts"));

  std::vector<Event> batch;
  batch.push_back(MakeEvent("reading", 9, "east"));
  batch.push_back(MakeEvent("reading", 9, "west"));
  batch.push_back(MakeEvent("reading", 9, "east"));
  // Both queues share the one shard, so the batch is one fan-out
  // transaction: east_alerts (its first event comes first), then
  // west_alerts. The mid-batch site fails that transaction, then
  // east_alerts' own retry (two messages); west_alerts' own retry (one
  // message) passes it, and the before-commit site lets it through.
  // That site then fails east_alerts' first per-event retry.
  failpoint::Action mid;
  mid.max_fires = 2;
  failpoint::Arm("mq.enqueue_batch.mid", mid);
  failpoint::Action before_commit;
  before_commit.skip = 1;
  before_commit.max_fires = 1;
  failpoint::Arm("mq.enqueue.before_commit", before_commit);
  const Status ingested = processor_->IngestBatch(std::move(batch));
  failpoint::DisarmAll();

  EXPECT_TRUE(ingested.IsIOError()) << ingested;
  EXPECT_EQ(*processor_->queues()->Depth("east_alerts", ""), 1u);
  EXPECT_EQ(*processor_->queues()->Depth("west_alerts", ""), 1u);
  const EventProcessor::Stats stats = processor_->GetStats();
  EXPECT_EQ(stats.route_failures, 1u);
  EXPECT_EQ(stats.routed_to_queues, 2u);
  uint64_t exported = 0;
  for (const metrics::MetricSnapshot& metric :
       metrics::Registry::Default()->Snapshot()) {
    if (metric.name == "core.route_failures") {
      exported = static_cast<uint64_t>(metric.value);
    }
  }
  EXPECT_GE(exported, 1u);

  // Nothing armed: the same routes stage cleanly and report OK.
  ASSERT_OK(processor_->Ingest(MakeEvent("reading", 9, "east")));
  EXPECT_EQ(processor_->GetStats().route_failures, 1u);
}

// A queue that cannot be created on first use fails its own routes with
// the creation error, not the fan-out's NotFound; the batch's other
// destinations still stage.
TEST_F(ProcessorTest, QueueCreationFailureFailsOnlyItsRoutes) {
  ASSERT_OK(processor_->queues()->CreateQueue("east_alerts"));
  ASSERT_OK(processor_->rules()->AddRule(
      "east", "region = 'east'", "queue:east_alerts"));
  ASSERT_OK(processor_->rules()->AddRule(
      "west", "region = 'west'", "queue:west_new"));
  std::vector<Event> batch;
  batch.push_back(MakeEvent("reading", 9, "east"));
  batch.push_back(MakeEvent("reading", 9, "west"));
  batch.push_back(MakeEvent("reading", 9, "west"));
  // Queues are created before the fan-out, so the first commit is
  // west_new's catalog row.
  failpoint::Action fault;
  fault.max_fires = 1;
  failpoint::Arm("db.commit.before_wal", fault);
  const Status ingested = processor_->IngestBatch(std::move(batch));
  failpoint::DisarmAll();

  EXPECT_TRUE(ingested.IsIOError()) << ingested;
  EXPECT_FALSE(processor_->queues()->HasQueue("west_new"));
  EXPECT_EQ(*processor_->queues()->Depth("east_alerts", ""), 1u);
  const EventProcessor::Stats stats = processor_->GetStats();
  EXPECT_EQ(stats.route_failures, 2u);
  EXPECT_EQ(stats.routed_to_queues, 1u);
}

// A group whose commit applied but whose WAL sync failed is not a
// rollback. Staging it again event by event would stage every event
// twice; instead the error is returned and, after a reopen, each event
// is staged exactly once.
TEST_F(ProcessorTest, FailedSyncIsNotRestaged) {
  ASSERT_OK(processor_->queues()->CreateQueue("alerts"));
  ASSERT_OK(processor_->rules()->AddRule("all", "severity >= 0",
                                         "queue:alerts"));
  std::vector<Event> batch;
  for (int i = 1; i <= 3; ++i) {
    batch.push_back(MakeEvent("reading", i));
    batch.back().id = 100 + i;
  }
  failpoint::Action fault;
  fault.max_fires = 1;
  failpoint::Arm("wal.sync", fault);
  const Status ingested = processor_->IngestBatch(std::move(batch));
  failpoint::DisarmAll();
  EXPECT_TRUE(ingested.IsDurabilityUnknown()) << ingested;
  EXPECT_EQ(processor_->GetStats().route_failures, 3u);
  // AFTER triggers fired for the applied commit: no reopen needed to
  // see the messages.
  EXPECT_EQ(*processor_->queues()->Depth("alerts", ""), 3u);

  processor_.reset();
  SetUp();
  std::multiset<std::string> staged;
  DequeueRequest dq;
  for (;;) {
    auto msg = processor_->queues()->Dequeue("alerts", dq);
    ASSERT_OK(msg.status());
    if (!msg->has_value()) break;
    staged.insert((*msg)->correlation_id);
  }
  EXPECT_EQ(staged, (std::multiset<std::string>{"101", "102", "103"}));
}
#endif  // EDADB_FAILPOINTS_ENABLED

}  // namespace
}  // namespace edadb
