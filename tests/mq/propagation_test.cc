#include "mq/propagation.h"

#include <map>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "mq/queue_manager.h"
#include "mq/shard_router.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "testing/crash_harness.h"

namespace edadb {
namespace {

uint64_t Commits() {
  return metrics::Registry::Default()->GetCounter("db.commits")->Value();
}

class PropagationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_.SetMicros(kMicrosPerHour);
    Reopen();
    ASSERT_TRUE(queues_->CreateQueue("source").ok());
    ASSERT_TRUE(queues_->CreateQueue("dest").ok());
  }

  /// A process restart: the propagator's rules and the queues' leases
  /// are gone, the tables recovered.
  void Reopen() {
    propagator_.reset();
    queues_.reset();
    db_.reset();
    DatabaseOptions options;
    options.dir = dir_.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    options.clock = &clock_;
    db_ = *Database::Open(std::move(options));
    queues_ = *QueueManager::Attach(db_.get());
    propagator_ = std::make_unique<Propagator>(queues_.get());
  }

  /// The source's persisted delivery counts, in row order.
  std::vector<int64_t> SourceDeliveryCounts() {
    const QueryResult rows =
        *db_->Execute(QueryBuilder("__q_source_dlv").Build());
    std::vector<int64_t> counts;
    for (const Record& row : rows.rows) {
      counts.push_back(*row.Get("delivery_count")->AsInt64());
    }
    return counts;
  }

  EnqueueRequest Req(const std::string& payload, int64_t severity = 5) {
    EnqueueRequest request;
    request.payload = payload;
    request.attributes = {{"severity", Value::Int64(severity)}};
    return request;
  }

  TempDir dir_;
  SimulatedClock clock_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<QueueManager> queues_;
  std::unique_ptr<Propagator> propagator_;
};

TEST_F(PropagationTest, ForwardsBetweenQueues) {
  PropagationRule rule;
  rule.name = "fwd";
  rule.source_queue = "source";
  rule.destination_queue = "dest";
  ASSERT_OK(propagator_->AddRule(std::move(rule)));
  ASSERT_OK(queues_->Enqueue("source", Req("m1")).status());
  ASSERT_OK(queues_->Enqueue("source", Req("m2")).status());
  EXPECT_EQ(*propagator_->RunOnce(), 2u);
  DequeueRequest dq;
  EXPECT_EQ((*queues_->Dequeue("dest", dq))->payload, "m1");
  EXPECT_EQ((*queues_->Dequeue("dest", dq))->payload, "m2");
  EXPECT_FALSE(queues_->Dequeue("source", dq)->has_value());
  auto stats = *propagator_->GetStats("fwd");
  EXPECT_EQ(stats.forwarded, 2u);
}

TEST_F(PropagationTest, FilterDropsNonCritical) {
  PropagationRule rule;
  rule.name = "critical_only";
  rule.source_queue = "source";
  rule.destination_queue = "dest";
  rule.filter = *Predicate::Compile("severity >= 7");
  ASSERT_OK(propagator_->AddRule(std::move(rule)));
  ASSERT_OK(queues_->Enqueue("source", Req("noise", 2)).status());
  ASSERT_OK(queues_->Enqueue("source", Req("alert", 9)).status());
  EXPECT_EQ(*propagator_->RunOnce(), 1u);
  DequeueRequest dq;
  auto msg = *queues_->Dequeue("dest", dq);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "alert");
  auto stats = *propagator_->GetStats("critical_only");
  EXPECT_EQ(stats.dropped, 1u);
}

TEST_F(PropagationTest, TransformRewritesMessages) {
  PropagationRule rule;
  rule.name = "xform";
  rule.source_queue = "source";
  rule.destination_queue = "dest";
  rule.transform = [](const Message& message) {
    EnqueueRequest out;
    out.payload = "wrapped(" + message.payload + ")";
    out.priority = 9;
    return out;
  };
  ASSERT_OK(propagator_->AddRule(std::move(rule)));
  ASSERT_OK(queues_->Enqueue("source", Req("inner")).status());
  EXPECT_EQ(*propagator_->RunOnce(), 1u);
  DequeueRequest dq;
  auto msg = *queues_->Dequeue("dest", dq);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "wrapped(inner)");
  EXPECT_EQ(msg->priority, 9);
}

TEST_F(PropagationTest, DeliversToExternalService) {
  SimulatedExternalService service("gateway", {}, &clock_);
  PropagationRule rule;
  rule.name = "to_gateway";
  rule.source_queue = "source";
  rule.external = &service;
  ASSERT_OK(propagator_->AddRule(std::move(rule)));
  ASSERT_OK(queues_->Enqueue("source", Req("hello")).status());
  EXPECT_EQ(*propagator_->RunOnce(), 1u);
  EXPECT_EQ(service.delivered_count(), 1u);
  ASSERT_EQ(service.delivered().size(), 1u);
  EXPECT_EQ(service.delivered()[0].payload, "hello");
}

TEST_F(PropagationTest, ExternalFailureNacksAndRetries) {
  SimulatedExternalService::Options fail_options;
  fail_options.failure_probability = 1.0;
  SimulatedExternalService flaky("flaky", fail_options, &clock_);
  PropagationRule rule;
  rule.name = "to_flaky";
  rule.source_queue = "source";
  rule.external = &flaky;
  ASSERT_OK(propagator_->AddRule(std::move(rule)));
  ASSERT_OK(queues_->Enqueue("source", Req("stubborn")).status());
  EXPECT_EQ(*propagator_->RunOnce(), 0u);
  EXPECT_EQ((*propagator_->GetStats("to_flaky")).failed, 1u);
  // Message is redeliverable: still in the source queue after unlock.
  clock_.AdvanceMicros(31 * kMicrosPerSecond);
  EXPECT_EQ(*queues_->Depth("source", ""), 1u);
}

TEST_F(PropagationTest, MultiHopChain) {
  ASSERT_TRUE(queues_->CreateQueue("middle").ok());
  PropagationRule hop1;
  hop1.name = "hop1";
  hop1.source_queue = "source";
  hop1.destination_queue = "middle";
  PropagationRule hop2;
  hop2.name = "hop2";
  hop2.source_queue = "middle";
  hop2.destination_queue = "dest";
  ASSERT_OK(propagator_->AddRule(std::move(hop1)));
  ASSERT_OK(propagator_->AddRule(std::move(hop2)));
  ASSERT_OK(queues_->Enqueue("source", Req("traveler")).status());
  // Rules run alphabetically; one RunOnce can move through both hops.
  ASSERT_OK(propagator_->RunOnce().status());
  ASSERT_OK(propagator_->RunOnce().status());
  DequeueRequest dq;
  EXPECT_TRUE(queues_->Dequeue("dest", dq)->has_value());
}

TEST_F(PropagationTest, RuleValidation) {
  PropagationRule no_dest;
  no_dest.name = "bad";
  no_dest.source_queue = "source";
  EXPECT_TRUE(propagator_->AddRule(no_dest).IsInvalidArgument());

  SimulatedExternalService service("svc", {}, &clock_);
  PropagationRule both;
  both.name = "bad2";
  both.source_queue = "source";
  both.destination_queue = "dest";
  both.external = &service;
  EXPECT_TRUE(propagator_->AddRule(both).IsInvalidArgument());

  PropagationRule missing_source;
  missing_source.name = "bad3";
  missing_source.source_queue = "ghost";
  missing_source.destination_queue = "dest";
  EXPECT_TRUE(propagator_->AddRule(missing_source).IsNotFound());

  EXPECT_TRUE(propagator_->RemoveRule("ghost").IsNotFound());
}

TEST_F(PropagationTest, DedicatedConsumerGroupLeavesDefaultAlone) {
  // Propagation through its own group: a direct consumer of the default
  // group still sees the message... (source has explicit groups now, so
  // default "" is replaced; use another explicit group).
  ASSERT_OK(queues_->AddConsumerGroup("source", "app"));
  PropagationRule rule;
  rule.name = "fwd";
  rule.source_queue = "source";
  rule.source_group = "mirror";
  rule.destination_queue = "dest";
  ASSERT_OK(propagator_->AddRule(std::move(rule)));
  ASSERT_OK(queues_->Enqueue("source", Req("both")).status());
  EXPECT_EQ(*propagator_->RunOnce(), 1u);
  // The "app" group still has its copy.
  DequeueRequest app;
  app.group = "app";
  EXPECT_TRUE(queues_->Dequeue("source", app)->has_value());
}

TEST_F(PropagationTest, InjectedExternalFaultNacksWithoutTouchingService) {
  SimulatedExternalService service("gateway", {}, &clock_);
  PropagationRule rule;
  rule.name = "to_gateway";
  rule.source_queue = "source";
  rule.external = &service;
  ASSERT_OK(propagator_->AddRule(std::move(rule)));
  ASSERT_OK(queues_->Enqueue("source", Req("fragile")).status());

  // "mq.propagate.deliver" models the external endpoint dying (network
  // error / timeout) before the request reaches it.
  failpoint::Action fault;
  fault.max_fires = 1;
  failpoint::Arm("mq.propagate.deliver", fault);
  EXPECT_EQ(*propagator_->RunOnce(), 0u);
  failpoint::DisarmAll();

  // The failure never reached the simulated service, and the message
  // was nacked, not lost.
  EXPECT_EQ(service.delivered_count(), 0u);
  EXPECT_EQ((*propagator_->GetStats("to_gateway")).failed, 1u);

  // After the fault clears and the lock expires, delivery succeeds.
  clock_.AdvanceMicros(31 * kMicrosPerSecond);
  EXPECT_EQ(*propagator_->RunOnce(), 1u);
  ASSERT_EQ(service.delivered().size(), 1u);
  EXPECT_EQ(service.delivered()[0].payload, "fragile");
}

TEST_F(PropagationTest, InjectedExternalTimeoutUsesTimedOutStatus) {
  SimulatedExternalService service("gateway", {}, &clock_);
  PropagationRule rule;
  rule.name = "to_gateway";
  rule.source_queue = "source";
  rule.external = &service;
  ASSERT_OK(propagator_->AddRule(std::move(rule)));
  ASSERT_OK(queues_->Enqueue("source", Req("slow")).status());

  // An OK status in the armed action selects the injected-timeout
  // flavor (the site substitutes TimedOut for "no response").
  failpoint::Action fault;
  fault.status = Status::OK();
  fault.max_fires = 1;
  failpoint::Arm("mq.propagate.deliver", fault);
  EXPECT_EQ(*propagator_->RunOnce(), 0u);
  failpoint::DisarmAll();
  EXPECT_EQ(service.delivered_count(), 0u);
  EXPECT_EQ((*propagator_->GetStats("to_gateway")).failed, 1u);
}

TEST_F(PropagationTest, FilterDropsInsideABatch) {
  PropagationRule rule;
  rule.name = "critical_only";
  rule.source_queue = "source";
  rule.destination_queue = "dest";
  rule.filter = *Predicate::Compile("severity >= 7");
  ASSERT_OK(propagator_->AddRule(std::move(rule)));
  std::vector<EnqueueRequest> requests;
  for (int i = 0; i < 10; ++i) {
    requests.push_back(Req("m" + std::to_string(i), i % 2 == 0 ? 9 : 2));
  }
  ASSERT_OK(queues_->EnqueueBatch("source", requests).status());

  EXPECT_EQ(*propagator_->RunOnce(), 5u);
  const auto stats = *propagator_->GetStats("critical_only");
  EXPECT_EQ(stats.forwarded, 5u);
  EXPECT_EQ(stats.dropped, 5u);
  EXPECT_EQ(stats.failed, 0u);
  // Drops are consumed with the forwarded messages: the source is empty
  // for good, rows included.
  clock_.AdvanceMicros(31 * kMicrosPerSecond);
  EXPECT_EQ(*queues_->Depth("source", ""), 0u);
  EXPECT_EQ(*db_->CountRows("__q_source_msgs"), 0u);
  DequeueRequest dq;
  for (int i = 0; i < 10; i += 2) {
    auto msg = *queues_->Dequeue("dest", dq);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->payload, "m" + std::to_string(i));
  }
  EXPECT_FALSE(queues_->Dequeue("dest", dq)->has_value());
}

/// Fails the first delivery of one payload, accepts everything else.
class FlakyOnce : public ExternalService {
 public:
  explicit FlakyOnce(std::string fail_payload)
      : fail_payload_(std::move(fail_payload)) {}
  const std::string& name() const override { return name_; }
  Status Deliver(const Message& message) override {
    if (message.payload == fail_payload_ && !failed_) {
      failed_ = true;
      return Status::TimedOut("gateway hiccup");
    }
    received.push_back(message);
    return Status::OK();
  }
  std::vector<Message> received;

 private:
  const std::string name_ = "flaky-once";
  const std::string fail_payload_;
  bool failed_ = false;
};

TEST_F(PropagationTest, MidBatchFailureChargesOnlyWhatWasTried) {
  FlakyOnce gateway("m3");
  PropagationRule rule;
  rule.name = "to_gateway";
  rule.source_queue = "source";
  rule.external = &gateway;
  ASSERT_OK(propagator_->AddRule(std::move(rule)));
  std::vector<EnqueueRequest> requests;
  for (int i = 0; i < 6; ++i) requests.push_back(Req("m" + std::to_string(i)));
  ASSERT_OK(queues_->EnqueueBatch("source", requests).status());

  // m0..m2 arrive, m3 fails, m4 and m5 are never tried. The lease writes
  // nothing, so the batch costs its one settle commit.
  metrics::Counter* commits =
      metrics::Registry::Default()->GetCounter("db.commits");
  const uint64_t commits_before = commits->Value();
  EXPECT_EQ(*propagator_->RunOnce(), 3u);
  EXPECT_EQ(commits->Value() - commits_before, 1u);
  auto stats = *propagator_->GetStats("to_gateway");
  EXPECT_EQ(stats.forwarded, 3u);
  EXPECT_EQ(stats.failed, 1u);
  ASSERT_EQ(gateway.received.size(), 3u);
  // The delivered prefix is acked; m3..m5 are deliverable right away.
  EXPECT_EQ(*queues_->Depth("source", ""), 3u);

  // Next pump: m3 comes back charged with its failed attempt, m4 and m5
  // uncharged, and nothing from the prefix is delivered again.
  EXPECT_EQ(*propagator_->RunOnce(), 3u);
  ASSERT_EQ(gateway.received.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(gateway.received[static_cast<size_t>(i)].payload,
              "m" + std::to_string(i));
  }
  EXPECT_EQ(gateway.received[3].delivery_count, 2);
  EXPECT_EQ(gateway.received[4].delivery_count, 1);
  EXPECT_EQ(gateway.received[5].delivery_count, 1);
  clock_.AdvanceMicros(31 * kMicrosPerSecond);
  EXPECT_EQ(*propagator_->RunOnce(), 0u);
  EXPECT_EQ(gateway.received.size(), 6u);
  EXPECT_EQ(*db_->CountRows("__q_source_msgs"), 0u);
}

// A same-shard hop is one commit: the settle that consumes the leased
// batch stages its destination messages in the same transaction. When
// that commit applies nothing, each message is settled with its own
// forward, and none arrives twice.
TEST_F(PropagationTest, SameShardHopIsOneCommit) {
  PropagationRule rule;
  rule.name = "fwd";
  rule.source_queue = "source";
  rule.destination_queue = "dest";
  ASSERT_OK(propagator_->AddRule(std::move(rule)));
  std::vector<EnqueueRequest> requests;
  for (int i = 0; i < 5; ++i) requests.push_back(Req("m" + std::to_string(i)));
  ASSERT_OK(queues_->EnqueueBatch("source", requests).status());
  metrics::Counter* enqueued =
      metrics::Registry::Default()->GetCounter("mq.enqueued");
  const uint64_t enqueued_before = enqueued->Value();
  uint64_t commits_before = Commits();
  EXPECT_EQ(*propagator_->RunOnce(), 5u);
  EXPECT_EQ(Commits() - commits_before, 1u);
  EXPECT_EQ(enqueued->Value() - enqueued_before, 5u);
  EXPECT_EQ(*db_->CountRows("__q_source_msgs"), 0u);
  EXPECT_EQ(*queues_->Depth("dest", ""), 5u);

#if EDADB_FAILPOINTS_ENABLED
  ASSERT_OK(queues_->EnqueueBatch("source", requests).status());
  {
    testing::FailpointGuard guard;
    testing::ArmError("db.commit.before_wal");
    commits_before = Commits();
    EXPECT_EQ(*propagator_->RunOnce(), 5u);
    EXPECT_EQ(Commits() - commits_before, 5u);
  }
  EXPECT_EQ(*db_->CountRows("__q_source_msgs"), 0u);
  EXPECT_EQ(*db_->CountRows("__q_dest_msgs"), 10u);
#endif  // EDADB_FAILPOINTS_ENABLED
}

// An external hop delivers the leased batch, then makes one commit.
TEST_F(PropagationTest, ExternalHopIsOneCommit) {
  SimulatedExternalService gateway("gateway", {}, &clock_);
  PropagationRule rule;
  rule.name = "to_gateway";
  rule.source_queue = "source";
  rule.external = &gateway;
  ASSERT_OK(propagator_->AddRule(std::move(rule)));
  std::vector<EnqueueRequest> requests;
  for (int i = 0; i < 5; ++i) requests.push_back(Req("m" + std::to_string(i)));
  ASSERT_OK(queues_->EnqueueBatch("source", requests).status());
  const uint64_t commits_before = Commits();
  EXPECT_EQ(*propagator_->RunOnce(), 5u);
  EXPECT_EQ(Commits() - commits_before, 1u);
  EXPECT_EQ(gateway.delivered_count(), 5u);
  EXPECT_EQ(*db_->CountRows("__q_source_msgs"), 0u);
}

#if EDADB_FAILPOINTS_ENABLED
// The crash-loop decision (DESIGN.md §7): a process that crashes while
// it holds a lease is not charged, so a crash loop neither spends
// max_deliveries nor loses the message. A delivery that fails and
// returns is nacked, and charged, as before.
TEST_F(PropagationTest, CrashLoopingDeliveryIsNeitherChargedNorLost) {
  testing::FailpointGuard guard;
  SimulatedExternalService gateway("gateway", {}, &clock_);
  const auto add_rule = [&] {
    PropagationRule rule;
    rule.name = "to_gateway";
    rule.source_queue = "source";
    rule.external = &gateway;
    ASSERT_OK(propagator_->AddRule(std::move(rule)));
  };
  add_rule();
  ASSERT_OK(queues_->Enqueue("source", Req("fragile")).status());
  for (int crash = 0; crash < 3; ++crash) {
    testing::ArmCrash("mq.propagate.deliver");
    bool crashed = false;
    try {
      EDADB_IGNORE_STATUS(propagator_->RunOnce().status(),
                          "the armed crash fires before RunOnce returns");
    } catch (const testing::SimulatedCrash&) {
      crashed = true;
    }
    EXPECT_TRUE(crashed) << "crash " << crash;
    failpoint::DisarmAll();
    Reopen();
    add_rule();
    // Still at the source, ready at once, and never charged.
    EXPECT_EQ(*queues_->Depth("source", ""), 1u);
    EXPECT_EQ(SourceDeliveryCounts(), std::vector<int64_t>{0});
  }
  EXPECT_EQ(*propagator_->RunOnce(), 1u);
  ASSERT_EQ(gateway.delivered().size(), 1u);
  EXPECT_EQ(gateway.delivered()[0].payload, "fragile");
  EXPECT_EQ(gateway.delivered()[0].delivery_count, 1);
  clock_.AdvanceMicros(31 * kMicrosPerSecond);
  EXPECT_EQ(*propagator_->RunOnce(), 0u);
  EXPECT_EQ(gateway.delivered_count(), 1u);
  EXPECT_EQ(*db_->CountRows("__q_source_msgs"), 0u);
}
#endif  // EDADB_FAILPOINTS_ENABLED

// The forwarded batch's commit applied but its WAL sync failed. That is
// not a rollback, so the batch is not staged again message by message:
// the destination holds exactly one copy of each.
TEST_F(PropagationTest, FailedSyncOnForwardedBatchMovesItOnce) {
  PropagationRule rule;
  rule.name = "fwd";
  rule.source_queue = "source";
  rule.destination_queue = "dest";
  ASSERT_OK(propagator_->AddRule(std::move(rule)));
  std::vector<EnqueueRequest> requests;
  for (int i = 0; i < 3; ++i) requests.push_back(Req("m" + std::to_string(i)));
  ASSERT_OK(queues_->EnqueueBatch("source", requests).status());

  // The hop is one commit, the settle that stages the destination
  // batch, so its sync is the only one and the one that fails.
  failpoint::ResetHitCounts();
  failpoint::Action fault;
  fault.max_fires = 1;
  failpoint::Arm("wal.sync", fault);
  EXPECT_EQ(*propagator_->RunOnce(), 3u);
#if EDADB_FAILPOINTS_ENABLED
  EXPECT_EQ(failpoint::HitCount("wal.sync"), 1u);
#endif
  failpoint::DisarmAll();

  EXPECT_EQ(*db_->CountRows("__q_dest_msgs"), 3u);
  DequeueRequest dq;
  for (int i = 0; i < 3; ++i) {
    auto msg = *queues_->Dequeue("dest", dq);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->payload, "m" + std::to_string(i));
  }
  EXPECT_FALSE(queues_->Dequeue("dest", dq)->has_value());
  EXPECT_EQ(*db_->CountRows("__q_source_msgs"), 0u);
}

// A cross-shard batch in which one handoff key is already consumed (the
// replay after a crash between the destination commit and the source
// ack): the batch falls back key by key and exactly one copy of every
// message reaches the destination.
TEST(PropagationShardTest, ConsumedDedupKeyInBatchDeliversExactlyOnce) {
  TempDir dir;
  SimulatedClock clock(kMicrosPerHour);
  DatabaseOptions options;
  options.dir = dir.path();
  options.wal_sync_policy = WalSyncPolicy::kNever;
  options.clock = &clock;
  auto db = *Database::Open(std::move(options));
  auto router = *ShardRouter::Open(db.get(), 2);
  auto name_on = [&](size_t shard, const std::string& stem) {
    for (int i = 0;; ++i) {
      const std::string name = stem + std::to_string(i);
      if (router->HashShard(name) == shard) return name;
    }
  };
  const std::string src = name_on(0, "src");
  const std::string dst = name_on(1, "dst");
  ASSERT_OK(router->CreateQueue(src));
  ASSERT_OK(router->CreateQueue(dst));
  Propagator propagator(router.get());
  PropagationRule rule;
  rule.name = "handoff";
  rule.source_queue = src;
  rule.destination_queue = dst;
  ASSERT_OK(propagator.AddRule(std::move(rule)));

  std::vector<MessageId> ids;
  for (int i = 0; i < 5; ++i) {
    EnqueueRequest request;
    request.payload = "m" + std::to_string(i);
    ids.push_back(*router->Enqueue(src, request));
  }
  // m2's handoff already committed on the destination.
  EnqueueRequest replayed;
  replayed.payload = "m2";
  ASSERT_TRUE(router
                  ->EnqueueDedup(dst, replayed,
                                 "handoff\x01" + std::to_string(ids[2]))
                  ->has_value());

  EXPECT_EQ(*propagator.RunOnce(), 5u);
  std::map<std::string, int> copies;
  DequeueRequest dq;
  for (;;) {
    auto msg = *router->Dequeue(dst, dq);
    if (!msg.has_value()) break;
    ++copies[msg->payload];
    ASSERT_OK(router->Ack(dst, "", msg->id));
  }
  ASSERT_EQ(copies.size(), 5u);
  for (const auto& [payload, n] : copies) {
    EXPECT_EQ(n, 1) << payload << " arrived " << n << " times";
  }
  EXPECT_EQ(*router->Depth(src, ""), 0u);
  clock.AdvanceMicros(31 * kMicrosPerSecond);
  EXPECT_EQ(*router->Depth(src, ""), 0u);
}

/// A two-shard router over a fresh directory.
struct TwoShards {
  explicit TwoShards(WalSyncPolicy sync_policy = WalSyncPolicy::kNever) {
    DatabaseOptions options;
    options.dir = dir.path();
    options.wal_sync_policy = sync_policy;
    options.clock = &clock;
    db = *Database::Open(std::move(options));
    router = *ShardRouter::Open(db.get(), 2);
  }

  /// A queue name that hashes to `shard`.
  std::string NameOn(size_t shard, const std::string& stem) const {
    for (int i = 0;; ++i) {
      const std::string name = stem + std::to_string(i);
      if (router->HashShard(name) == shard) return name;
    }
  }

  size_t MsgRows(const std::string& queue) const {
    return *router->shard_db(router->ShardOf(queue))
                ->CountRows("__q_" + queue + "_msgs");
  }

  TempDir dir;
  SimulatedClock clock{kMicrosPerHour};
  std::unique_ptr<Database> db;
  std::unique_ptr<ShardRouter> router;
};

// Commits per hop, as db.commits deltas over both shards: a same-shard
// hop is its one settle; a cross-shard hop is the destination's
// EnqueueDedupBatch, then that settle.
TEST(PropagationShardTest, HopCommitsOncePerPipeline) {
  TwoShards shards;
  ShardRouter* router = shards.router.get();
  const std::string src = shards.NameOn(0, "src");
  const std::string near = shards.NameOn(0, "near");
  const std::string far = shards.NameOn(1, "far");
  for (const std::string& queue : {src, near, far}) {
    ASSERT_OK(router->CreateQueue(queue));
  }
  // One source group per hop, each pumped by its own propagator.
  Propagator local(router);
  Propagator remote(router);
  PropagationRule to_near;
  to_near.name = "local";
  to_near.source_queue = src;
  to_near.source_group = "near";
  to_near.destination_queue = near;
  ASSERT_OK(local.AddRule(std::move(to_near)));
  PropagationRule to_far;
  to_far.name = "remote";
  to_far.source_queue = src;
  to_far.source_group = "far";
  to_far.destination_queue = far;
  ASSERT_OK(remote.AddRule(std::move(to_far)));
  std::vector<EnqueueRequest> requests(5);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].payload = "m" + std::to_string(i);
  }
  ASSERT_OK(router->EnqueueBatch(src, requests).status());

  uint64_t commits_before = Commits();
  EXPECT_EQ(*local.RunOnce(), 5u);
  EXPECT_EQ(Commits() - commits_before, 1u);
  commits_before = Commits();
  EXPECT_EQ(*remote.RunOnce(), 5u);
  EXPECT_EQ(Commits() - commits_before, 2u);
  EXPECT_EQ(*router->Depth(near, ""), 5u);
  EXPECT_EQ(*router->Depth(far, ""), 5u);
  EXPECT_EQ(shards.MsgRows(src), 0u);
}

// A forward stays in the settled queue's commit pipeline: one to a
// queue on another shard is InvalidArgument, one to no queue NotFound,
// and neither writes anything.
TEST(PropagationShardTest, SettleForwardsOnlyWithinItsShard) {
  TwoShards shards;
  ShardRouter* router = shards.router.get();
  const std::string src = shards.NameOn(0, "src");
  const std::string far = shards.NameOn(1, "far");
  ASSERT_OK(router->CreateQueue(src));
  ASSERT_OK(router->CreateQueue(far));
  EnqueueRequest request;
  request.payload = "m";
  const MessageId id = *router->Enqueue(src, request);
  DequeueRequest lease;
  lease.lease = true;
  ASSERT_EQ(router->DequeueBatch(src, lease, 1)->size(), 1u);

  const uint64_t commits_before = Commits();
  EXPECT_TRUE(router
                  ->Settle(src, "",
                           {.acked = {&id, 1},
                            .forward_to = far,
                            .forwarded = {&request, 1}})
                  .IsInvalidArgument());
  EXPECT_TRUE(router
                  ->Settle(src, "",
                           {.acked = {&id, 1},
                            .forward_to = "ghost",
                            .forwarded = {&request, 1}})
                  .IsNotFound());
  EXPECT_EQ(Commits(), commits_before);
  EXPECT_EQ(shards.MsgRows(far), 0u);
  // The lease is still held, so the ack finds it.
  ASSERT_OK(router->Ack(src, "", id));
  EXPECT_EQ(shards.MsgRows(src), 0u);
}

#if EDADB_FAILPOINTS_ENABLED
// A cross-shard handoff whose destination commit applied but did not
// sync is released at the source, not finished: the source's sync does
// not cover the destination's WAL. The next pump finds its key
// consumed, makes the destination durable and finishes the message.
TEST(PropagationShardTest, DurabilityUnknownHandoffFinishesOnceDurable) {
  testing::FailpointGuard guard;
  TwoShards shards(WalSyncPolicy::kOnCommit);
  ShardRouter* router = shards.router.get();
  const std::string src = shards.NameOn(0, "src");
  const std::string dst = shards.NameOn(1, "dst");
  ASSERT_OK(router->CreateQueue(src));
  ASSERT_OK(router->CreateQueue(dst));
  Propagator propagator(router);
  PropagationRule rule;
  rule.name = "handoff";
  rule.source_queue = src;
  rule.destination_queue = dst;
  ASSERT_OK(propagator.AddRule(std::move(rule)));
  EnqueueRequest request;
  request.payload = "m";
  ASSERT_OK(router->Enqueue(src, request).status());

  // The lease writes nothing, so the first sync is the destination's.
  testing::ArmError("wal.sync");
  Result<size_t> moved = propagator.RunOnce();
  ASSERT_OK(moved.status());
  EXPECT_EQ(*moved, 0u);
  failpoint::DisarmAll();
  EXPECT_EQ(shards.MsgRows(dst), 1u);
  // Released, not finished: ready again with no clock advance.
  EXPECT_EQ(*router->Depth(src, ""), 1u);

  moved = propagator.RunOnce();
  ASSERT_OK(moved.status());
  EXPECT_EQ(*moved, 1u);
  EXPECT_EQ(shards.MsgRows(src), 0u);
  EXPECT_EQ(shards.MsgRows(dst), 1u);
}
#endif  // EDADB_FAILPOINTS_ENABLED

}  // namespace
}  // namespace edadb
