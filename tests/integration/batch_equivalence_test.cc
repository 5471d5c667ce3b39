// Property: the batch APIs are OBSERVABLY EQUIVALENT to the per-item
// loops they replace. Two identical stacks are driven with the same
// randomized inputs — one through Enqueue/Publish/Ingest loops, one
// through EnqueueBatch/PublishBatch/IngestBatch — and must end in the
// same state: same queue contents and message ids, same rule-match
// sequence, same per-subscriber delivery order, same drain order.
// Ingest and durable fan-out are also held to it across 1 and 4
// delivery shards.
// (The one intended difference: within an ingest batch, every rule
// handler runs before any action routing, so cross-channel
// interleaving is not compared — per-channel sequences are.)

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "core/processor.h"
#include "gtest/gtest.h"
#include "mq/queue_manager.h"
#include "mq/shard_router.h"
#include "pubsub/broker.h"
#include "test_util.h"
#include "testing/seeded_rng.h"

namespace edadb {
namespace {

// ---------------------------------------------------------------------
// Queue level: EnqueueBatch vs Enqueue loop, DequeueBatch vs Dequeue
// loop, byte-identical state.

struct QueueStack {
  TempDir dir;
  SimulatedClock clock;
  std::unique_ptr<Database> db;
  std::unique_ptr<QueueManager> queues;

  QueueStack() {
    DatabaseOptions options;
    options.dir = dir.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    options.clock = &clock;
    clock.SetMicros(kMicrosPerHour);
    db = *Database::Open(std::move(options));
    queues = *QueueManager::Attach(db.get());
  }
};

EnqueueRequest RandomRequest(Random* rng) {
  EnqueueRequest request;
  request.payload = rng->NextString(1 + rng->Uniform(40));
  request.priority = rng->UniformInt(0, 3);
  request.correlation_id = std::to_string(rng->Uniform(1000));
  if (rng->Uniform(2) == 0) {
    request.attributes = {{"severity", Value::Int64(rng->UniformInt(0, 9))}};
  }
  return request;
}

struct BrowseRow {
  MessageId id;
  std::string payload;
  int64_t priority;
  std::string correlation_id;

  bool operator==(const BrowseRow& other) const {
    return id == other.id && payload == other.payload &&
           priority == other.priority &&
           correlation_id == other.correlation_id;
  }
};

std::vector<BrowseRow> BrowseAll(QueueManager* queues,
                                 const std::string& queue) {
  std::vector<BrowseRow> rows;
  EXPECT_OK(queues->Browse(queue, "", [&](const Message& message) {
    rows.push_back(BrowseRow{message.id, message.payload, message.priority,
                             message.correlation_id});
    return true;
  }));
  return rows;
}

TEST(BatchEquivalenceTest, EnqueueBatchMatchesEnqueueLoop) {
  testing::SeededRng rng(/*stream=*/10);
  QueueStack loop_stack, batch_stack;
  ASSERT_OK(loop_stack.queues->CreateQueue("q"));
  ASSERT_OK(batch_stack.queues->CreateQueue("q"));

  for (int round = 0; round < 20; ++round) {
    const size_t batch = 1 + rng.Uniform(8);
    std::vector<EnqueueRequest> requests;
    for (size_t i = 0; i < batch; ++i) {
      requests.push_back(RandomRequest(&rng));
    }

    std::vector<MessageId> loop_ids;
    for (const EnqueueRequest& request : requests) {
      loop_ids.push_back(*loop_stack.queues->Enqueue("q", request));
    }
    const std::vector<MessageId> batch_ids =
        *batch_stack.queues->EnqueueBatch("q", requests);
    EXPECT_EQ(loop_ids, batch_ids) << "round " << round;
  }
  EXPECT_EQ(BrowseAll(loop_stack.queues.get(), "q"),
            BrowseAll(batch_stack.queues.get(), "q"));
}

TEST(BatchEquivalenceTest, DequeueBatchMatchesDequeueLoop) {
  testing::SeededRng rng(/*stream=*/11);
  QueueStack loop_stack, batch_stack;
  ASSERT_OK(loop_stack.queues->CreateQueue("q"));
  ASSERT_OK(batch_stack.queues->CreateQueue("q"));
  std::vector<EnqueueRequest> requests;
  for (int i = 0; i < 50; ++i) requests.push_back(RandomRequest(&rng));
  ASSERT_OK(loop_stack.queues->EnqueueBatch("q", requests).status());
  ASSERT_OK(batch_stack.queues->EnqueueBatch("q", requests).status());

  std::vector<std::string> loop_drained, batch_drained;
  while (true) {
    auto message = loop_stack.queues->Dequeue("q", DequeueRequest{});
    ASSERT_OK(message.status());
    if (!message->has_value()) break;
    loop_drained.push_back((*message)->payload);
    ASSERT_OK(loop_stack.queues->Ack("q", "", (*message)->id));
  }
  while (true) {
    auto messages =
        batch_stack.queues->DequeueBatch("q", DequeueRequest{}, 7);
    ASSERT_OK(messages.status());
    if (messages->empty()) break;
    for (const Message& message : *messages) {
      batch_drained.push_back(message.payload);
      ASSERT_OK(batch_stack.queues->Ack("q", "", message.id));
    }
  }
  EXPECT_EQ(loop_drained.size(), 50u);
  EXPECT_EQ(loop_drained, batch_drained);
}

// ---------------------------------------------------------------------
// Pipeline level: Ingest loop vs IngestBatch through a full processor
// (rules + queue routing).

struct PipelineStack {
  TempDir dir;
  SimulatedClock clock;
  std::unique_ptr<EventProcessor> processor;
  std::vector<std::string> matched_rules;   // Rule dispatch sequence.

  explicit PipelineStack(int shards) {
    clock.SetMicros(kMicrosPerHour);
    EventProcessorOptions options;
    options.data_dir = dir.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    options.clock = &clock;
    options.shards = shards;
    processor = *EventProcessor::Open(std::move(options));
    EXPECT_OK(processor->queues()->CreateQueue("alerts"));
    EXPECT_OK(processor->rules()->AddRule("critical", "severity >= 7",
                                          "queue:alerts", /*priority=*/2));
    EXPECT_OK(processor->rules()->AddRule("watch", "severity >= 4",
                                          "tag-only", /*priority=*/1));
    processor->rules()->RegisterDefaultHandler(
        [this](const Rule& rule, const RowAccessor&) {
          matched_rules.push_back(rule.id);
        });
  }

  std::vector<std::string> DrainAlerts() {
    std::vector<std::string> payloads;
    while (true) {
      auto message =
          processor->queues()->Dequeue("alerts", DequeueRequest{});
      EXPECT_OK(message.status());
      if (!message.ok() || !message->has_value()) break;
      payloads.push_back((*message)->payload);
      EXPECT_OK(processor->queues()->Ack("alerts", "", (*message)->id));
    }
    return payloads;
  }
};

Event RandomEvent(Random* rng, uint64_t id) {
  Event event;
  event.id = id;  // Explicit: the global id counter is process-wide.
  event.type = "type" + std::to_string(rng->Uniform(3));
  event.source = "src" + std::to_string(rng->Uniform(5));
  event.payload = rng->NextString(1 + rng->Uniform(30));
  event.Set("severity", Value::Int64(rng->UniformInt(0, 9)));
  return event;
}

void RunIngestEquivalence(int shards) {
  testing::SeededRng rng(/*stream=*/12);
  PipelineStack loop_stack(shards), batch_stack(shards);
  uint64_t next_id = 1;
  for (int round = 0; round < 15; ++round) {
    const size_t batch = 1 + rng.Uniform(6);
    std::vector<Event> events;
    for (size_t i = 0; i < batch; ++i) {
      events.push_back(RandomEvent(&rng, next_id++));
    }
    for (const Event& event : events) {
      ASSERT_OK(loop_stack.processor->Ingest(event));
    }
    ASSERT_OK(batch_stack.processor->IngestBatch(std::move(events)));
  }

  EXPECT_EQ(loop_stack.matched_rules, batch_stack.matched_rules);
  EXPECT_EQ(loop_stack.DrainAlerts(), batch_stack.DrainAlerts());

  const auto loop_stats = loop_stack.processor->GetStats();
  const auto batch_stats = batch_stack.processor->GetStats();
  EXPECT_EQ(loop_stats.ingested, batch_stats.ingested);
  EXPECT_EQ(loop_stats.rules_matched, batch_stats.rules_matched);
  EXPECT_EQ(loop_stats.routed_to_queues, batch_stats.routed_to_queues);
}

TEST(BatchEquivalenceTest, IngestBatchMatchesIngestLoopOneShard) {
  RunIngestEquivalence(/*shards=*/1);
}

TEST(BatchEquivalenceTest, IngestBatchMatchesIngestLoopFourShards) {
  RunIngestEquivalence(/*shards=*/4);
}

// IngestBatch stages every destination queue's events with one
// EnqueueFanout, one transaction per shard. Driven with 64-event
// batches over several destination queues (an event may match more
// than one), every queue must end up with the same messages, ids and
// attributes, in event order, as the per-event Ingest loop leaves.
void RunPerQueueOrder(int shards) {
  testing::SeededRng rng(/*stream=*/15);
  // PipelineStack already routes severity >= 7 to "alerts"; "urgent" is
  // created on first use by the route itself.
  const std::vector<std::string> queues = {"north", "south", "alerts",
                                           "urgent"};
  auto open_stack = [&](PipelineStack* stack) {
    RulesEngine* rules = stack->processor->rules();
    EXPECT_OK(stack->processor->queues()->CreateQueue("north"));
    EXPECT_OK(stack->processor->queues()->CreateQueue("south"));
    EXPECT_OK(rules->AddRule("north", "region = 'north'", "queue:north"));
    EXPECT_OK(rules->AddRule("south", "region = 'south'", "queue:south"));
    EXPECT_OK(rules->AddRule("urgent", "severity >= 8", "queue:urgent"));
  };
  PipelineStack loop_stack(shards), batch_stack(shards);
  open_stack(&loop_stack);
  open_stack(&batch_stack);
  if (shards > 1) {
    std::set<size_t> shards_used;
    for (const std::string& queue : queues) {
      shards_used.insert(batch_stack.processor->queues()->ShardOf(queue));
    }
    ASSERT_GT(shards_used.size(), 1u) << "every queue landed on one shard";
  }
  uint64_t next_id = 1;
  for (int round = 0; round < 4; ++round) {
    std::vector<Event> events;
    for (size_t i = 0; i < 64; ++i) {
      Event event = RandomEvent(&rng, next_id++);
      event.Set("region", Value::String(rng.Uniform(3) == 0 ? "south"
                                                            : "north"));
      events.push_back(std::move(event));
    }
    for (const Event& event : events) {
      ASSERT_OK(loop_stack.processor->Ingest(event));
    }
    ASSERT_OK(batch_stack.processor->IngestBatch(std::move(events)));
  }

  auto contents = [](PipelineStack* stack, const std::string& queue) {
    std::vector<std::string> rows;
    EXPECT_OK(stack->processor->queues()->Browse(
        queue, "", [&](const Message& message) {
          std::string attrs;
          EncodeAttributes(message.attributes, &attrs);
          rows.push_back(std::to_string(message.id) + "|" +
                         message.correlation_id + "|" + message.payload +
                         "|" + attrs);
          return true;
        }));
    return rows;
  };
  for (const std::string& queue : queues) {
    const std::vector<std::string> loop_rows = contents(&loop_stack, queue);
    EXPECT_FALSE(loop_rows.empty()) << queue;
    EXPECT_EQ(loop_rows, contents(&batch_stack, queue)) << queue;
  }
  EXPECT_EQ(loop_stack.processor->GetStats().routed_to_queues,
            batch_stack.processor->GetStats().routed_to_queues);
  EXPECT_EQ(batch_stack.processor->GetStats().route_failures, 0u);
}

TEST(BatchEquivalenceTest, IngestBatchStagesPerQueueInEventOrderOneShard) {
  RunPerQueueOrder(/*shards=*/1);
}

TEST(BatchEquivalenceTest, IngestBatchStagesPerQueueInEventOrderFourShards) {
  RunPerQueueOrder(/*shards=*/4);
}

// ---------------------------------------------------------------------
// Pubsub level: the live ring path vs the durable queue path. A ring
// subscriber that never falls behind must observe the EXACT event
// sequence the durable-queue subscriber acks — same events, same order
// — for both single-shot Publish and PublishBatch (DESIGN.md §13: the
// ring trades durability for latency, never ordering or content).

struct BrokerStack {
  TempDir dir;
  std::unique_ptr<Database> db;
  std::unique_ptr<QueueManager> queues;
  std::unique_ptr<Broker> broker;

  BrokerStack() {
    DatabaseOptions options;
    options.dir = dir.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    db = *Database::Open(std::move(options));
    queues = *QueueManager::Attach(db.get());
    // Ample ring: the live subscriber must never be lapped here.
    broker = *Broker::Attach(db.get(), queues.get(),
                             {.capacity = 1024, .slot_bytes = 1024});
  }
};

Publication RandomPublication(Random* rng, bool jobs_topic) {
  Publication pub;
  pub.topic = jobs_topic ? "jobs" : "noise/" + std::to_string(rng->Uniform(3));
  pub.payload = rng->NextString(1 + rng->Uniform(40));
  pub.attributes = {{"severity", Value::Int64(rng->UniformInt(0, 9))}};
  return pub;
}

std::string PubKey(const Publication& pub) {
  std::string encoded;
  EncodePublication(pub, &encoded);
  return encoded;
}

void RunRingVsDurableEquivalence(bool use_batch, uint64_t stream) {
  testing::SeededRng rng(stream);
  BrokerStack stack;

  SubscriptionSpec durable;
  durable.subscriber = "durable-jobs";
  durable.topic_pattern = "jobs";
  durable.durable = true;
  const std::string durable_id = *stack.broker->Subscribe(std::move(durable));

  auto live = stack.broker->SubscribeLive(
      {.subscriber = "live-jobs", .topic_pattern = "jobs", .content_filter = ""});
  ASSERT_OK(live.status());

  std::vector<std::string> published_jobs;  // Ground-truth order.
  for (int round = 0; round < 20; ++round) {
    const size_t batch = 1 + rng.Uniform(6);
    std::vector<Publication> pubs;
    for (size_t i = 0; i < batch; ++i) {
      pubs.push_back(RandomPublication(&rng, rng.Uniform(2) == 0));
    }
    for (const Publication& pub : pubs) {
      if (pub.topic == "jobs") published_jobs.push_back(PubKey(pub));
    }
    if (use_batch) {
      ASSERT_OK(stack.broker->PublishBatch(pubs).status());
    } else {
      for (const Publication& pub : pubs) {
        ASSERT_OK(stack.broker->Publish(pub).status());
      }
    }
  }

  // Live side: drain the ring (never behind: capacity >> published).
  std::vector<std::string> live_seen;
  std::vector<std::pair<uint64_t, Publication>> got;
  while ((*live)->Poll(64, &got) > 0) {
    for (auto& [seq, pub] : got) live_seen.push_back(PubKey(pub));
    got.clear();
  }
  EXPECT_EQ((*live)->missed(), 0u);
  EXPECT_EQ((*live)->lag(), 0u);

  // Durable side: fetch-and-ack to exhaustion.
  std::vector<std::string> durable_acked;
  while (true) {
    auto fetched = stack.broker->Fetch(durable_id);
    ASSERT_OK(fetched.status());
    if (!fetched->has_value()) break;
    durable_acked.push_back(PubKey(**fetched));
  }

  EXPECT_EQ(live_seen, durable_acked);
  EXPECT_EQ(live_seen, published_jobs);
}

TEST(BatchEquivalenceTest, RingSubscriberMatchesDurableAcksSingleShot) {
  RunRingVsDurableEquivalence(/*use_batch=*/false, /*stream=*/13);
}

TEST(BatchEquivalenceTest, RingSubscriberMatchesDurableAcksBatch) {
  RunRingVsDurableEquivalence(/*use_batch=*/true, /*stream=*/14);
}

// ---------------------------------------------------------------------
// Durable fan-out: PublishBatch stages every durable delivery of the
// batch with one EnqueueFanout, one transaction per shard. Every
// durable subscriber must fetch exactly the sequence a Publish loop
// leaves it, and the one its topic pattern and filter select, whether
// its queue shares a shard with the others or not.

constexpr int kFanoutSubs = 12;

/// Durable subscription i: topic "jobs", "noise/*" or any, with
/// `severity >= MinSeverity(i)`.
int MinSeverity(int i) { return i % 4 * 2; }

bool Selects(int i, const Publication& pub) {
  const bool topic = i % 3 == 0   ? pub.topic == "jobs"
                     : i % 3 == 1 ? pub.topic.rfind("noise/", 0) == 0
                                  : true;
  return topic && pub.attributes.at(0).second.int64_value() >= MinSeverity(i);
}

struct ShardedBrokerStack {
  TempDir dir;
  std::unique_ptr<Database> db;
  std::unique_ptr<ShardRouter> queues;
  std::unique_ptr<Broker> broker;
  std::vector<std::string> durable_ids;

  explicit ShardedBrokerStack(size_t shards) {
    DatabaseOptions options;
    options.dir = dir.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    db = *Database::Open(std::move(options));
    queues = *ShardRouter::Open(db.get(), shards);
    broker = *Broker::Attach(db.get(), queues.get());
    const char* patterns[] = {"jobs", "noise/*", ""};
    for (int i = 0; i < kFanoutSubs; ++i) {
      SubscriptionSpec spec;
      spec.subscriber = "durable-" + std::to_string(i);
      spec.topic_pattern = patterns[i % 3];
      spec.content_filter = "severity >= " + std::to_string(MinSeverity(i));
      spec.durable = true;
      durable_ids.push_back(*broker->Subscribe(std::move(spec)));
    }
  }

  std::vector<std::vector<std::string>> FetchAll() {
    std::vector<std::vector<std::string>> fetched;
    for (const std::string& id : durable_ids) {
      std::vector<std::string> seq;
      while (true) {
        auto pub = broker->Fetch(id);
        EXPECT_OK(pub.status());
        if (!pub.ok() || !pub->has_value()) break;
        seq.push_back(PubKey(**pub));
      }
      fetched.push_back(std::move(seq));
    }
    return fetched;
  }
};

void RunDurableFanoutEquivalence(size_t shards, uint64_t stream) {
  testing::SeededRng rng(stream);
  ShardedBrokerStack loop_stack(shards), batch_stack(shards);
  std::set<size_t> shards_used;
  for (const std::string& id : batch_stack.durable_ids) {
    shards_used.insert(batch_stack.queues->ShardOf("__sub_" + id));
  }
  if (shards > 1) {
    ASSERT_GT(shards_used.size(), 1u) << "every queue landed on one shard";
  }
  metrics::Counter* commits =
      metrics::Registry::Default()->GetCounter("db.commits");
  std::vector<std::vector<std::string>> want(kFanoutSubs);
  for (int round = 0; round < 10; ++round) {
    const size_t batch = 1 + rng.Uniform(8);
    std::vector<Publication> pubs;
    for (size_t i = 0; i < batch; ++i) {
      pubs.push_back(RandomPublication(&rng, rng.Uniform(2) == 0));
      for (int sub = 0; sub < kFanoutSubs; ++sub) {
        if (Selects(sub, pubs.back())) want[sub].push_back(PubKey(pubs.back()));
      }
    }
    size_t loop_delivered = 0;
    for (const Publication& pub : pubs) {
      loop_delivered += *loop_stack.broker->Publish(pub);
    }
    const uint64_t commits_before = commits->Value();
    auto batch_delivered = batch_stack.broker->PublishBatch(pubs);
    ASSERT_OK(batch_delivered.status());
    EXPECT_EQ(loop_delivered, *batch_delivered) << "round " << round;
    // One transaction per shard the batch's deliveries touch.
    EXPECT_LE(commits->Value() - commits_before, shards_used.size())
        << "round " << round;
  }
  for (const auto& seq : want) EXPECT_FALSE(seq.empty());
  EXPECT_EQ(loop_stack.FetchAll(), want);
  EXPECT_EQ(batch_stack.FetchAll(), want);
}

TEST(BatchEquivalenceTest, DurableFanoutMatchesPublishLoopOneShard) {
  RunDurableFanoutEquivalence(/*shards=*/1, /*stream=*/16);
}

TEST(BatchEquivalenceTest, DurableFanoutMatchesPublishLoopFourShards) {
  RunDurableFanoutEquivalence(/*shards=*/4, /*stream=*/17);
}

}  // namespace
}  // namespace edadb
