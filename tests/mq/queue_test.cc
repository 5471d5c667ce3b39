#include "mq/queue_manager.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "common/metrics.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "testing/sleep.h"

namespace edadb {
namespace {

class QueueTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.dir = dir_.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    options.clock = &clock_;
    clock_.SetMicros(kMicrosPerHour);  // Away from zero.
    db_ = *Database::Open(std::move(options));
    queues_ = *QueueManager::Attach(db_.get());
  }

  EnqueueRequest Req(const std::string& payload, int64_t priority = 0) {
    EnqueueRequest request;
    request.payload = payload;
    request.priority = priority;
    return request;
  }

  static uint64_t Commits() {
    return metrics::Registry::Default()->GetCounter("db.commits")->Value();
  }

  /// A process restart: in-memory leases are gone, the tables recovered.
  void Reopen() {
    queues_.reset();
    db_.reset();
    DatabaseOptions options;
    options.dir = dir_.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    options.clock = &clock_;
    db_ = *Database::Open(std::move(options));
    queues_ = *QueueManager::Attach(db_.get());
  }

  static DequeueRequest Lease() {
    DequeueRequest request;
    request.lease = true;
    return request;
  }

  TempDir dir_;
  SimulatedClock clock_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<QueueManager> queues_;
};

TEST_F(QueueTest, CreateListDrop) {
  ASSERT_OK(queues_->CreateQueue("orders"));
  EXPECT_TRUE(queues_->HasQueue("orders"));
  EXPECT_TRUE(queues_->CreateQueue("orders").IsAlreadyExists());
  EXPECT_EQ(queues_->ListQueues(), (std::vector<std::string>{"orders"}));
  ASSERT_OK(queues_->DropQueue("orders"));
  EXPECT_FALSE(queues_->HasQueue("orders"));
  EXPECT_TRUE(queues_->DropQueue("orders").IsNotFound());
  EXPECT_TRUE(queues_->CreateQueue("").IsInvalidArgument());
}

// A dropped queue leaves its name free: the re-created queue delivers
// what it is given, and nothing the dropped one held.
TEST_F(QueueTest, DroppedQueueNameCanBeCreatedAgainAndDelivers) {
  ASSERT_OK(queues_->CreateQueue("orders"));
  ASSERT_OK(queues_->Enqueue("orders", Req("dropped")).status());
  ASSERT_OK(queues_->DropQueue("orders"));
  EXPECT_FALSE(queues_->HasQueue("orders"));
  ASSERT_OK(queues_->CreateQueue("orders"));
  ASSERT_OK(queues_->Enqueue("orders", Req("still works")).status());
  DequeueRequest dq;
  auto msg = *queues_->Dequeue("orders", dq);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "still works");
  EXPECT_FALSE(queues_->Dequeue("orders", dq)->has_value());
}

// The runtime follows the manager's own commits: queue tables carry no
// triggers, so their rows fire nothing at commit.
TEST_F(QueueTest, QueuesRegisterNoTriggers) {
  QueueCreateOptions options;
  options.dead_letter_queue = "dlq";
  ASSERT_OK(queues_->CreateQueue("dlq"));
  ASSERT_OK(queues_->CreateQueue("orders", options));
  ASSERT_OK(queues_->AddConsumerGroup("orders", "billing"));
  ASSERT_OK(queues_->Enqueue("orders", Req("x")).status());
  EXPECT_TRUE(db_->ListTriggers().empty());
}

TEST_F(QueueTest, FifoWithinSamePriority) {
  ASSERT_OK(queues_->CreateQueue("q"));
  ASSERT_OK(queues_->Enqueue("q", Req("first")).status());
  ASSERT_OK(queues_->Enqueue("q", Req("second")).status());
  DequeueRequest dq;
  auto m1 = *queues_->Dequeue("q", dq);
  auto m2 = *queues_->Dequeue("q", dq);
  ASSERT_TRUE(m1.has_value() && m2.has_value());
  EXPECT_EQ(m1->payload, "first");
  EXPECT_EQ(m2->payload, "second");
  EXPECT_FALSE(queues_->Dequeue("q", dq)->has_value());
}

TEST_F(QueueTest, PriorityOrdering) {
  ASSERT_OK(queues_->CreateQueue("q"));
  ASSERT_OK(queues_->Enqueue("q", Req("low", 1)).status());
  ASSERT_OK(queues_->Enqueue("q", Req("high", 9)).status());
  ASSERT_OK(queues_->Enqueue("q", Req("mid", 5)).status());
  DequeueRequest dq;
  EXPECT_EQ((*queues_->Dequeue("q", dq))->payload, "high");
  EXPECT_EQ((*queues_->Dequeue("q", dq))->payload, "mid");
  EXPECT_EQ((*queues_->Dequeue("q", dq))->payload, "low");
}

TEST_F(QueueTest, AckRemovesMessage) {
  ASSERT_OK(queues_->CreateQueue("q"));
  const MessageId id = *queues_->Enqueue("q", Req("x"));
  DequeueRequest dq;
  auto msg = *queues_->Dequeue("q", dq);
  ASSERT_TRUE(msg.has_value());
  ASSERT_OK(queues_->Ack("q", "", id));
  // Message row is gone.
  EXPECT_TRUE(queues_->Peek("q", id).status().IsNotFound());
  EXPECT_TRUE(queues_->Ack("q", "", id).IsNotFound());
}

// Browse's callback runs outside the manager's lock: it may read,
// enqueue and consume, and sees the snapshot taken before it ran.
TEST_F(QueueTest, BrowseCallbackMayCallTheManager) {
  ASSERT_OK(queues_->CreateQueue("q"));
  ASSERT_OK(queues_->Enqueue("q", Req("a", 1)).status());
  ASSERT_OK(queues_->Enqueue("q", Req("b")).status());
  std::vector<std::string> seen;
  ASSERT_OK(queues_->Browse("q", "", [&](const Message& message) {
    seen.push_back(message.payload);
    EXPECT_EQ(queues_->Peek("q", message.id)->payload, message.payload);
    EXPECT_OK(queues_->Enqueue("q", Req("added")).status());
    DequeueRequest dq;
    dq.remove = true;
    EXPECT_TRUE(queues_->Dequeue("q", dq)->has_value());
    return true;
  }));
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(*queues_->Depth("q", ""), 2u);
}

TEST_F(QueueTest, VisibilityTimeoutRedelivers) {
  QueueCreateOptions options;
  options.visibility_timeout_micros = 10 * kMicrosPerSecond;
  ASSERT_OK(queues_->CreateQueue("q", options));
  ASSERT_OK(queues_->Enqueue("q", Req("x")).status());
  DequeueRequest dq;
  auto first = *queues_->Dequeue("q", dq);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->delivery_count, 1);
  // Locked: no redelivery yet.
  EXPECT_FALSE(queues_->Dequeue("q", dq)->has_value());
  // After the visibility timeout it returns.
  clock_.AdvanceMicros(11 * kMicrosPerSecond);
  auto second = *queues_->Dequeue("q", dq);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->payload, "x");
  EXPECT_EQ(second->delivery_count, 2);
}

TEST_F(QueueTest, NackMakesAvailableAgain) {
  ASSERT_OK(queues_->CreateQueue("q"));
  const MessageId id = *queues_->Enqueue("q", Req("retry me"));
  DequeueRequest dq;
  ASSERT_TRUE((*queues_->Dequeue("q", dq)).has_value());
  ASSERT_OK(queues_->Nack("q", "", id));
  auto again = *queues_->Dequeue("q", dq);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->delivery_count, 2);
}

TEST_F(QueueTest, NackWithDelayDefersRedelivery) {
  ASSERT_OK(queues_->CreateQueue("q"));
  const MessageId id = *queues_->Enqueue("q", Req("later"));
  DequeueRequest dq;
  ASSERT_TRUE((*queues_->Dequeue("q", dq)).has_value());
  ASSERT_OK(queues_->Nack("q", "", id, 5 * kMicrosPerSecond));
  EXPECT_FALSE(queues_->Dequeue("q", dq)->has_value());
  clock_.AdvanceMicros(6 * kMicrosPerSecond);
  EXPECT_TRUE(queues_->Dequeue("q", dq)->has_value());
}

// A nack that arrives after its lock lapsed, and after a dequeue that
// took nothing put the message back in ready, moves it out of ready:
// the message waits out the nack's delay and is then delivered once.
TEST_F(QueueTest, StaleNackAfterPromotionDeliversOnce) {
  QueueCreateOptions options;
  options.visibility_timeout_micros = 60 * kMicrosPerSecond;
  ASSERT_OK(queues_->CreateQueue("q", options));
  const MessageId id = *queues_->Enqueue("q", Req("m"));
  DequeueRequest dq;
  ASSERT_TRUE(queues_->Dequeue("q", dq)->has_value());  // A takes m.
  clock_.AdvanceMicros(61 * kMicrosPerSecond);           // A's lock lapses.
  EXPECT_TRUE(queues_->DequeueBatch("q", dq, 0)->empty());
  ASSERT_OK(queues_->Nack("q", "", id, kMicrosPerSecond));  // A, late.
  EXPECT_FALSE(queues_->Dequeue("q", dq)->has_value());     // B.
  clock_.AdvanceMicros(2 * kMicrosPerSecond);
  auto c = *queues_->Dequeue("q", dq);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->id, id);
  EXPECT_FALSE(queues_->Dequeue("q", dq)->has_value());  // C holds m.
}

// A second nack of a message that is not locked reschedules it: the
// later delay holds, and the earlier one leaves no second entry behind.
TEST_F(QueueTest, RepeatedDelayedNackDeliversOnce) {
  QueueCreateOptions options;
  options.visibility_timeout_micros = 60 * kMicrosPerSecond;
  ASSERT_OK(queues_->CreateQueue("q", options));
  const MessageId id = *queues_->Enqueue("q", Req("m"));
  DequeueRequest dq;
  ASSERT_TRUE(queues_->Dequeue("q", dq)->has_value());
  ASSERT_OK(queues_->Nack("q", "", id, kMicrosPerSecond));
  ASSERT_OK(queues_->Nack("q", "", id, 5 * kMicrosPerSecond));
  clock_.AdvanceMicros(2 * kMicrosPerSecond);
  EXPECT_FALSE(queues_->Dequeue("q", dq)->has_value());
  clock_.AdvanceMicros(4 * kMicrosPerSecond);
  auto c = *queues_->Dequeue("q", dq);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->id, id);
  EXPECT_FALSE(queues_->Dequeue("q", dq)->has_value());
}

TEST_F(QueueTest, DelayedEnqueueInvisibleUntilDue) {
  ASSERT_OK(queues_->CreateQueue("q"));
  EnqueueRequest request = Req("scheduled");
  request.delay_micros = 30 * kMicrosPerSecond;
  ASSERT_OK(queues_->Enqueue("q", request).status());
  DequeueRequest dq;
  EXPECT_FALSE(queues_->Dequeue("q", dq)->has_value());
  EXPECT_EQ(*queues_->Depth("q", ""), 0u);
  clock_.AdvanceMicros(31 * kMicrosPerSecond);
  EXPECT_EQ(*queues_->Depth("q", ""), 1u);
  EXPECT_TRUE(queues_->Dequeue("q", dq)->has_value());
}

TEST_F(QueueTest, SelectorFiltersByAttributes) {
  ASSERT_OK(queues_->CreateQueue("q"));
  EnqueueRequest east = Req("east order");
  east.attributes = {{"region", Value::String("east")},
                     {"severity", Value::Int64(2)}};
  EnqueueRequest west = Req("west order");
  west.attributes = {{"region", Value::String("west")},
                     {"severity", Value::Int64(8)}};
  ASSERT_OK(queues_->Enqueue("q", east).status());
  ASSERT_OK(queues_->Enqueue("q", west).status());
  DequeueRequest dq;
  dq.selector = *Predicate::Compile("region = 'west' AND severity > 5");
  auto msg = *queues_->Dequeue("q", dq);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "west order");
  // Nothing else matches; the east message stays queued for others.
  EXPECT_FALSE(queues_->Dequeue("q", dq)->has_value());
  DequeueRequest all;
  EXPECT_TRUE(queues_->Dequeue("q", all)->has_value());
}

TEST_F(QueueTest, SelectorSeesBuiltinAttributes) {
  ASSERT_OK(queues_->CreateQueue("q"));
  EnqueueRequest request = Req("prio", 7);
  request.correlation_id = "corr-1";
  ASSERT_OK(queues_->Enqueue("q", request).status());
  DequeueRequest dq;
  dq.selector =
      *Predicate::Compile("priority = 7 AND correlation_id = 'corr-1'");
  EXPECT_TRUE(queues_->Dequeue("q", dq)->has_value());
}

TEST_F(QueueTest, ConsumerGroupsEachGetACopy) {
  ASSERT_OK(queues_->CreateQueue("q"));
  ASSERT_OK(queues_->AddConsumerGroup("q", "billing"));
  ASSERT_OK(queues_->AddConsumerGroup("q", "audit"));
  const MessageId id = *queues_->Enqueue("q", Req("shared"));
  DequeueRequest billing;
  billing.group = "billing";
  DequeueRequest audit;
  audit.group = "audit";
  auto m1 = *queues_->Dequeue("q", billing);
  auto m2 = *queues_->Dequeue("q", audit);
  ASSERT_TRUE(m1.has_value() && m2.has_value());
  ASSERT_OK(queues_->Ack("q", "billing", id));
  // Still present until every group acks.
  EXPECT_TRUE(queues_->Peek("q", id).ok());
  ASSERT_OK(queues_->Ack("q", "audit", id));
  EXPECT_TRUE(queues_->Peek("q", id).status().IsNotFound());
}

TEST_F(QueueTest, UnknownGroupRejected) {
  ASSERT_OK(queues_->CreateQueue("q"));
  ASSERT_OK(queues_->AddConsumerGroup("q", "g1"));
  // Once explicit groups exist, the implicit "" group is gone.
  DequeueRequest dq;
  EXPECT_TRUE(queues_->Dequeue("q", dq).status().IsNotFound());
  DequeueRequest other;
  other.group = "ghost";
  EXPECT_TRUE(queues_->Dequeue("q", other).status().IsNotFound());
}

TEST_F(QueueTest, MaxDeliveriesDeadLetters) {
  ASSERT_OK(queues_->CreateQueue("dlq"));
  QueueCreateOptions options;
  options.max_deliveries = 2;
  options.visibility_timeout_micros = kMicrosPerSecond;
  options.dead_letter_queue = "dlq";
  ASSERT_OK(queues_->CreateQueue("q", options));
  ASSERT_OK(queues_->Enqueue("q", Req("poison")).status());
  DequeueRequest dq;
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto msg = *queues_->Dequeue("q", dq);
    ASSERT_TRUE(msg.has_value()) << attempt;
    clock_.AdvanceMicros(2 * kMicrosPerSecond);  // Let the lock lapse.
  }
  // Third attempt dead-letters instead of delivering.
  EXPECT_FALSE(queues_->Dequeue("q", dq)->has_value());
  auto dead = *queues_->Dequeue("dlq", dq);
  ASSERT_TRUE(dead.has_value());
  EXPECT_EQ(dead->payload, "poison");
  bool has_reason = false;
  for (const auto& [name, value] : dead->attributes) {
    if (name == "dlq_reason") {
      has_reason = true;
      EXPECT_EQ(value.string_value(), "max_deliveries");
    }
  }
  EXPECT_TRUE(has_reason);
}

TEST_F(QueueTest, TtlExpiryPurges) {
  ASSERT_OK(queues_->CreateQueue("dlq"));
  QueueCreateOptions options;
  options.dead_letter_queue = "dlq";
  ASSERT_OK(queues_->CreateQueue("q", options));
  EnqueueRequest request = Req("short lived");
  request.ttl_micros = 5 * kMicrosPerSecond;
  ASSERT_OK(queues_->Enqueue("q", request).status());
  clock_.AdvanceMicros(10 * kMicrosPerSecond);
  EXPECT_EQ(*queues_->PurgeExpired("q"), 1u);
  DequeueRequest dq;
  EXPECT_FALSE(queues_->Dequeue("q", dq)->has_value());
  EXPECT_TRUE(queues_->Dequeue("dlq", dq)->has_value());

  // Four expired messages held by two groups: each is dead-lettered
  // once, and the purge costs one commit per group.
  ASSERT_OK(queues_->AddConsumerGroup("q", "g1"));
  ASSERT_OK(queues_->AddConsumerGroup("q", "g2"));
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK(queues_->Enqueue("q", request).status());
  }
  clock_.AdvanceMicros(10 * kMicrosPerSecond);
  const uint64_t commits_before = Commits();
  EXPECT_EQ(*queues_->PurgeExpired("q"), 4u);
  EXPECT_EQ(Commits() - commits_before, 2u);
  EXPECT_EQ(*db_->CountRows("__q_q_msgs"), 0u);
  EXPECT_EQ(*db_->CountRows("__q_q_dlv"), 0u);
  EXPECT_EQ(*queues_->Depth("dlq", ""), 4u);
}

TEST_F(QueueTest, ExpiredMessageSkippedAtDequeue) {
  ASSERT_OK(queues_->CreateQueue("q"));
  EnqueueRequest dying = Req("dying");
  dying.ttl_micros = kMicrosPerSecond;
  ASSERT_OK(queues_->Enqueue("q", dying).status());
  ASSERT_OK(queues_->Enqueue("q", Req("alive")).status());
  clock_.AdvanceMicros(2 * kMicrosPerSecond);
  DequeueRequest dq;
  auto msg = *queues_->Dequeue("q", dq);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "alive");

  // Three expired messages ahead of a live one: the dequeue finishes
  // the three and locks the fourth in one commit.
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK(queues_->Enqueue("q", dying).status());
  }
  ASSERT_OK(queues_->Enqueue("q", Req("alive 2")).status());
  clock_.AdvanceMicros(2 * kMicrosPerSecond);
  const uint64_t commits_before = Commits();
  msg = *queues_->Dequeue("q", dq);
  EXPECT_EQ(Commits() - commits_before, 1u);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "alive 2");
  EXPECT_EQ(*db_->CountRows("__q_q_msgs"), 2u);  // The two live ones.
}

TEST_F(QueueTest, TransactionalEnqueueVisibleAtCommit) {
  ASSERT_OK(queues_->CreateQueue("q"));
  auto txn = db_->BeginTransaction();
  ASSERT_OK(queues_->EnqueueInTransaction(txn.get(), "q", Req("tx")).status());
  DequeueRequest dq;
  EXPECT_FALSE(queues_->Dequeue("q", dq)->has_value());
  ASSERT_OK(txn->Commit());
  auto msg = *queues_->Dequeue("q", dq);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "tx");
}

TEST_F(QueueTest, TransactionalEnqueueRollbackDiscards) {
  ASSERT_OK(queues_->CreateQueue("q"));
  {
    auto txn = db_->BeginTransaction();
    ASSERT_OK(
        queues_->EnqueueInTransaction(txn.get(), "q", Req("never")).status());
    ASSERT_OK(txn->Rollback());
  }
  DequeueRequest dq;
  EXPECT_FALSE(queues_->Dequeue("q", dq)->has_value());
  EXPECT_EQ(*queues_->Depth("q", ""), 0u);
}

TEST_F(QueueTest, MessagesSurviveReattach) {
  ASSERT_OK(queues_->CreateQueue("persist"));
  ASSERT_OK(queues_->Enqueue("persist", Req("durable", 3)).status());
  queues_.reset();
  db_.reset();

  DatabaseOptions options;
  options.dir = dir_.path();
  options.wal_sync_policy = WalSyncPolicy::kNever;
  options.clock = &clock_;
  db_ = *Database::Open(std::move(options));
  queues_ = *QueueManager::Attach(db_.get());
  EXPECT_TRUE(queues_->HasQueue("persist"));
  DequeueRequest dq;
  auto msg = *queues_->Dequeue("persist", dq);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "durable");
  EXPECT_EQ(msg->priority, 3);
}

// A lease takes a message as a lock does, but in memory only: it writes
// nothing, a second dequeue does not see the message, and once the
// visibility timeout lapses the message comes back carrying the lease's
// charge, which the next row write persists.
TEST_F(QueueTest, LeasedMessageIsInvisibleUntilTheTimeout) {
  ASSERT_OK(queues_->CreateQueue("q"));
  ASSERT_OK(queues_->Enqueue("q", Req("leased")).status());
  const uint64_t commits_before = Commits();
  auto leased = *queues_->Dequeue("q", Lease());
  ASSERT_TRUE(leased.has_value());
  EXPECT_EQ(leased->delivery_count, 1);
  EXPECT_EQ(Commits(), commits_before);
  DequeueRequest dq;
  EXPECT_FALSE(queues_->Dequeue("q", dq)->has_value());
  EXPECT_EQ(*queues_->Depth("q", ""), 0u);

  clock_.AdvanceMicros(31 * kMicrosPerSecond);
  auto locked = *queues_->Dequeue("q", dq);
  ASSERT_TRUE(locked.has_value());
  EXPECT_EQ(locked->payload, "leased");
  EXPECT_EQ(locked->delivery_count, 2);
  // The lock's row carries both charges.
  Reopen();
  clock_.AdvanceMicros(31 * kMicrosPerSecond);
  auto again = *queues_->Dequeue("q", dq);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->delivery_count, 3);
}

// Releasing a lease writes nothing and takes its charge back.
TEST_F(QueueTest, ReleasingALeaseWritesNothing) {
  ASSERT_OK(queues_->CreateQueue("q"));
  const MessageId id = *queues_->Enqueue("q", Req("back"));
  ASSERT_TRUE(queues_->Dequeue("q", Lease())->has_value());
  const uint64_t commits_before = Commits();
  ASSERT_OK(queues_->Release("q", "", {id}));
  EXPECT_EQ(Commits(), commits_before);
  EXPECT_EQ(*queues_->Depth("q", ""), 1u);
  auto again = *queues_->Dequeue("q", Lease());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->delivery_count, 1);
}

// A nack of a lease writes the charged count, and a reopen shows it.
TEST_F(QueueTest, NackOfALeasePersistsTheCharge) {
  ASSERT_OK(queues_->CreateQueue("q"));
  const MessageId id = *queues_->Enqueue("q", Req("failed"));
  ASSERT_TRUE(queues_->Dequeue("q", Lease())->has_value());
  const uint64_t commits_before = Commits();
  ASSERT_OK(queues_->Nack("q", "", id));
  EXPECT_EQ(Commits() - commits_before, 1u);
  Reopen();
  auto again = *queues_->Dequeue("q", Lease());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->delivery_count, 2);
}

// A reopen forgets a lease: the message is ready at once, uncharged,
// with no visibility timeout to wait out.
TEST_F(QueueTest, ReopenForgetsALease) {
  ASSERT_OK(queues_->CreateQueue("q"));
  ASSERT_OK(queues_->Enqueue("q", Req("forgotten")).status());
  ASSERT_TRUE(queues_->Dequeue("q", Lease())->has_value());
  Reopen();
  DequeueRequest dq;
  auto again = *queues_->Dequeue("q", dq);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->payload, "forgotten");
  EXPECT_EQ(again->delivery_count, 1);
}

TEST_F(QueueTest, LeaseAndRemoveTogetherAreRefused) {
  ASSERT_OK(queues_->CreateQueue("q"));
  ASSERT_OK(queues_->Enqueue("q", Req("kept")).status());
  DequeueRequest both = Lease();
  both.remove = true;
  EXPECT_TRUE(queues_->Dequeue("q", both).status().IsInvalidArgument());
  EXPECT_EQ(*queues_->Depth("q", ""), 1u);
}

TEST_F(QueueTest, DepthCountsReadyOnly) {
  ASSERT_OK(queues_->CreateQueue("q"));
  ASSERT_OK(queues_->Enqueue("q", Req("a")).status());
  ASSERT_OK(queues_->Enqueue("q", Req("b")).status());
  EXPECT_EQ(*queues_->Depth("q", ""), 2u);
  DequeueRequest dq;
  ASSERT_TRUE((*queues_->Dequeue("q", dq)).has_value());
  EXPECT_EQ(*queues_->Depth("q", ""), 1u);  // One locked, one ready.
}

TEST_F(QueueTest, DequeueWaitTimesOutEmpty) {
  ASSERT_OK(queues_->CreateQueue("q"));
  DequeueRequest dq;
  auto msg = *queues_->DequeueWait("q", dq, 20 * kMicrosPerMilli);
  EXPECT_FALSE(msg.has_value());
}

TEST_F(QueueTest, DequeueWaitReturnsImmediatelyWhenAvailable) {
  ASSERT_OK(queues_->CreateQueue("q"));
  ASSERT_OK(queues_->Enqueue("q", Req("ready")).status());
  DequeueRequest dq;
  auto msg = *queues_->DequeueWait("q", dq, 10 * kMicrosPerSecond);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "ready");
}

TEST_F(QueueTest, DequeueWaitZeroTimeoutIsASinglePoll) {
  ASSERT_OK(queues_->CreateQueue("q"));
  DequeueRequest dq;
  // Empty queue: must return immediately, not block.
  const auto start = std::chrono::steady_clock::now();
  auto empty = *queues_->DequeueWait("q", dq, 0);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(empty.has_value());
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  // Message available: zero timeout still delivers it.
  ASSERT_OK(queues_->Enqueue("q", Req("instant")).status());
  auto msg = *queues_->DequeueWait("q", dq, 0);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "instant");
}

TEST_F(QueueTest, DequeueWaitNegativeTimeoutIsASinglePoll) {
  ASSERT_OK(queues_->CreateQueue("q"));
  DequeueRequest dq;
  // Negative timeouts clamp to the zero-timeout single-poll contract;
  // they must never underflow into a huge unsigned wait.
  const auto start = std::chrono::steady_clock::now();
  auto empty = *queues_->DequeueWait("q", dq, -5 * kMicrosPerSecond);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(empty.has_value());
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  ASSERT_OK(queues_->Enqueue("q", Req("instant")).status());
  auto msg = *queues_->DequeueWait("q", dq, -1);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "instant");
}

TEST_F(QueueTest, DequeueWaitUnderContentionDeliversExactlyOnce) {
  ASSERT_OK(queues_->CreateQueue("q"));
  std::atomic<int> winners{0};
  std::atomic<int> timeouts{0};
  auto waiter = [&] {
    DequeueRequest dq;
    auto msg = queues_->DequeueWait("q", dq, 300 * kMicrosPerMilli);
    ASSERT_OK(msg.status());
    if (msg->has_value()) {
      EXPECT_EQ((*msg)->payload, "contested");
      winners.fetch_add(1);
    } else {
      timeouts.fetch_add(1);
    }
  };
  std::thread a(waiter);
  std::thread b(waiter);
  std::thread c(waiter);
  ASSERT_OK(queues_->Enqueue("q", Req("contested")).status());
  a.join();
  b.join();
  c.join();
  // One message, three waiters: exactly one wins, the rest time out
  // rather than double-delivering or hanging.
  EXPECT_EQ(winners.load(), 1);
  EXPECT_EQ(timeouts.load(), 2);
}

TEST_F(QueueTest, ShutdownWakesBlockedWaitersBeforeDestruction) {
  ASSERT_OK(queues_->CreateQueue("q"));
  std::atomic<bool> aborted{false};
  std::thread blocked([&] {
    DequeueRequest dq;
    // Far longer than the test: only Shutdown() can end this wait.
    auto msg = queues_->DequeueWait("q", dq, 60 * kMicrosPerSecond);
    aborted.store(msg.status().IsAborted());
  });
  // Give the waiter a moment to actually block, then pull the plug.
  testing::YieldBriefly(50);
  queues_->Shutdown();
  blocked.join();
  EXPECT_TRUE(aborted.load());

  // After shutdown: waits fail fast...
  DequeueRequest dq;
  EXPECT_TRUE(queues_->DequeueWait("q", dq, 0).status().IsAborted());
  EXPECT_TRUE(
      queues_->DequeueWait("q", dq, kMicrosPerSecond).status().IsAborted());
  // ...but non-blocking operations still work (drain-then-destroy).
  ASSERT_OK(queues_->Enqueue("q", Req("late")).status());
  auto msg = *queues_->Dequeue("q", dq);
  ASSERT_TRUE(msg.has_value());
  // And destruction with no waiters left is safe.
  queues_.reset();
}

// REMOVE mode (AQ's consume-on-read dequeue): the dequeue itself
// deletes what it takes, so nothing is locked and no ack follows.
TEST_F(QueueTest, RemoveDequeueConsumesWithoutAck) {
  ASSERT_OK(queues_->CreateQueue("q"));
  ASSERT_OK(queues_->Enqueue("q", Req("once")).status());
  DequeueRequest remove;
  remove.remove = true;
  auto msg = *queues_->Dequeue("q", remove);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "once");
  EXPECT_EQ(msg->delivery_count, 1);
  EXPECT_EQ(*queues_->Depth("q", ""), 0u);
  EXPECT_EQ(*db_->CountRows("__q_q_msgs"), 0u);
  EXPECT_EQ(*db_->CountRows("__q_q_dlv"), 0u);
  // No lock was taken, so the visibility timeout brings nothing back.
  clock_.AdvanceMicros(31 * kMicrosPerSecond);
  EXPECT_EQ(*queues_->Depth("q", ""), 0u);
  DequeueRequest dq;
  EXPECT_FALSE(queues_->Dequeue("q", dq)->has_value());
}

TEST_F(QueueTest, RemoveForOneGroupKeepsOtherGroupsCopy) {
  ASSERT_OK(queues_->CreateQueue("q"));
  ASSERT_OK(queues_->AddConsumerGroup("q", "billing"));
  ASSERT_OK(queues_->AddConsumerGroup("q", "audit"));
  const MessageId id = *queues_->Enqueue("q", Req("shared"));
  DequeueRequest billing;
  billing.group = "billing";
  billing.remove = true;
  auto taken = *queues_->Dequeue("q", billing);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->id, id);
  // The audit group still holds its copy, so the message row stays.
  EXPECT_TRUE(queues_->Peek("q", id).ok());
  EXPECT_EQ(*queues_->Depth("q", "billing"), 0u);
  EXPECT_EQ(*queues_->Depth("q", "audit"), 1u);
  clock_.AdvanceMicros(31 * kMicrosPerSecond);
  EXPECT_FALSE(queues_->Dequeue("q", billing)->has_value());
  DequeueRequest audit;
  audit.group = "audit";
  audit.remove = true;
  auto copy = *queues_->Dequeue("q", audit);
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(copy->payload, "shared");
  // The last holder removed it: the message row goes too.
  EXPECT_TRUE(queues_->Peek("q", id).status().IsNotFound());
  EXPECT_EQ(*db_->CountRows("__q_q_msgs"), 0u);
  EXPECT_EQ(*db_->CountRows("__q_q_dlv"), 0u);
}

TEST_F(QueueTest, RemoveWithSelectorTakesOnlyMatches) {
  ASSERT_OK(queues_->CreateQueue("q"));
  EnqueueRequest east = Req("east order");
  east.attributes = {{"region", Value::String("east")}};
  EnqueueRequest west = Req("west order");
  west.attributes = {{"region", Value::String("west")}};
  ASSERT_OK(queues_->Enqueue("q", east).status());
  ASSERT_OK(queues_->Enqueue("q", west).status());
  DequeueRequest dq;
  dq.selector = *Predicate::Compile("region = 'west'");
  dq.remove = true;
  auto taken = *queues_->DequeueBatch("q", dq, 10);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].payload, "west order");
  EXPECT_FALSE(queues_->Dequeue("q", dq)->has_value());
  // The non-matching message stays ready, untouched.
  EXPECT_EQ(*queues_->Depth("q", ""), 1u);
  DequeueRequest all;
  auto rest = *queues_->Dequeue("q", all);
  ASSERT_TRUE(rest.has_value());
  EXPECT_EQ(rest->payload, "east order");
  EXPECT_EQ(rest->delivery_count, 1);
}

TEST_F(QueueTest, RemoveDeadLettersExpiredMessageOnTheWalk) {
  ASSERT_OK(queues_->CreateQueue("dlq"));
  QueueCreateOptions options;
  options.dead_letter_queue = "dlq";
  ASSERT_OK(queues_->CreateQueue("q", options));
  EnqueueRequest dying = Req("dying");
  dying.ttl_micros = kMicrosPerSecond;
  ASSERT_OK(queues_->Enqueue("q", dying).status());
  ASSERT_OK(queues_->Enqueue("q", Req("alive")).status());
  clock_.AdvanceMicros(2 * kMicrosPerSecond);
  DequeueRequest remove;
  remove.remove = true;
  auto msg = *queues_->Dequeue("q", remove);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "alive");
  EXPECT_EQ(*db_->CountRows("__q_q_msgs"), 0u);
  DequeueRequest dq;
  auto dead = *queues_->Dequeue("dlq", dq);
  ASSERT_TRUE(dead.has_value());
  EXPECT_EQ(dead->payload, "dying");
  bool expired = false;
  for (const auto& [name, value] : dead->attributes) {
    if (name == "dlq_reason") expired = value.string_value() == "expired";
  }
  EXPECT_TRUE(expired);
}

}  // namespace
}  // namespace edadb
