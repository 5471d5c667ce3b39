// Runtime-rebuild edge cases: locked, delayed and partially-acked
// delivery state must survive a QueueManager re-attach (the state lives
// in tables; the in-memory dequeue index is reconstructed), and the
// catalog a reattach reads must hold what the manager held before.

#include <string>
#include <vector>

#include "common/failpoint.h"
#include "gtest/gtest.h"
#include "mq/queue_manager.h"
#include "test_util.h"
#include "testing/crash_harness.h"

namespace edadb {
namespace {

class QueueReattachTest : public ::testing::Test {
 protected:
  void SetUp() override { Reopen(); }

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

  EnqueueRequest Req(const std::string& payload) {
    EnqueueRequest request;
    request.payload = payload;
    return request;
  }

  TempDir dir_;
  SimulatedClock clock_{kMicrosPerHour};
  std::unique_ptr<Database> db_;
  std::unique_ptr<QueueManager> queues_;
};

TEST_F(QueueReattachTest, LockedMessageStaysInvisibleUntilTimeout) {
  QueueCreateOptions options;
  options.visibility_timeout_micros = 60 * kMicrosPerSecond;
  ASSERT_OK(queues_->CreateQueue("q", options));
  ASSERT_OK(queues_->Enqueue("q", Req("inflight")).status());
  DequeueRequest dq;
  ASSERT_TRUE((*queues_->Dequeue("q", dq)).has_value());

  // Consumer "crashes" holding the lock; the manager restarts.
  Reopen();
  EXPECT_FALSE(queues_->Dequeue("q", dq)->has_value());  // Still locked.
  clock_.AdvanceMicros(61 * kMicrosPerSecond);
  auto redelivered = *queues_->Dequeue("q", dq);
  ASSERT_TRUE(redelivered.has_value());
  EXPECT_EQ(redelivered->payload, "inflight");
  EXPECT_EQ(redelivered->delivery_count, 2);  // Count survived too.
}

TEST_F(QueueReattachTest, DelayedMessageMaturesAfterRestart) {
  ASSERT_OK(queues_->CreateQueue("q"));
  EnqueueRequest request = Req("later");
  request.delay_micros = 30 * kMicrosPerSecond;
  ASSERT_OK(queues_->Enqueue("q", request).status());
  Reopen();
  DequeueRequest dq;
  EXPECT_FALSE(queues_->Dequeue("q", dq)->has_value());
  clock_.AdvanceMicros(31 * kMicrosPerSecond);
  EXPECT_TRUE(queues_->Dequeue("q", dq)->has_value());
}

TEST_F(QueueReattachTest, PartialGroupAcksSurvive) {
  ASSERT_OK(queues_->CreateQueue("q"));
  ASSERT_OK(queues_->AddConsumerGroup("q", "g1"));
  ASSERT_OK(queues_->AddConsumerGroup("q", "g2"));
  const MessageId id = *queues_->Enqueue("q", Req("shared"));
  DequeueRequest g1;
  g1.group = "g1";
  ASSERT_TRUE((*queues_->Dequeue("q", g1)).has_value());
  ASSERT_OK(queues_->Ack("q", "g1", id));

  Reopen();
  // g1's ack is durable: nothing left for it.
  EXPECT_FALSE(queues_->Dequeue("q", g1)->has_value());
  // g2 still has its copy; acking it garbage-collects the message.
  DequeueRequest g2;
  g2.group = "g2";
  auto msg = *queues_->Dequeue("q", g2);
  ASSERT_TRUE(msg.has_value());
  ASSERT_OK(queues_->Ack("q", "g2", id));
  EXPECT_TRUE(queues_->Peek("q", id).status().IsNotFound());
}

TEST_F(QueueReattachTest, QueueOptionsAndGroupsReload) {
  QueueCreateOptions options;
  options.max_deliveries = 2;
  options.visibility_timeout_micros = kMicrosPerSecond;
  options.dead_letter_queue = "dlq";
  ASSERT_OK(queues_->CreateQueue("dlq"));
  ASSERT_OK(queues_->CreateQueue("q", options));
  ASSERT_OK(queues_->AddConsumerGroup("q", "workers"));
  Reopen();
  EXPECT_EQ(*queues_->ListConsumerGroups("q"),
            (std::vector<std::string>{"workers"}));
  // Dead-letter policy survived: exhaust deliveries post-restart.
  ASSERT_OK(queues_->Enqueue("q", Req("poison")).status());
  DequeueRequest dq;
  dq.group = "workers";
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE((*queues_->Dequeue("q", dq)).has_value());
    clock_.AdvanceMicros(2 * kMicrosPerSecond);
  }
  EXPECT_FALSE(queues_->Dequeue("q", dq)->has_value());
  DequeueRequest dlq_req;
  EXPECT_TRUE(queues_->Dequeue("dlq", dlq_req)->has_value());
}

// Catalog deletes match a name as a value, never as predicate text: a
// quote in a queue name drops that queue alone, in memory and on disk.
TEST_F(QueueReattachTest, DropQueueWithQuoteInNameDropsOnlyThatQueue) {
  // One name attacks the __queues delete, the other the group delete.
  const std::vector<std::string> evil = {"x' OR name <> 'zz",
                                         "y' OR queue <> 'zz"};
  ASSERT_OK(queues_->CreateQueue("a"));
  ASSERT_OK(queues_->AddConsumerGroup("a", "workers"));
  for (const std::string& name : evil) {
    ASSERT_OK(queues_->CreateQueue(name));
    ASSERT_OK(queues_->AddConsumerGroup(name, "workers"));
  }
  ASSERT_OK(queues_->CreateQueue("b"));
  for (const std::string& name : evil) ASSERT_OK(queues_->DropQueue(name));
  EXPECT_EQ(queues_->ListQueues(), (std::vector<std::string>{"a", "b"}));
  Reopen();
  ASSERT_EQ(queues_->ListQueues(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(*queues_->ListConsumerGroups("a"),
            (std::vector<std::string>{"workers"}));
}

TEST_F(QueueReattachTest, RemoveGroupWithQuoteInNameRemovesOnlyThatGroup) {
  const std::string evil = "g2' OR grp <> 'zz";
  ASSERT_OK(queues_->CreateQueue("q"));
  ASSERT_OK(queues_->AddConsumerGroup("q", "g1"));
  ASSERT_OK(queues_->AddConsumerGroup("q", evil));
  ASSERT_OK(queues_->RemoveConsumerGroup("q", evil));
  EXPECT_EQ(*queues_->ListConsumerGroups("q"),
            (std::vector<std::string>{"g1"}));
  Reopen();
  EXPECT_EQ(*queues_->ListConsumerGroups("q"),
            (std::vector<std::string>{"g1"}));
}

#if EDADB_FAILPOINTS_ENABLED
// RemoveConsumerGroup deletes the group's row first: when that fails,
// the group stays registered in memory and on disk, and keeps receiving.
TEST_F(QueueReattachTest, FailedRemoveGroupKeepsTheGroup) {
  ASSERT_OK(queues_->CreateQueue("q"));
  ASSERT_OK(queues_->AddConsumerGroup("q", "g1"));
  {
    testing::FailpointGuard guard;
    testing::ArmError("db.commit.before_wal");
    EXPECT_TRUE(queues_->RemoveConsumerGroup("q", "g1").IsIOError());
  }
  EXPECT_EQ(*queues_->ListConsumerGroups("q"),
            std::vector<std::string>{"g1"});
  ASSERT_OK(queues_->Enqueue("q", Req("kept")).status());
  EXPECT_EQ(*queues_->Depth("q", "g1"), 1u);

  Reopen();
  DequeueRequest g1;
  g1.group = "g1";
  auto message = *queues_->Dequeue("q", g1);
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->payload, "kept");
}
#endif  // EDADB_FAILPOINTS_ENABLED

TEST_F(QueueReattachTest, CheckpointThenReattach) {
  ASSERT_OK(queues_->CreateQueue("q"));
  ASSERT_OK(queues_->Enqueue("q", Req("before ckpt")).status());
  ASSERT_OK(db_->Checkpoint(db_->wal_end_lsn()));
  ASSERT_OK(queues_->Enqueue("q", Req("after ckpt")).status());
  Reopen();
  DequeueRequest dq;
  EXPECT_EQ((*queues_->Dequeue("q", dq))->payload, "before ckpt");
  EXPECT_EQ((*queues_->Dequeue("q", dq))->payload, "after ckpt");
}

// A second manager attaches to a database that stayed open: the first
// left nothing registered in it, and the new one rebuilds the runtime
// from the tables and follows its own enqueues.
TEST_F(QueueReattachTest, ReattachOnLiveDatabase) {
  ASSERT_OK(queues_->CreateQueue("q"));
  ASSERT_OK(queues_->Enqueue("q", Req("old")).status());
  queues_.reset();
  auto reattached = QueueManager::Attach(db_.get());
  ASSERT_OK(reattached.status());
  queues_ = *std::move(reattached);
  ASSERT_OK(queues_->Enqueue("q", Req("new")).status());
  DequeueRequest dq;
  dq.remove = true;
  auto first = queues_->Dequeue("q", dq);
  ASSERT_OK(first.status());
  ASSERT_TRUE(first->has_value());
  EXPECT_EQ((*first)->payload, "old");
  auto second = queues_->Dequeue("q", dq);
  ASSERT_OK(second.status());
  ASSERT_TRUE(second->has_value());
  EXPECT_EQ((*second)->payload, "new");
  EXPECT_FALSE(queues_->Dequeue("q", dq)->has_value());
}

}  // namespace
}  // namespace edadb
