// EnqueueBatch / DequeueBatch / EnqueueFanout / Settle coverage: id
// assignment, all-or-nothing atomicity, max_messages bounds, per-target
// fan-out outcomes, and equivalence with the single-shot wrappers.

#include "mq/queue_manager.h"

#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "testing/crash_harness.h"

namespace edadb {
namespace {

class QueueBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.dir = dir_.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    options.clock = &clock_;
    clock_.SetMicros(kMicrosPerHour);
    db_ = *Database::Open(std::move(options));
    queues_ = *QueueManager::Attach(db_.get());
    ASSERT_OK(queues_->CreateQueue("q"));
  }

  static EnqueueRequest Req(const std::string& payload,
                            int64_t priority = 0) {
    EnqueueRequest request;
    request.payload = payload;
    request.priority = priority;
    return request;
  }

  std::vector<std::string> Drain(size_t max) {
    std::vector<std::string> payloads;
    auto messages = queues_->DequeueBatch("q", DequeueRequest{}, max);
    EXPECT_OK(messages.status());
    if (!messages.ok()) return payloads;
    for (const Message& message : *messages) {
      payloads.push_back(message.payload);
      EXPECT_OK(queues_->Ack("q", "", message.id));
    }
    return payloads;
  }

  TempDir dir_;
  SimulatedClock clock_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<QueueManager> queues_;
};

TEST_F(QueueBatchTest, EnqueueBatchReturnsIdsInRequestOrder) {
  const std::vector<MessageId> ids = *queues_->EnqueueBatch(
      "q", {Req("a"), Req("b"), Req("c")});
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_LT(ids[0], ids[1]);
  EXPECT_LT(ids[1], ids[2]);
  EXPECT_EQ(Drain(10), (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(QueueBatchTest, EmptyBatchValidatesQueueName) {
  EXPECT_EQ(queues_->EnqueueBatch("q", {})->size(), 0u);
  EXPECT_TRUE(queues_->EnqueueBatch("missing", {}).status().IsNotFound());
  EXPECT_TRUE(
      queues_->EnqueueBatch("missing", {Req("x")}).status().IsNotFound());
}

TEST_F(QueueBatchTest, WrapperAndBatchInterleaveCleanly) {
  ASSERT_OK(queues_->Enqueue("q", Req("one")).status());
  ASSERT_OK(queues_->EnqueueBatch("q", {Req("two"), Req("three")}).status());
  ASSERT_OK(queues_->Enqueue("q", Req("four")).status());
  EXPECT_EQ(Drain(10),
            (std::vector<std::string>{"one", "two", "three", "four"}));
}

TEST_F(QueueBatchTest, DequeueBatchHonorsMaxMessages) {
  ASSERT_OK(queues_->EnqueueBatch(
      "q", {Req("a"), Req("b"), Req("c"), Req("d")}).status());
  EXPECT_EQ(queues_->DequeueBatch("q", DequeueRequest{}, 0)->size(), 0u);
  EXPECT_EQ(Drain(3), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Drain(3), (std::vector<std::string>{"d"}));
  EXPECT_EQ(Drain(3), std::vector<std::string>{});
}

TEST_F(QueueBatchTest, DequeueBatchRespectsPriorityOrder) {
  ASSERT_OK(queues_->EnqueueBatch(
      "q", {Req("low", 1), Req("high", 9), Req("mid", 5)}).status());
  EXPECT_EQ(Drain(10), (std::vector<std::string>{"high", "mid", "low"}));
}

// EnqueueFanout stages every target in one transaction, in each
// target's index order; a target that cannot be resolved fails alone.
TEST_F(QueueBatchTest, FanoutStagesEveryTargetInOneTransaction) {
  ASSERT_OK(queues_->CreateQueue("q2"));
  metrics::Counter* commits =
      metrics::Registry::Default()->GetCounter("db.commits");
  const uint64_t commits_before = commits->Value();
  const std::vector<Status> outcomes = queues_->EnqueueFanout(
      std::vector<EnqueueRequest>{Req("a"), Req("b"), Req("c")},
      std::vector<FanoutTarget>{
          {"q", {0, 2}}, {"missing", {0}}, {"q2", {1, 2}}, {"q2", {7}}});
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_OK(outcomes[0]);
  EXPECT_TRUE(outcomes[1].IsNotFound()) << outcomes[1];
  EXPECT_OK(outcomes[2]);
  EXPECT_TRUE(outcomes[3].IsInvalidArgument()) << outcomes[3];
  EXPECT_EQ(commits->Value() - commits_before, 1u);
  EXPECT_EQ(Drain(10), (std::vector<std::string>{"a", "c"}));
  std::vector<std::string> q2;
  EXPECT_OK(queues_->Browse("q2", "", [&](const Message& message) {
    q2.push_back(message.payload);
    return true;
  }));
  EXPECT_EQ(q2, (std::vector<std::string>{"b", "c"}));
}

// One Settle acks, nacks and releases a locked batch in one
// transaction, all or nothing.
TEST_F(QueueBatchTest, SettleIsOneTransaction) {
  const std::vector<MessageId> ids = *queues_->EnqueueBatch(
      "q", {Req("a"), Req("b"), Req("c"), Req("d"), Req("e")});
  ASSERT_EQ(queues_->DequeueBatch("q", DequeueRequest{}, 5)->size(), 5u);
  const std::vector<MessageId> acked{ids[0], ids[1]};
  const std::vector<MessageId> nacked{ids[2]};
  const std::vector<MessageId> released{ids[3], ids[4]};
  Settlement settlement;
  settlement.acked = acked;
  settlement.nacked = nacked;
  settlement.released = released;
  metrics::Counter* commits =
      metrics::Registry::Default()->GetCounter("db.commits");
  uint64_t commits_before = commits->Value();

  // An id listed under two outcomes is refused before anything is
  // written.
  const std::vector<MessageId> twice{ids[2], ids[3]};
  Settlement conflicting = settlement;
  conflicting.released = twice;
  EXPECT_TRUE(queues_->Settle("q", "", conflicting).IsInvalidArgument());
  EXPECT_EQ(commits->Value(), commits_before);

#ifdef EDADB_FAILPOINTS_ENABLED
  {
    // The commit fails: every message stays locked, charged once.
    testing::FailpointGuard guard;
    testing::ArmError("db.commit.before_wal");
    EXPECT_TRUE(queues_->Settle("q", "", settlement).IsIOError());
  }
  EXPECT_EQ(*queues_->Depth("q", ""), 0u);
  QueryResult rows = *db_->Execute(QueryBuilder("__q_q_dlv").Build());
  ASSERT_EQ(rows.rows.size(), 5u);
  for (const Record& row : rows.rows) {
    EXPECT_EQ(*row.Get("delivery_count")->AsInt64(), 1);
    EXPECT_GT(*row.Get("locked_until")->AsInt64(), 0);
  }
  commits_before = commits->Value();
#endif  // EDADB_FAILPOINTS_ENABLED

  ASSERT_OK(queues_->Settle("q", "", settlement));
  EXPECT_EQ(commits->Value() - commits_before, 1u);
  // a and b are gone; c comes back charged, d and e uncharged.
  const std::vector<Message> again =
      *queues_->DequeueBatch("q", DequeueRequest{}, 10);
  ASSERT_EQ(again.size(), 3u);
  EXPECT_EQ(again[0].payload, "c");
  EXPECT_EQ(again[0].delivery_count, 2);
  EXPECT_EQ(again[1].payload, "d");
  EXPECT_EQ(again[1].delivery_count, 1);
  EXPECT_EQ(again[2].payload, "e");
  EXPECT_EQ(again[2].delivery_count, 1);
}

// A settle's forward commits with its outcomes: the forwarded messages
// reach the destination in that one transaction, and a commit that
// fails applies neither half. A forward to no queue is NotFound before
// anything is written.
TEST_F(QueueBatchTest, SettleForwardsInItsTransaction) {
  ASSERT_OK(queues_->CreateQueue("q2"));
  const std::vector<MessageId> ids =
      *queues_->EnqueueBatch("q", {Req("a"), Req("b")});
  DequeueRequest lease;
  lease.lease = true;
  ASSERT_EQ(queues_->DequeueBatch("q", lease, 2)->size(), 2u);
  const std::vector<EnqueueRequest> copies{Req("a2"), Req("b2")};
  const Settlement settlement{
      .acked = ids, .forward_to = "q2", .forwarded = copies};
  metrics::Counter* commits =
      metrics::Registry::Default()->GetCounter("db.commits");
  uint64_t commits_before = commits->Value();

  Settlement nowhere = settlement;
  nowhere.forward_to = "ghost";
  EXPECT_TRUE(queues_->Settle("q", "", nowhere).IsNotFound());
  EXPECT_EQ(commits->Value(), commits_before);

#if EDADB_FAILPOINTS_ENABLED
  {
    testing::FailpointGuard guard;
    testing::ArmError("db.commit.before_wal");
    EXPECT_TRUE(queues_->Settle("q", "", settlement).IsIOError());
  }
  EXPECT_EQ(*db_->CountRows("__q_q_msgs"), 2u);
  EXPECT_EQ(*db_->CountRows("__q_q2_msgs"), 0u);
  commits_before = commits->Value();
#endif  // EDADB_FAILPOINTS_ENABLED

  ASSERT_OK(queues_->Settle("q", "", settlement));
  EXPECT_EQ(commits->Value() - commits_before, 1u);
  EXPECT_EQ(*db_->CountRows("__q_q_msgs"), 0u);
  const std::vector<Message> forwarded =
      *queues_->DequeueBatch("q2", DequeueRequest{}, 10);
  ASSERT_EQ(forwarded.size(), 2u);
  EXPECT_EQ(forwarded[0].payload, "a2");
  EXPECT_EQ(forwarded[1].payload, "b2");
}

#ifdef EDADB_FAILPOINTS_ENABLED
// When the one transaction fails without applying, each target is
// staged on its own: the failing one fails alone, and no message lands
// twice.
TEST_F(QueueBatchTest, FanoutFallsBackPerTargetWhenNothingApplied) {
  ASSERT_OK(queues_->CreateQueue("q2"));
  {
    // The first fire fails the shared transaction; the second fails
    // "q"'s own retry (two messages, so it passes the mid-batch site),
    // and "q2"'s single message never reaches the site.
    testing::FailpointGuard guard;
    testing::ArmError("mq.enqueue_batch.mid", Status::IOError("injected"),
                      /*skip=*/0, /*max_fires=*/2);
    std::vector<std::vector<MessageId>> ids(2);
    const std::vector<Status> outcomes = queues_->EnqueueFanout(
        std::vector<EnqueueRequest>{Req("a"), Req("b")},
        std::vector<FanoutTarget>{{"q", {0, 1}}, {"q2", {1}}}, ids);
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_TRUE(outcomes[0].IsIOError()) << outcomes[0];
    EXPECT_OK(outcomes[1]);
    // The failed target hands back no ids, not those of its rolled-back
    // retry.
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_TRUE(ids[0].empty());
    ASSERT_EQ(ids[1].size(), 1u);
    EXPECT_EQ(queues_->Peek("q2", ids[1][0])->payload, "b");
  }
  EXPECT_EQ(Drain(10), (std::vector<std::string>{}));
  EXPECT_EQ(*queues_->Depth("q2", ""), 1u);
}

// A fan-out whose commit applied but whose sync failed is never staged
// again: every target reports DurabilityUnknown, and each queue holds
// its messages once.
TEST_F(QueueBatchTest, FanoutWithFailedSyncIsNotStagedTwice) {
  ASSERT_OK(queues_->CreateQueue("q2"));
  {
    testing::FailpointGuard guard;
    testing::ArmError("wal.sync");
    const std::vector<Status> outcomes = queues_->EnqueueFanout(
        std::vector<EnqueueRequest>{Req("a")},
        std::vector<FanoutTarget>{{"q", {0}}, {"q2", {0}}});
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_TRUE(outcomes[0].IsDurabilityUnknown()) << outcomes[0];
    EXPECT_TRUE(outcomes[1].IsDurabilityUnknown()) << outcomes[1];
  }
  EXPECT_EQ(Drain(10), (std::vector<std::string>{"a"}));
  EXPECT_EQ(*queues_->Depth("q2", ""), 1u);
}

TEST_F(QueueBatchTest, MidBatchErrorRollsBackWholeBatch) {
  ASSERT_OK(queues_->Enqueue("q", Req("survivor")).status());
  {
    // Fail between message 2 and 3: nothing from the batch may land.
    testing::FailpointGuard guard;
    testing::ArmError("mq.enqueue_batch.mid", Status::IOError("injected"),
                      /*skip=*/1);
    EXPECT_FALSE(queues_->EnqueueBatch(
        "q", {Req("b1"), Req("b2"), Req("b3")}).ok());
  }
  EXPECT_EQ(Drain(10), (std::vector<std::string>{"survivor"}));
  // The queue still works after the rollback.
  ASSERT_OK(queues_->EnqueueBatch("q", {Req("after")}).status());
  EXPECT_EQ(Drain(10), (std::vector<std::string>{"after"}));
}
#endif  // EDADB_FAILPOINTS_ENABLED

}  // namespace
}  // namespace edadb
