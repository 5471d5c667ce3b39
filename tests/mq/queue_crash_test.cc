// Crash-window regressions for the queue persistence path, driven by
// failpoints. An ack, like a REMOVE-mode dequeue, deletes the delivery
// row and the message row in one transaction, so a crash lands either
// before it (the message comes back once) or after it (nothing comes
// back). Builds that used two
// transactions could strand a fully acked message body on disk;
// reattach still garbage-collects such orphans from their data dirs.
// A failed WAL sync is not a crash: the commit stays applied, and the
// runtime must follow it.

#include <memory>
#include <string>
#include <utility>

#include "common/clock.h"
#include "common/failpoint.h"
#include "db/database.h"
#include "gtest/gtest.h"
#include "mq/queue_manager.h"
#include "test_util.h"
#include "testing/crash_harness.h"

namespace fp = edadb::failpoint;
using edadb::Database;
using edadb::DatabaseOptions;
using edadb::DequeueRequest;
using edadb::EnqueueRequest;
using edadb::kMicrosPerHour;
using edadb::kMicrosPerSecond;
using edadb::QueueManager;
using edadb::Record;
using edadb::RecordBuilder;
using edadb::SimulatedClock;
using edadb::TempDir;
using edadb::WalSyncPolicy;
using edadb::testing::ArmCrash;
using edadb::testing::ArmError;
using edadb::testing::FailpointGuard;
using edadb::testing::SimulatedCrash;

namespace {

class QueueCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Reopen();
    ASSERT_OK(queues_->CreateQueue("q"));
  }

  void Reopen() {
    queues_.reset();
    db_.reset();
    DatabaseOptions options;
    options.dir = dir_.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    options.clock = &clock_;
    auto db = Database::Open(std::move(options));
    ASSERT_OK(db.status());
    db_ = *std::move(db);
    auto queues = QueueManager::Attach(db_.get());
    ASSERT_OK(queues.status());
    queues_ = *std::move(queues);
  }

  EnqueueRequest Req(const std::string& payload) {
    EnqueueRequest request;
    request.payload = payload;
    return request;
  }

  /// Runs `op`, expecting the armed failpoint to kill it; disarms and
  /// "restarts the process".
  template <typename Op>
  void CrashDuring(Op op) {
    bool crashed = false;
    try {
      op();
    } catch (const SimulatedCrash&) {
      crashed = true;
    }
    EXPECT_TRUE(crashed) << "armed failpoint never fired";
    fp::DisarmAll();
    Reopen();
  }

  size_t MsgRows() { return *db_->CountRows("__q_q_msgs"); }
  size_t DlvRows() { return *db_->CountRows("__q_q_dlv"); }

  FailpointGuard guard_;
  TempDir dir_;
  SimulatedClock clock_{kMicrosPerHour};
  std::unique_ptr<Database> db_;
  std::unique_ptr<QueueManager> queues_;
  DequeueRequest dq_;
};

TEST_F(QueueCrashTest, AckCrashBeforeCommitRedeliversOnce) {
  ASSERT_OK(queues_->Enqueue("q", Req("acked")).status());
  auto msg = *queues_->Dequeue("q", dq_);
  ASSERT_TRUE(msg.has_value());

  ArmCrash("mq.finish.before_commit");
  CrashDuring([&] {
    EDADB_IGNORE_STATUS(queues_->Ack("q", "", msg->id),
                        "the armed crash fires before Ack returns");
  });

  // The ack never committed: both rows survive, the dequeue lock holds
  // until the visibility timeout, then the message comes back once.
  EXPECT_EQ(1u, MsgRows());
  EXPECT_EQ(1u, DlvRows());
  EXPECT_FALSE(queues_->Dequeue("q", dq_)->has_value());
  clock_.AdvanceMicros(31 * kMicrosPerSecond);
  auto redelivered = *queues_->Dequeue("q", dq_);
  ASSERT_TRUE(redelivered.has_value());
  EXPECT_EQ(redelivered->payload, "acked");
  EXPECT_EQ(redelivered->delivery_count, 2);
  ASSERT_OK(queues_->Ack("q", "", redelivered->id));
  clock_.AdvanceMicros(120 * kMicrosPerSecond);
  EXPECT_FALSE(queues_->Dequeue("q", dq_)->has_value());
  EXPECT_EQ(0u, MsgRows());
  EXPECT_EQ(0u, DlvRows());
}

TEST_F(QueueCrashTest, AckCrashAfterCommitNeverRedelivers) {
  ASSERT_OK(queues_->Enqueue("q", Req("acked")).status());
  auto msg = *queues_->Dequeue("q", dq_);
  ASSERT_TRUE(msg.has_value());

  ArmCrash("mq.finish.after_commit");
  CrashDuring([&] {
    EDADB_IGNORE_STATUS(queues_->Ack("q", "", msg->id),
                        "the armed crash fires before Ack returns");
  });

  // Both rows went in the one ack transaction; nothing comes back, even
  // after the visibility timeout.
  EXPECT_EQ(0u, DlvRows());
  EXPECT_EQ(0u, MsgRows());
  EXPECT_EQ(0u, *queues_->Depth("q", ""));
  clock_.AdvanceMicros(120 * kMicrosPerSecond);
  EXPECT_FALSE(queues_->Dequeue("q", dq_)->has_value());
}

// The ack's commit applied but its sync failed: the rows are gone, so
// the runtime must forget the message too. Otherwise the lapsed lock
// would put a deleted message back in the ready set, and every later
// dequeue would fail to load it.
TEST_F(QueueCrashTest, AckWithFailedSyncNeverRedelivers) {
  ASSERT_OK(queues_->Enqueue("q", Req("acked")).status());
  ASSERT_OK(queues_->Enqueue("q", Req("next")).status());
  auto msg = *queues_->Dequeue("q", dq_);
  ASSERT_TRUE(msg.has_value());
  ASSERT_EQ(msg->payload, "acked");

  ArmError("wal.sync");
  const edadb::Status acked = queues_->Ack("q", "", msg->id);
  fp::DisarmAll();
  EXPECT_TRUE(acked.IsDurabilityUnknown()) << acked;
  EXPECT_EQ(1u, MsgRows());
  EXPECT_EQ(1u, DlvRows());

  clock_.AdvanceMicros(31 * kMicrosPerSecond);
  auto next = queues_->Dequeue("q", dq_);
  ASSERT_OK(next.status());
  ASSERT_TRUE(next->has_value());
  EXPECT_EQ((*next)->payload, "next");
  ASSERT_OK(queues_->Ack("q", "", (*next)->id));
  auto empty = queues_->Dequeue("q", dq_);
  ASSERT_OK(empty.status());
  EXPECT_FALSE(empty->has_value());
  EXPECT_EQ(0u, MsgRows());
  EXPECT_EQ(0u, DlvRows());
}

// Data dirs written by builds that acked in two transactions can hold a
// message row whose last delivery row is gone. Reattach deletes it.
TEST_F(QueueCrashTest, ReattachCollectsOrphanedMessageRow) {
  ASSERT_OK(queues_->Enqueue("q", Req("kept")).status());
  auto msgs = db_->GetTable("__q_q_msgs");
  ASSERT_OK(msgs.status());
  Record orphan = *RecordBuilder((*msgs)->schema())
                       .SetTimestamp("enqueue_time", clock_.NowMicros())
                       .SetTimestamp("visible_at", clock_.NowMicros())
                       .SetTimestamp("expires_at", 0)
                       .SetInt64("priority", 0)
                       .SetString("payload", "orphan")
                       .Build();
  ASSERT_OK(db_->Insert("__q_q_msgs", std::move(orphan)).status());
  ASSERT_EQ(2u, MsgRows());
  ASSERT_EQ(1u, DlvRows());

  Reopen();
  EXPECT_EQ(1u, MsgRows()) << "orphaned message row survived reattach";
  EXPECT_EQ(1u, DlvRows());
  auto msg = *queues_->Dequeue("q", dq_);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "kept");
  EXPECT_FALSE(queues_->Dequeue("q", dq_)->has_value());
}

// A REMOVE-mode dequeue consumes in one transaction. Killed before it
// commits, the message is still ready after reattach: the next dequeue
// gets it at once, with no visibility timeout to wait out, and only
// once.
TEST_F(QueueCrashTest, RemoveCrashBeforeCommitLeavesMessageForNextDequeue) {
  ASSERT_OK(queues_->Enqueue("q", Req("kept")).status());
  DequeueRequest remove;
  remove.remove = true;

  ArmCrash("mq.finish.before_commit");
  CrashDuring([&] {
    EDADB_IGNORE_STATUS(queues_->Dequeue("q", remove),
                        "the armed crash fires before Dequeue returns");
  });

  EXPECT_EQ(1u, MsgRows());
  EXPECT_EQ(1u, DlvRows());
  auto msg = *queues_->Dequeue("q", remove);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "kept");
  EXPECT_EQ(msg->delivery_count, 1);
  EXPECT_FALSE(queues_->Dequeue("q", remove)->has_value());
  clock_.AdvanceMicros(120 * kMicrosPerSecond);
  EXPECT_FALSE(queues_->Dequeue("q", dq_)->has_value());
  EXPECT_EQ(0u, MsgRows());
  EXPECT_EQ(0u, DlvRows());
}

TEST_F(QueueCrashTest, RemoveCrashAfterCommitNeverRedelivers) {
  ASSERT_OK(queues_->Enqueue("q", Req("gone")).status());
  DequeueRequest remove;
  remove.remove = true;

  ArmCrash("mq.finish.after_commit");
  CrashDuring([&] {
    EDADB_IGNORE_STATUS(queues_->Dequeue("q", remove),
                        "the armed crash fires before Dequeue returns");
  });

  EXPECT_EQ(0u, MsgRows());
  EXPECT_EQ(0u, DlvRows());
  EXPECT_EQ(0u, *queues_->Depth("q", ""));
  EXPECT_FALSE(queues_->Dequeue("q", remove)->has_value());
  clock_.AdvanceMicros(120 * kMicrosPerSecond);
  EXPECT_FALSE(queues_->Dequeue("q", dq_)->has_value());
}

// The REMOVE commit applied but its sync failed: the caller gets the
// message (the rows are gone in this process), and the runtime forgets
// it, so it is never redelivered. The ack-path twin of this is
// AckWithFailedSyncNeverRedelivers.
TEST_F(QueueCrashTest, RemoveWithFailedSyncReturnsAndNeverRedelivers) {
  ASSERT_OK(queues_->Enqueue("q", Req("removed")).status());
  ASSERT_OK(queues_->Enqueue("q", Req("next")).status());
  DequeueRequest remove;
  remove.remove = true;

  ArmError("wal.sync");
  auto removed = queues_->Dequeue("q", remove);
  fp::DisarmAll();
  ASSERT_OK(removed.status());
  ASSERT_TRUE(removed->has_value());
  EXPECT_EQ((*removed)->payload, "removed");
  EXPECT_EQ(1u, MsgRows());
  EXPECT_EQ(1u, DlvRows());

  clock_.AdvanceMicros(31 * kMicrosPerSecond);
  auto next = queues_->Dequeue("q", remove);
  ASSERT_OK(next.status());
  ASSERT_TRUE(next->has_value());
  EXPECT_EQ((*next)->payload, "next");
  auto empty = queues_->Dequeue("q", dq_);
  ASSERT_OK(empty.status());
  EXPECT_FALSE(empty->has_value());
  EXPECT_EQ(0u, MsgRows());
  EXPECT_EQ(0u, DlvRows());
}

TEST_F(QueueCrashTest, DequeueCrashBeforeLockPersistRedeliversFresh) {
  ASSERT_OK(queues_->Enqueue("q", Req("unlucky")).status());
  ArmCrash("mq.dequeue.before_lock_persist");
  CrashDuring([&] {
    EDADB_IGNORE_STATUS(queues_->Dequeue("q", dq_),
                        "the armed crash fires before Dequeue returns");
  });

  // The lock was never persisted, so recovery sees a ready message and
  // the aborted delivery attempt does not count.
  auto msg = *queues_->Dequeue("q", dq_);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "unlucky");
  EXPECT_EQ(msg->delivery_count, 1);
}

TEST_F(QueueCrashTest, EnqueueCrashBeforeCommitLeavesNoGhost) {
  ArmCrash("mq.enqueue.before_commit");
  CrashDuring([&] {
    EDADB_IGNORE_STATUS(queues_->Enqueue("q", Req("ghost")),
                        "the armed crash fires before Enqueue returns");
  });

  EXPECT_EQ(0u, MsgRows());
  EXPECT_EQ(0u, DlvRows());
  EXPECT_EQ(0u, *queues_->Depth("q", ""));
  EXPECT_FALSE(queues_->Dequeue("q", dq_)->has_value());
}

TEST_F(QueueCrashTest, NackCrashBeforePersistKeepsMessageDeliverable) {
  ASSERT_OK(queues_->Enqueue("q", Req("retry me")).status());
  auto msg = *queues_->Dequeue("q", dq_);
  ASSERT_TRUE(msg.has_value());

  ArmCrash("mq.nack.before_persist");
  CrashDuring([&] {
    EDADB_IGNORE_STATUS(queues_->Nack("q", "", msg->id),
                        "the armed crash fires before Nack returns");
  });

  // The nack never landed: the dequeue lock still holds...
  EXPECT_FALSE(queues_->Dequeue("q", dq_)->has_value());
  // ...until the visibility timeout redelivers, at-least-once intact.
  clock_.AdvanceMicros(31 * kMicrosPerSecond);
  auto redelivered = *queues_->Dequeue("q", dq_);
  ASSERT_TRUE(redelivered.has_value());
  EXPECT_EQ(redelivered->payload, "retry me");
  EXPECT_EQ(redelivered->delivery_count, 2);
}

// Dead-lettering stages the dead-letter copy in the transaction that
// finishes the delivery. A crash at any point of it leaves the message
// in exactly one of the two queues: after the restart, one more walk of
// the source queue (which dead-letters it if it is still there) leaves
// the source empty and exactly one copy in the dead-letter queue.
TEST_F(QueueCrashTest, DeadLetterMovesExactlyOnceAtEveryCrashSite) {
  const char* const kSites[] = {
      "mq.finish.before_commit", "mq.finish.after_commit",
      "db.commit.before_wal",    "db.commit.after_ops",
      "db.commit.before_sync",   "db.commit.after_sync"};
  int round = 0;
  for (const char* site : kSites) {
    for (const uint64_t skip : {0, 1}) {
      SCOPED_TRACE(std::string(site) + " skip " + std::to_string(skip));
      const std::string source = "src" + std::to_string(round);
      const std::string dlq = "dlq" + std::to_string(round);
      ++round;
      edadb::QueueCreateOptions options;
      options.max_deliveries = 1;
      options.dead_letter_queue = dlq;
      ASSERT_OK(queues_->CreateQueue(dlq));
      ASSERT_OK(queues_->CreateQueue(source, options));
      ASSERT_OK(queues_->Enqueue(source, Req("poison")).status());
      auto msg = *queues_->Dequeue(source, dq_);
      ASSERT_TRUE(msg.has_value());

      // The nack finds the one delivery spent and dead-letters.
      ArmCrash(site, skip);
      try {
        EDADB_IGNORE_STATUS(queues_->Nack(source, "", msg->id),
                            "the armed crash may fire before Nack returns");
      } catch (const SimulatedCrash&) {
      }
      fp::DisarmAll();
      Reopen();

      clock_.AdvanceMicros(31 * kMicrosPerSecond);
      auto walked = queues_->Dequeue(source, dq_);
      ASSERT_OK(walked.status());
      EXPECT_FALSE(walked->has_value());
      EXPECT_EQ(0u, *db_->CountRows("__q_" + source + "_msgs"));
      EXPECT_EQ(0u, *db_->CountRows("__q_" + source + "_dlv"));
      DequeueRequest remove;
      remove.remove = true;
      auto copy = queues_->Dequeue(dlq, remove);
      ASSERT_OK(copy.status());
      ASSERT_TRUE(copy->has_value());
      EXPECT_EQ((*copy)->payload, "poison");
      EXPECT_FALSE(queues_->Dequeue(dlq, remove)->has_value())
          << "dead-lettered twice";
    }
  }
}

// A dead-letter transaction that fails without applying leaves the
// message in its queue, uncopied; the next walk moves it once.
TEST_F(QueueCrashTest, FailedDeadLetterCommitKeepsMessageInSource) {
  edadb::QueueCreateOptions options;
  options.max_deliveries = 1;
  options.dead_letter_queue = "dlq";
  ASSERT_OK(queues_->CreateQueue("dlq"));
  ASSERT_OK(queues_->CreateQueue("src", options));
  ASSERT_OK(queues_->Enqueue("src", Req("poison")).status());
  auto msg = *queues_->Dequeue("src", dq_);
  ASSERT_TRUE(msg.has_value());

  ArmError("db.commit.before_wal");
  EXPECT_FALSE(queues_->Nack("src", "", msg->id).ok());
  fp::DisarmAll();
  EXPECT_EQ(1u, *db_->CountRows("__q_src_msgs"));
  EXPECT_EQ(0u, *db_->CountRows("__q_dlq_msgs"));

  clock_.AdvanceMicros(31 * kMicrosPerSecond);
  EXPECT_FALSE(queues_->Dequeue("src", dq_)->has_value());
  EXPECT_EQ(0u, *db_->CountRows("__q_src_msgs"));
  EXPECT_EQ(1u, *db_->CountRows("__q_dlq_msgs"));
  EXPECT_EQ(1u, *queues_->Depth("dlq", ""));
}

}  // namespace
