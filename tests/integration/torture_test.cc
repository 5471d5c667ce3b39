// Crash-recovery torture harness (the tentpole of the failpoint layer).
//
// Each schedule runs a randomized workload of inserts, multi-op
// transactions, enqueues, dequeues (some in REMOVE mode, which consume
// as they take), acks, nacks and checkpoints against
// a real Database + QueueManager with ONE failpoint armed to simulate a
// process crash. The "kill" is a SimulatedCrash exception thrown by the
// test crash handler: it unwinds out of the library (which never
// catches), the rig drops the Database with no shutdown sync, and the
// on-disk state is frozen exactly as it was at the failpoint. The rig
// then reopens the database — running real WAL recovery and queue
// runtime rebuild — and checks the durability contract:
//
//   1. committed transactions survive, in full;
//   2. uncommitted / in-flight transactions vanish atomically;
//   3. acked messages are never redelivered;
//   4. confirmed-enqueued, never-acked messages are redelivered
//      at-least-once;
//   5. depth accounting is conserved: after a full drain no message or
//      delivery rows are left behind (an ack that deleted its two rows
//      in separate transactions would strand message rows here).
//
// Everything derives from EDADB_TEST_SEED, so any failure reproduces
// byte-for-byte from the seed printed on exit.

#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "common/clock.h"
#include "common/failpoint.h"
#include "db/database.h"
#include "mq/queue_manager.h"
#include "test_util.h"
#include "testing/crash_harness.h"
#include "testing/seeded_rng.h"
#include "value/record.h"
#include "value/schema.h"

namespace fp = edadb::failpoint;
using edadb::Database;
using edadb::DatabaseOptions;
using edadb::DequeueRequest;
using edadb::EnqueueRequest;
using edadb::kMicrosPerHour;
using edadb::kMicrosPerSecond;
using edadb::QueueCreateOptions;
using edadb::QueueManager;
using edadb::Random;
using edadb::Record;
using edadb::RecordBuilder;
using edadb::RowId;
using edadb::Schema;
using edadb::SchemaPtr;
using edadb::SimulatedClock;
using edadb::Table;
using edadb::TempDir;
using edadb::ValueType;
using edadb::WalSyncPolicy;
using edadb::testing::ArmCrash;
using edadb::testing::FailpointGuard;
using edadb::testing::SimulatedCrash;
using edadb::testing::TestSeed;

namespace {

constexpr int64_t kVisibilityMicros = 30 * kMicrosPerSecond;

// Every site the torture sweep kills the process at, spanning the wal,
// db and mq layers of the durable path.
constexpr const char* kCrashSites[] = {
    "wal.append.before",
    "wal.append.torn",
    "wal.append.after",
    "wal.sync",
    "wal.roll",
    "db.commit.before_wal",
    "db.commit.after_ops",
    "db.commit.before_sync",
    "db.commit.after_sync",
    "db.checkpoint.before_snapshot",
    "db.checkpoint.before_meta",
    "wal.group_commit.leader",
    "mq.enqueue.before_commit",
    "mq.enqueue_batch.mid",
    "mq.dequeue.before_lock_persist",
    "mq.ack.before_finish",
    "mq.finish.before_commit",
    "mq.finish.after_commit",
    "mq.nack.before_persist",
};
constexpr size_t kNumCrashSites = sizeof(kCrashSites) / sizeof(kCrashSites[0]);

/// What the workload believes about durable state. Operations move ids
/// from "uncertain" to "confirmed" only when the library reports
/// success; anything in flight when the crash hits stays uncertain, and
/// recovery may legitimately resolve it either way.
struct Oracle {
  std::set<int64_t> committed_tags;
  std::set<int64_t> uncertain_tags;
  std::map<int64_t, int> tag_rows;  // Rows per tag (1 or 3).

  std::set<int64_t> enq_confirmed;
  std::set<int64_t> enq_uncertain;
  std::set<int64_t> ack_confirmed;
  std::set<int64_t> ack_uncertain;
  /// Batches whose EnqueueBatch did not report success: recovery must
  /// resolve each one all-or-none (its ids are also in enq_uncertain).
  std::vector<std::vector<int64_t>> enq_uncertain_batches;
};

int64_t TagOf(const Record& record) {
  auto v = record.Get("tag");
  if (!v.ok()) return -1;
  auto i = v->AsInt64();
  return i.ok() ? *i : -1;
}

/// One database-under-torture: temp dir, simulated clock, reopenable
/// Database + QueueManager.
class TortureRig {
 public:
  TortureRig() = default;

  void Init() {
    Reopen();
    ASSERT_TRUE(db_ != nullptr);
    if (!db_->GetTable("events").ok()) {
      ASSERT_OK(db_->CreateTable(
                       "events",
                       Schema::Make({{"tag", ValueType::kInt64, false}}))
                    .status());
      QueueCreateOptions qopts;
      qopts.max_deliveries = 1000000;  // Keep the DLQ out of the picture.
      qopts.visibility_timeout_micros = kVisibilityMicros;
      ASSERT_OK(queues_->CreateQueue("q", qopts));
    }
  }

  /// The simulated process restart: drops both objects with no shutdown
  /// handshake and runs real recovery.
  void Reopen() {
    queues_.reset();
    db_.reset();
    DatabaseOptions options;
    options.dir = dir_.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    options.wal_segment_size_bytes = 4096;  // Small: exercise rolls.
    options.clock = &clock_;
    auto db = Database::Open(std::move(options));
    ASSERT_OK(db.status());
    db_ = *std::move(db);
    auto queues = QueueManager::Attach(db_.get());
    ASSERT_OK(queues.status());
    queues_ = *std::move(queues);
  }

  /// Runs `ops` random operations; returns true if a simulated crash
  /// cut the workload short.
  bool RunWorkload(Random* rng, int ops, Oracle* oracle) {
    try {
      for (int i = 0; i < ops; ++i) DoOneOp(rng, oracle);
    } catch (const SimulatedCrash&) {
      return true;
    }
    return false;
  }

  /// Full invariant check. Call with every failpoint disarmed, after
  /// Reopen().
  void VerifyInvariants(const Oracle& oracle) {
    // --- Database: durability + atomicity -----------------------------
    auto events = db_->GetTable("events");
    ASSERT_OK(events.status());
    std::map<int64_t, int> present;
    (*events)->ScanRows([&](RowId, const Record& record) {
      ++present[TagOf(record)];
      return true;
    });
    for (const int64_t tag : oracle.committed_tags) {
      auto it = present.find(tag);
      ASSERT_TRUE(it != present.end())
          << "committed tag " << tag << " lost by recovery";
      EXPECT_EQ(oracle.tag_rows.at(tag), it->second)
          << "committed tag " << tag << " partially recovered";
    }
    for (const auto& [tag, count] : present) {
      EXPECT_TRUE(oracle.committed_tags.count(tag) > 0 ||
                  oracle.uncertain_tags.count(tag) > 0)
          << "phantom tag " << tag << " appeared after recovery";
      EXPECT_EQ(oracle.tag_rows.at(tag), count)
          << "tag " << tag << " violates transaction atomicity";
    }

    // --- Queue: conservation before the drain -------------------------
    // Single consumer group, so every live message row must have
    // exactly one delivery row. The ack deletes both in one
    // transaction, so no crash may leave a message row behind.
    auto msg_rows = db_->CountRows("__q_q_msgs");
    auto dlv_rows = db_->CountRows("__q_q_dlv");
    ASSERT_OK(msg_rows.status());
    ASSERT_OK(dlv_rows.status());
    EXPECT_EQ(*msg_rows, *dlv_rows)
        << "message/delivery row mismatch after recovery";

    // --- Queue: drain and check delivery guarantees -------------------
    std::set<int64_t> drained;
    DequeueRequest dq;
    bool drained_everything = false;
    for (int round = 0; round < 100000; ++round) {
      auto m = queues_->Dequeue("q", dq);
      ASSERT_OK(m.status());
      if (m->has_value()) {
        const int64_t mid = std::stoll((*m)->payload);
        EXPECT_EQ(0u, drained.count(mid))
            << "message " << mid << " delivered twice within the drain";
        drained.insert(mid);
        ASSERT_OK(queues_->Ack("q", "", (*m)->id));
        continue;
      }
      auto remaining = db_->CountRows("__q_q_dlv");
      ASSERT_OK(remaining.status());
      if (*remaining == 0) {
        drained_everything = true;
        break;
      }
      // Locked or delayed survivors: jump past the visibility timeout.
      clock_.AdvanceMicros(kVisibilityMicros + kMicrosPerSecond);
    }
    ASSERT_TRUE(drained_everything) << "queue never fully drained";

    EXPECT_EQ(static_cast<size_t>(*dlv_rows), drained.size())
        << "drain did not conserve queue depth";
    auto final_msgs = db_->CountRows("__q_q_msgs");
    ASSERT_OK(final_msgs.status());
    EXPECT_EQ(0u, *final_msgs) << "message rows leaked after full drain";
    auto depth = queues_->Depth("q", "");
    ASSERT_OK(depth.status());
    EXPECT_EQ(0u, *depth);

    for (const int64_t mid : oracle.ack_confirmed) {
      EXPECT_EQ(0u, drained.count(mid))
          << "acked message " << mid << " was redelivered";
    }
    for (const int64_t mid : oracle.enq_confirmed) {
      if (oracle.ack_confirmed.count(mid) > 0 ||
          oracle.ack_uncertain.count(mid) > 0) {
        continue;
      }
      EXPECT_EQ(1u, drained.count(mid))
          << "unacked message " << mid << " was lost (at-least-once)";
    }
    for (const int64_t mid : drained) {
      EXPECT_TRUE(oracle.enq_confirmed.count(mid) > 0 ||
                  oracle.enq_uncertain.count(mid) > 0)
          << "phantom message " << mid << " appeared after recovery";
    }

    // --- Queue: batch atomicity ---------------------------------------
    // A batch whose EnqueueBatch never returned success is one
    // transaction: after recovery either every message surfaced in the
    // drain or none did.
    for (const std::vector<int64_t>& batch : oracle.enq_uncertain_batches) {
      size_t batch_present = 0;
      for (const int64_t mid : batch) batch_present += drained.count(mid);
      EXPECT_TRUE(batch_present == 0 || batch_present == batch.size())
          << "crash mid-batch left a partial batch: " << batch_present
          << " of " << batch.size() << " messages recovered";
    }
    drained_count_ = drained.size();
  }

  /// Compact schedule outcome for determinism checks.
  std::string Summary(const Oracle& oracle, bool crashed) const {
    std::ostringstream os;
    os << "crashed=" << crashed << " committed=" << oracle.committed_tags.size()
       << " uncertain=" << oracle.uncertain_tags.size()
       << " enq=" << oracle.enq_confirmed.size()
       << " acked=" << oracle.ack_confirmed.size()
       << " drained=" << drained_count_;
    return os.str();
  }

  Database* db() { return db_.get(); }
  QueueManager* queues() { return queues_.get(); }

 private:
  void DoOneOp(Random* rng, Oracle* oracle) {
    const uint64_t kind = rng->Uniform(14);
    if (kind < 3) {
      InsertOne(oracle);
    } else if (kind < 5) {
      InsertTxn(oracle);
    } else if (kind < 7) {
      EnqueueOne(oracle);
    } else if (kind < 9) {
      EnqueueBatchOp(rng, oracle);
    } else if (kind < 12) {
      DequeueOne(rng, oracle);
    } else {
      EDADB_IGNORE_STATUS(
          db_->Checkpoint(db_->wal_end_lsn()),
          "checkpoint may fail under the armed fault; recovery invariants "
          "are asserted after the schedule");
    }
  }

  void InsertOne(Oracle* oracle) {
    const int64_t tag = next_tag_++;
    oracle->tag_rows[tag] = 1;
    oracle->uncertain_tags.insert(tag);
    auto table = db_->GetTable("events");
    if (!table.ok()) return;
    auto row = RecordBuilder((*table)->schema()).SetInt64("tag", tag).Build();
    if (!row.ok()) return;
    if (db_->Insert("events", *std::move(row)).ok()) {
      oracle->uncertain_tags.erase(tag);
      oracle->committed_tags.insert(tag);
    }
  }

  void InsertTxn(Oracle* oracle) {
    const int64_t tag = next_tag_++;
    oracle->tag_rows[tag] = 3;
    oracle->uncertain_tags.insert(tag);
    auto table = db_->GetTable("events");
    if (!table.ok()) return;
    auto txn = db_->BeginTransaction();
    for (int i = 0; i < 3; ++i) {
      auto row =
          RecordBuilder((*table)->schema()).SetInt64("tag", tag).Build();
      if (!row.ok() || !txn->Insert("events", *std::move(row)).ok()) return;
    }
    if (txn->Commit().ok()) {
      oracle->uncertain_tags.erase(tag);
      oracle->committed_tags.insert(tag);
    }
  }

  void EnqueueOne(Oracle* oracle) {
    const int64_t mid = next_msg_++;
    oracle->enq_uncertain.insert(mid);
    EnqueueRequest request;
    request.payload = std::to_string(mid);
    if (queues_->Enqueue("q", request).ok()) {
      oracle->enq_uncertain.erase(mid);
      oracle->enq_confirmed.insert(mid);
    }
  }

  void EnqueueBatchOp(Random* rng, Oracle* oracle) {
    const size_t n = 2 + rng->Uniform(3);
    std::vector<int64_t> mids;
    std::vector<EnqueueRequest> requests;
    for (size_t i = 0; i < n; ++i) {
      const int64_t mid = next_msg_++;
      mids.push_back(mid);
      oracle->enq_uncertain.insert(mid);
      EnqueueRequest request;
      request.payload = std::to_string(mid);
      requests.push_back(std::move(request));
    }
    if (queues_->EnqueueBatch("q", requests).ok()) {
      for (const int64_t mid : mids) {
        oracle->enq_uncertain.erase(mid);
        oracle->enq_confirmed.insert(mid);
      }
    } else {
      // Crash or injected error mid-batch: the ids stay individually
      // uncertain AND the batch must resolve atomically (checked in
      // VerifyInvariants). These ids never return to the workload, so
      // none can be acked/dequeued before the crash.
      oracle->enq_uncertain_batches.push_back(std::move(mids));
    }
  }

  void DequeueOne(Random* rng, Oracle* oracle) {
    if (rng->Uniform(4) == 0) {
      RemoveOne(oracle);
      return;
    }
    DequeueRequest dq;
    auto m = queues_->Dequeue("q", dq);
    if (!m.ok() || !m->has_value()) return;
    const int64_t mid = std::stoll((*m)->payload);
    const uint64_t then = rng->Uniform(3);
    if (then == 0) {
      oracle->ack_uncertain.insert(mid);
      if (queues_->Ack("q", "", (*m)->id).ok()) {
        oracle->ack_uncertain.erase(mid);
        oracle->ack_confirmed.insert(mid);
      }
    } else if (then == 1) {
      EDADB_IGNORE_STATUS(
          queues_->Nack("q", "", (*m)->id),
          "nack may fail under the armed fault; redelivery invariants are "
          "asserted after the schedule");
    }
    // else: consumer "walks away" holding the lock; the visibility
    // timeout must eventually redeliver.
  }

  /// A REMOVE-mode dequeue consumes what it takes in its own commit, so
  /// it is an ack: the message it will take (the first one Browse
  /// shows, since this rig is single-threaded and keeps the dead-letter
  /// queue out) is ack-uncertain for the call, and ack-confirmed once
  /// the call returns it.
  void RemoveOne(Oracle* oracle) {
    int64_t next = -1;
    const auto first = [&](const edadb::Message& message) {
      next = std::stoll(message.payload);
      return false;  // Only the first one.
    };
    if (!queues_->Browse("q", "", first).ok() || next < 0) return;
    oracle->ack_uncertain.insert(next);
    DequeueRequest dq;
    dq.remove = true;
    auto m = queues_->Dequeue("q", dq);
    // Armed sites only crash, and a crash never returns here.
    EXPECT_TRUE(m.ok() && m->has_value())
        << "REMOVE dequeue came back empty; Browse showed message " << next;
    if (!m.ok() || !m->has_value()) return;
    const int64_t mid = std::stoll((*m)->payload);
    EXPECT_EQ(next, mid) << "REMOVE dequeue took another message than "
                            "Browse showed first";
    oracle->ack_uncertain.erase(mid);
    oracle->ack_confirmed.insert(mid);
  }

  TempDir dir_;
  SimulatedClock clock_{kMicrosPerHour};
  std::unique_ptr<Database> db_;
  std::unique_ptr<QueueManager> queues_;
  int64_t next_tag_ = 1;
  int64_t next_msg_ = 1;
  size_t drained_count_ = 0;
};

/// Runs one complete schedule: fresh database, one armed crash site,
/// randomized workload, recovery, invariant check. Returns a summary
/// string and sets *crashed.
std::string RunSchedule(uint64_t schedule_id, const char* site, uint64_t skip,
                        int64_t torn_arg, int workload_ops, bool* crashed) {
  TortureRig rig;
  rig.Init();
  if (::testing::Test::HasFatalFailure()) return "init-failed";

  fp::DisarmAll();
  ArmCrash(site, skip, torn_arg);
  Random rng(TestSeed() ^ (0xC0FFEE + schedule_id * 0x9E3779B97F4A7C15ULL));
  Oracle oracle;
  *crashed = rig.RunWorkload(&rng, workload_ops, &oracle);
  fp::DisarmAll();

  // Restart regardless: recovery must be a no-op after a clean run.
  rig.Reopen();
  if (::testing::Test::HasFatalFailure()) return "reopen-failed";
  rig.VerifyInvariants(oracle);
  return rig.Summary(oracle, *crashed);
}

int ScheduleCount() {
  const char* env = std::getenv("EDADB_TORTURE_SCHEDULES");
  if (env != nullptr && *env != '\0') {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 210;
}

// Deterministic sweep: kill the database at every site, at the first
// and at a later hit, with a workload big enough to reach each layer.
TEST(TortureTest, CrashSweepOverEverySite) {
  FailpointGuard guard;
  std::set<std::string> crashed_sites;
  uint64_t schedule_id = 0;
  for (size_t s = 0; s < kNumCrashSites; ++s) {
    for (const uint64_t skip : {0u, 3u}) {
      bool crashed = false;
      RunSchedule(schedule_id++, kCrashSites[s], skip, /*torn_arg=*/5,
                  /*workload_ops=*/30, &crashed);
      if (HasFatalFailure()) {
        FAIL() << "sweep died at site " << kCrashSites[s] << " skip "
               << skip;
      }
      if (crashed) crashed_sites.insert(kCrashSites[s]);
    }
  }
  // The acceptance bar: crashes actually happened across >= 8 distinct
  // sites spanning wal/db/mq (a site a workload never reaches cannot
  // crash it — but most must).
  EXPECT_GE(crashed_sites.size(), 8u)
      << "sweep reached too few sites; workload mix is too narrow";
  int wal = 0, db = 0, mq = 0;
  for (const std::string& site : crashed_sites) {
    if (site.rfind("wal.", 0) == 0) ++wal;
    if (site.rfind("db.", 0) == 0) ++db;
    if (site.rfind("mq.", 0) == 0) ++mq;
  }
  EXPECT_GT(wal, 0);
  EXPECT_GT(db, 0);
  EXPECT_GT(mq, 0);
}

// The 200+ randomized schedules: site, hit index, torn-write length and
// workload all drawn from the one seeded stream.
TEST(TortureTest, RandomizedCrashRecoverySchedules) {
  FailpointGuard guard;
  const int schedules = ScheduleCount();
  Random rng(TestSeed() ^ 0x7062747572655F31ULL);
  int crashes = 0;
  std::set<std::string> crashed_sites;
  for (int i = 0; i < schedules; ++i) {
    const char* site = kCrashSites[rng.Uniform(kNumCrashSites)];
    const uint64_t skip = rng.Uniform(10);
    const int64_t torn_arg = static_cast<int64_t>(rng.Uniform(24));
    const int ops = 10 + static_cast<int>(rng.Uniform(15));
    bool crashed = false;
    RunSchedule(1000 + i, site, skip, torn_arg, ops, &crashed);
    if (HasFatalFailure()) {
      FAIL() << "schedule " << i << " (site " << site << ", skip " << skip
             << ") failed; EDADB_TEST_SEED=" << TestSeed();
    }
    if (crashed) {
      ++crashes;
      crashed_sites.insert(site);
    }
  }
  // Most schedules should actually die mid-workload; all must recover.
  EXPECT_GT(crashes, schedules / 4);
  // Site coverage is a property of the full run; a bounded pass
  // (EDADB_TORTURE_SCHEDULES < 100, e.g. the check.sh ASan stage)
  // can't visit every site.
  if (schedules >= 100) {
    EXPECT_GE(crashed_sites.size(), 8u);
  }
}

// Same schedule id -> byte-identical outcome: the whole harness replays
// from the seed.
TEST(TortureTest, SchedulesAreDeterministic) {
  FailpointGuard guard;
  for (const uint64_t id : {7u, 8u}) {
    bool crashed_a = false, crashed_b = false;
    const std::string a =
        RunSchedule(5000 + id, kCrashSites[id % kNumCrashSites], 2, 9, 24,
                    &crashed_a);
    ASSERT_FALSE(HasFatalFailure());
    const std::string b =
        RunSchedule(5000 + id, kCrashSites[id % kNumCrashSites], 2, 9, 24,
                    &crashed_b);
    ASSERT_FALSE(HasFatalFailure());
    EXPECT_EQ(a, b) << "schedule " << id << " is not deterministic";
    EXPECT_EQ(crashed_a, crashed_b);
  }
}

}  // namespace
