// Multi-shard crash-recovery torture: the sharded delivery core under
// the same kill-anywhere discipline as the single-domain torture_test,
// plus the two windows that only exist with shards:
//
//   - one shard's WAL dies mid-group-commit while the other shards'
//     pipelines are untouched (recovery replays each stream
//     independently);
//   - the cross-shard handoff crashes between the destination commit
//     and the source ack ("mq.propagate.handoff"), or before the
//     destination commit ("mq.handoff.before_commit");
//   - a propagation hop crashes while it holds its batch leased in
//     memory ("mq.propagate.leased").
//
// Messages travel src -> mid -> dst: a same-shard hop (the one settle
// that forwards) and then a cross-shard handoff.
//
// Invariants after recovery:
//
//   1. per-shard depth conservation: on every shard, message rows ==
//      delivery rows for each of its queues (single consumer group);
//   2. messages acked on the destination are never redelivered;
//   3. propagated messages are exactly-once-visible: after the
//      propagator re-drains src and mid, every confirmed source message
//      surfaces on the destination exactly once. The same-shard hop
//      moves it in one transaction; the handoff is at-least-once
//      transport with an idempotence ledger, so its crash window
//      replays into a no-op, not a duplicate. A copy lost or doubled on
//      either hop shows at dst.
//
// Everything derives from EDADB_TEST_SEED; EDADB_TORTURE_SCHEDULES
// bounds the randomized count.

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
#include "mq/propagation.h"
#include "mq/queue_manager.h"
#include "mq/shard_router.h"
#include "test_util.h"
#include "testing/crash_harness.h"
#include "testing/seeded_rng.h"

namespace fp = edadb::failpoint;
using edadb::Database;
using edadb::DatabaseOptions;
using edadb::DequeueRequest;
using edadb::EnqueueRequest;
using edadb::kMicrosPerHour;
using edadb::kMicrosPerSecond;
using edadb::PropagationRule;
using edadb::Propagator;
using edadb::QueueCreateOptions;
using edadb::Random;
using edadb::ShardRouter;
using edadb::SimulatedClock;
using edadb::TempDir;
using edadb::WalSyncPolicy;
using edadb::testing::ArmCrash;
using edadb::testing::FailpointGuard;
using edadb::testing::SimulatedCrash;
using edadb::testing::TestSeed;

namespace {

constexpr size_t kShards = 4;
constexpr int64_t kVisibilityMicros = 30 * kMicrosPerSecond;

// Kill sites spanning one shard's WAL/commit pipeline (whichever shard
// happens to be executing when the site fires), the cross-shard
// handoff protocol's two windows and a hop's leased batch.
constexpr const char* kCrashSites[] = {
    "wal.append.before",
    "wal.append.torn",
    "wal.sync",
    "wal.group_commit.leader",
    "db.commit.after_ops",
    "db.commit.before_sync",
    "db.commit.after_sync",
    "mq.enqueue.before_commit",
    "mq.enqueue_batch.mid",
    "mq.dequeue.before_lock_persist",
    "mq.ack.before_finish",
    "mq.finish.before_commit",
    "mq.finish.after_commit",
    "mq.handoff.before_commit",
    "mq.propagate.handoff",
    "mq.propagate.leased",
};
constexpr size_t kNumCrashSites = sizeof(kCrashSites) / sizeof(kCrashSites[0]);

struct Oracle {
  std::set<int64_t> enq_confirmed;   // Enqueued on source, reported OK.
  std::set<int64_t> enq_uncertain;   // Enqueue in flight at the crash.
  std::set<int64_t> ack_confirmed;   // Acked on destination, reported OK.
  std::set<int64_t> ack_uncertain;
  std::vector<std::vector<int64_t>> enq_uncertain_batches;
};

/// Sharded rig: primary database + 4-shard router + propagator with a
/// same-shard rule src -> mid and a cross-shard rule mid -> dst.
class ShardTortureRig {
 public:
  void Init(WalSyncPolicy sync_policy) {
    sync_policy_ = sync_policy;
    Reopen();
    ASSERT_TRUE(router_ != nullptr);
    // src and mid share a shard, so the first hop is a same-shard
    // forward; dst lives on another, so the second is a handoff.
    src_ = NameOnShard(1, "src");
    mid_ = NameOnShard(1, "mid");
    dst_ = NameOnShard(2, "dst");
    QueueCreateOptions qopts;
    qopts.max_deliveries = 1000000;  // Keep the DLQ out of the picture.
    qopts.visibility_timeout_micros = kVisibilityMicros;
    for (const std::string& queue : {src_, mid_, dst_}) {
      ASSERT_OK(router_->CreateQueue(queue, qopts));
    }
    WireRule();
  }

  /// Simulated process restart: drop everything with no shutdown
  /// handshake, reopen the primary, and let ShardRouter::Open replay
  /// every shard's WAL stream independently.
  void Reopen() {
    propagator_.reset();
    router_.reset();
    db_.reset();
    DatabaseOptions options;
    options.dir = dir_.path();
    options.wal_sync_policy = sync_policy_;
    options.wal_segment_size_bytes = 4096;  // Small: exercise rolls.
    options.clock = &clock_;
    auto db = Database::Open(std::move(options));
    ASSERT_OK(db.status());
    db_ = *std::move(db);
    auto router = ShardRouter::Open(db_.get(), kShards);
    ASSERT_OK(router.status());
    router_ = *std::move(router);
    if (!src_.empty()) WireRule();
  }

  bool RunWorkload(Random* rng, int ops, Oracle* oracle) {
    try {
      for (int i = 0; i < ops; ++i) DoOneOp(rng, oracle);
    } catch (const SimulatedCrash&) {
      return true;
    }
    return false;
  }

  /// Full invariant check; call after Reopen() with failpoints disarmed.
  void VerifyInvariants(const Oracle& oracle) {
    // --- 1. Per-shard depth conservation ------------------------------
    for (const std::string& queue : {src_, mid_, dst_}) {
      Database* shard_db = router_->shard_db(router_->ShardOf(queue));
      auto msgs = shard_db->CountRows("__q_" + queue + "_msgs");
      auto dlvs = shard_db->CountRows("__q_" + queue + "_dlv");
      ASSERT_OK(msgs.status());
      ASSERT_OK(dlvs.status());
      EXPECT_EQ(*msgs, *dlvs)
          << "shard " << router_->ShardOf(queue) << " queue '" << queue
          << "' lost depth conservation after recovery";
    }

    // --- Re-drain src and mid through both hops -----------------------
    // The propagator retries whatever the crash left behind; the dedup
    // ledger must turn replays of already-committed handoffs into
    // no-ops.
    // mid shares src's shard.
    Database* src_db = router_->shard_db(router_->ShardOf(src_));
    const auto left = [&] {
      size_t rows = 0;
      for (const std::string& queue : {src_, mid_}) {
        auto n = src_db->CountRows("__q_" + queue + "_msgs");
        EXPECT_OK(n.status());
        if (n.ok()) rows += *n;
      }
      return rows;
    };
    for (int round = 0; round < 100000; ++round) {
      auto n = propagator_->RunOnce();
      ASSERT_OK(n.status());
      if (left() == 0) break;
      // Locked survivors (a lease lapses in the live process, a lock
      // survives a crash): jump past the visibility timeout so they
      // redeliver.
      clock_.AdvanceMicros(kVisibilityMicros + kMicrosPerSecond);
    }
    ASSERT_EQ(0u, left()) << "src and mid never fully propagated";

    // --- 2 + 3. Drain the destination: exactly-once visibility --------
    std::set<int64_t> drained;
    DequeueRequest dq;
    bool drained_everything = false;
    for (int round = 0; round < 100000; ++round) {
      auto m = router_->Dequeue(dst_, dq);
      ASSERT_OK(m.status());
      if (m->has_value()) {
        const int64_t mid = std::stoll((*m)->payload);
        EXPECT_EQ(0u, drained.count(mid))
            << "message " << mid << " delivered twice from the destination";
        drained.insert(mid);
        ASSERT_OK(router_->Ack(dst_, "", (*m)->id));
        continue;
      }
      Database* dst_db = router_->shard_db(router_->ShardOf(dst_));
      auto remaining = dst_db->CountRows("__q_" + dst_ + "_dlv");
      ASSERT_OK(remaining.status());
      if (*remaining == 0) {
        drained_everything = true;
        break;
      }
      clock_.AdvanceMicros(kVisibilityMicros + kMicrosPerSecond);
    }
    ASSERT_TRUE(drained_everything) << "destination never fully drained";

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
          << "handed-off message " << mid
          << " was not exactly-once-visible after recovery";
    }
    for (const int64_t mid : drained) {
      EXPECT_TRUE(oracle.enq_confirmed.count(mid) > 0 ||
                  oracle.enq_uncertain.count(mid) > 0)
          << "phantom message " << mid << " appeared after recovery";
    }
    for (const std::vector<int64_t>& batch : oracle.enq_uncertain_batches) {
      size_t present = 0;
      std::set<int64_t> batch_acked;
      for (const int64_t mid : batch) {
        present += drained.count(mid);
        if (oracle.ack_confirmed.count(mid) > 0 ||
            oracle.ack_uncertain.count(mid) > 0) {
          batch_acked.insert(mid);
        }
      }
      if (!batch_acked.empty()) continue;  // Consumed pre-crash: moot.
      EXPECT_TRUE(present == 0 || present == batch.size())
          << "crash mid-batch left a partial batch on the far side: "
          << present << " of " << batch.size();
    }
    drained_count_ = drained.size();
  }

  std::string Summary(const Oracle& oracle, bool crashed) const {
    std::ostringstream os;
    os << "crashed=" << crashed << " enq=" << oracle.enq_confirmed.size()
       << " uncertain=" << oracle.enq_uncertain.size()
       << " acked=" << oracle.ack_confirmed.size()
       << " drained=" << drained_count_;
    return os.str();
  }

 private:
  std::string NameOnShard(size_t shard, const std::string& stem) {
    for (int i = 0; i < 4096; ++i) {
      const std::string name = stem + std::to_string(i);
      if (router_->HashShard(name) == shard) return name;
    }
    ADD_FAILURE() << "no name hashing to shard " << shard;
    return "";
  }

  void WireRule() {
    propagator_ = std::make_unique<Propagator>(router_.get());
    // Rules run in name order, so one pump carries a message src -> dst.
    PropagationRule near;
    near.name = "a_near";
    near.source_queue = src_;
    near.destination_queue = mid_;
    ASSERT_OK(propagator_->AddRule(std::move(near)));
    PropagationRule handoff;
    handoff.name = "handoff";
    handoff.source_queue = mid_;
    handoff.destination_queue = dst_;
    ASSERT_OK(propagator_->AddRule(std::move(handoff)));
  }

  void DoOneOp(Random* rng, Oracle* oracle) {
    const uint64_t kind = rng->Uniform(10);
    if (kind < 3) {
      EnqueueOne(oracle);
    } else if (kind < 4) {
      EnqueueBatchOp(rng, oracle);
    } else if (kind < 7) {
      // Both hops; an injected error leaves the message nacked on its
      // source, a crash unwinds to the schedule.
      EDADB_IGNORE_STATUS(propagator_->RunOnce().status(),
                          "propagation may fail under the armed fault; "
                          "handoff invariants are asserted after recovery");
    } else {
      DequeueDst(rng, oracle);
    }
  }

  void EnqueueOne(Oracle* oracle) {
    const int64_t mid = next_msg_++;
    oracle->enq_uncertain.insert(mid);
    EnqueueRequest request;
    request.payload = std::to_string(mid);
    if (router_->Enqueue(src_, request).ok()) {
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
    if (router_->EnqueueBatch(src_, requests).ok()) {
      for (const int64_t mid : mids) {
        oracle->enq_uncertain.erase(mid);
        oracle->enq_confirmed.insert(mid);
      }
    } else {
      oracle->enq_uncertain_batches.push_back(std::move(mids));
    }
  }

  void DequeueDst(Random* rng, Oracle* oracle) {
    DequeueRequest dq;
    auto m = router_->Dequeue(dst_, dq);
    if (!m.ok() || !m->has_value()) return;
    const int64_t mid = std::stoll((*m)->payload);
    const uint64_t then = rng->Uniform(3);
    if (then == 0) {
      oracle->ack_uncertain.insert(mid);
      if (router_->Ack(dst_, "", (*m)->id).ok()) {
        oracle->ack_uncertain.erase(mid);
        oracle->ack_confirmed.insert(mid);
      }
    } else if (then == 1) {
      EDADB_IGNORE_STATUS(router_->Nack(dst_, "", (*m)->id),
                          "nack may fail under the armed fault; redelivery "
                          "invariants are asserted after recovery");
    }
    // else: walk away holding the lock; the visibility timeout
    // redelivers.
  }

  TempDir dir_;
  SimulatedClock clock_{kMicrosPerHour};
  WalSyncPolicy sync_policy_ = WalSyncPolicy::kNever;
  std::unique_ptr<Database> db_;
  std::unique_ptr<ShardRouter> router_;
  std::unique_ptr<Propagator> propagator_;
  std::string src_;
  std::string mid_;
  std::string dst_;
  int64_t next_msg_ = 1;
  size_t drained_count_ = 0;
};

std::string RunSchedule(uint64_t schedule_id, const char* site, uint64_t skip,
                        int64_t torn_arg, int workload_ops,
                        WalSyncPolicy sync_policy, bool* crashed) {
  ShardTortureRig rig;
  rig.Init(sync_policy);
  if (::testing::Test::HasFatalFailure()) return "init-failed";

  fp::DisarmAll();
  ArmCrash(site, skip, torn_arg);
  Random rng(TestSeed() ^ (0x53484152D0ULL + schedule_id * 0x9E3779B97F4A7C15ULL));
  Oracle oracle;
  *crashed = rig.RunWorkload(&rng, workload_ops, &oracle);
  fp::DisarmAll();

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
  return 120;
}

// Deterministic sweep over the shard-specific windows, with real group
// commits (kOnCommit): one shard's WAL dies mid-group-commit, the
// handoff dies on both sides of the destination commit, and a hop dies
// holding its leased batch.
TEST(ShardTortureTest, CrashSweepOverHandoffAndGroupCommit) {
  FailpointGuard guard;
  const char* sites[] = {
      "wal.group_commit.leader", "db.commit.before_sync",
      "db.commit.after_sync",    "mq.handoff.before_commit",
      "mq.propagate.handoff",    "mq.propagate.leased",
  };
  std::set<std::string> crashed_sites;
  uint64_t schedule_id = 0;
  for (const char* site : sites) {
    for (const uint64_t skip : {0u, 2u}) {
      bool crashed = false;
      RunSchedule(schedule_id++, site, skip, /*torn_arg=*/5,
                  /*workload_ops=*/24, WalSyncPolicy::kOnCommit, &crashed);
      if (HasFatalFailure()) {
        FAIL() << "sweep died at site " << site << " skip " << skip;
      }
      if (crashed) crashed_sites.insert(site);
    }
  }
  // Both handoff windows and the lease must actually have been hit: the
  // workload always crosses shards, so a sweep that never reached them
  // means the failpoints moved.
  EXPECT_EQ(1u, crashed_sites.count("mq.handoff.before_commit"));
  EXPECT_EQ(1u, crashed_sites.count("mq.propagate.handoff"));
  EXPECT_EQ(1u, crashed_sites.count("mq.propagate.leased"));
  EXPECT_GE(crashed_sites.size(), 4u);
}

// Randomized schedules across every site (fast path: no real syncs).
TEST(ShardTortureTest, RandomizedMultiShardCrashSchedules) {
  FailpointGuard guard;
  const int schedules = ScheduleCount();
  Random rng(TestSeed() ^ 0x73686172645F7478ULL);
  int crashes = 0;
  for (int i = 0; i < schedules; ++i) {
    const char* site = kCrashSites[rng.Uniform(kNumCrashSites)];
    const uint64_t skip = rng.Uniform(8);
    const int64_t torn_arg = static_cast<int64_t>(rng.Uniform(24));
    const int ops = 12 + static_cast<int>(rng.Uniform(14));
    bool crashed = false;
    RunSchedule(1000 + i, site, skip, torn_arg, ops,
                WalSyncPolicy::kNever, &crashed);
    if (HasFatalFailure()) {
      FAIL() << "schedule " << i << " (site " << site << ", skip " << skip
             << ") failed; EDADB_TEST_SEED=" << TestSeed();
    }
    if (crashed) ++crashes;
  }
  EXPECT_GT(crashes, schedules / 5);
}

// Same schedule id -> byte-identical outcome.
TEST(ShardTortureTest, SchedulesAreDeterministic) {
  FailpointGuard guard;
  for (const uint64_t id : {3u, 11u}) {
    bool crashed_a = false, crashed_b = false;
    const std::string a =
        RunSchedule(5000 + id, kCrashSites[id % kNumCrashSites], 1, 9, 20,
                    WalSyncPolicy::kNever, &crashed_a);
    ASSERT_FALSE(HasFatalFailure());
    const std::string b =
        RunSchedule(5000 + id, kCrashSites[id % kNumCrashSites], 1, 9, 20,
                    WalSyncPolicy::kNever, &crashed_b);
    ASSERT_FALSE(HasFatalFailure());
    EXPECT_EQ(a, b) << "schedule " << id << " is not deterministic";
    EXPECT_EQ(crashed_a, crashed_b);
  }
}

}  // namespace
