#include "db/database.h"

#include "common/failpoint.h"
#include "db/snapshot.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "testing/crash_harness.h"

namespace edadb {
namespace {

SchemaPtr AccountsSchema() {
  return Schema::Make({
      {"name", ValueType::kString, false},
      {"balance", ValueType::kInt64, false},
  });
}

Record Account(const std::string& name, int64_t balance) {
  return *RecordBuilder(AccountsSchema())
              .SetString("name", name)
              .SetInt64("balance", balance)
              .Build();
}

DatabaseOptions Opts(const std::string& dir) {
  DatabaseOptions options;
  options.dir = dir;
  options.wal_sync_policy = WalSyncPolicy::kNever;
  return options;
}

TEST(TransactionTest, CommitAppliesAllOps) {
  TempDir dir;
  auto db = *Database::Open(Opts(dir.path()));
  ASSERT_TRUE(db->CreateTable("accounts", AccountsSchema()).ok());
  auto txn = db->BeginTransaction();
  const RowId a = *txn->Insert("accounts", Account("a", 100));
  const RowId b = *txn->Insert("accounts", Account("b", 200));
  EXPECT_EQ(txn->num_pending(), 2u);
  size_t seen_at_hook = 0;
  txn->OnApplied([&] { seen_at_hook = *db->CountRows("accounts"); });
  // Not visible before commit.
  EXPECT_EQ(*db->CountRows("accounts"), 0u);
  ASSERT_OK(txn->Commit());
  EXPECT_EQ(seen_at_hook, 2u);
  EXPECT_EQ(*db->CountRows("accounts"), 2u);
  EXPECT_EQ(db->GetRow("accounts", a)->Get("name")->string_value(), "a");
  EXPECT_EQ(db->GetRow("accounts", b)->Get("name")->string_value(), "b");
}

TEST(TransactionTest, RollbackDiscards) {
  TempDir dir;
  auto db = *Database::Open(Opts(dir.path()));
  ASSERT_TRUE(db->CreateTable("accounts", AccountsSchema()).ok());
  auto txn = db->BeginTransaction();
  ASSERT_OK(txn->Insert("accounts", Account("ghost", 1)).status());
  bool hooked = false;
  txn->OnApplied([&] { hooked = true; });
  ASSERT_OK(txn->Rollback());
  EXPECT_EQ(*db->CountRows("accounts"), 0u);
  EXPECT_TRUE(txn->Commit().IsFailedPrecondition());
  EXPECT_FALSE(hooked);
}

TEST(TransactionTest, DestructorRollsBack) {
  TempDir dir;
  auto db = *Database::Open(Opts(dir.path()));
  ASSERT_TRUE(db->CreateTable("accounts", AccountsSchema()).ok());
  {
    auto txn = db->BeginTransaction();
    ASSERT_OK(txn->Insert("accounts", Account("ghost", 1)).status());
  }
  EXPECT_EQ(*db->CountRows("accounts"), 0u);
}

TEST(TransactionTest, MixedOpsInOneTransaction) {
  TempDir dir;
  auto db = *Database::Open(Opts(dir.path()));
  ASSERT_TRUE(db->CreateTable("accounts", AccountsSchema()).ok());
  const RowId a = *db->Insert("accounts", Account("a", 100));
  const RowId b = *db->Insert("accounts", Account("b", 200));
  auto txn = db->BeginTransaction();
  ASSERT_OK(txn->UpdateRow("accounts", a, Account("a", 50)));
  ASSERT_OK(txn->DeleteRow("accounts", b));
  ASSERT_OK(txn->Insert("accounts", Account("c", 300)).status());
  ASSERT_OK(txn->Commit());
  EXPECT_EQ(db->GetRow("accounts", a)->Get("balance")->int64_value(), 50);
  EXPECT_TRUE(db->GetRow("accounts", b).status().IsNotFound());
  EXPECT_EQ(*db->CountRows("accounts"), 2u);
}

TEST(TransactionTest, AfterTriggersFireAtCommitOnly) {
  TempDir dir;
  auto db = *Database::Open(Opts(dir.path()));
  ASSERT_TRUE(db->CreateTable("accounts", AccountsSchema()).ok());
  int fired = 0;
  TriggerDef def;
  def.name = "after";
  def.table = "accounts";
  def.ops = kDmlInsert;
  def.action = [&](const TriggerEvent&) {
    ++fired;
    return Status::OK();
  };
  ASSERT_OK(db->CreateTrigger(std::move(def)));
  auto txn = db->BeginTransaction();
  ASSERT_OK(txn->Insert("accounts", Account("a", 1)).status());
  ASSERT_OK(txn->Insert("accounts", Account("b", 2)).status());
  EXPECT_EQ(fired, 0);  // Buffered, not committed.
  ASSERT_OK(txn->Commit());
  EXPECT_EQ(fired, 2);
}

TEST(TransactionTest, IntraTxnUniqueViolationRejectsWholeTxn) {
  TempDir dir;
  auto db = *Database::Open(Opts(dir.path()));
  ASSERT_TRUE(db->CreateTable("accounts", AccountsSchema()).ok());
  ASSERT_OK(db->CreateIndex("accounts", "name", /*unique=*/true));
  auto txn = db->BeginTransaction();
  ASSERT_OK(txn->Insert("accounts", Account("dup", 1)).status());
  ASSERT_OK(txn->Insert("accounts", Account("dup", 2)).status());
  EXPECT_TRUE(txn->Commit().IsAlreadyExists());
  EXPECT_EQ(*db->CountRows("accounts"), 0u);  // Nothing applied.
}

// A failed WAL sync is not a rollback once the commit record landed:
// the commit is applied, its AFTER triggers fire, recovery keeps it,
// and the caller gets DurabilityUnknown. Under kEveryAppend each append
// syncs, so a failure on the Begin+ops batch (no commit record yet)
// still applies nothing.
struct FailedSyncCase {
  WalSyncPolicy sync;
  uint64_t skip;  // wal.sync hits before the one that fails.
  bool applied;
};

class FailedSyncTest : public ::testing::TestWithParam<FailedSyncCase> {};

TEST_P(FailedSyncTest, CommitIsAppliedOnlyOnceItsRecordLanded) {
  const FailedSyncCase& param = GetParam();
  testing::FailpointGuard guard;
  TempDir dir;
  DatabaseOptions options = Opts(dir.path());
  options.wal_sync_policy = param.sync;
  const size_t rows = param.applied ? 1 : 0;
  {
    auto db = *Database::Open(options);
    ASSERT_OK(db->CreateTable("accounts", AccountsSchema()));
    int fired = 0;
    TriggerDef def;
    def.name = "after";
    def.table = "accounts";
    def.ops = kDmlInsert;
    def.action = [&](const TriggerEvent&) {
      ++fired;
      return Status::OK();
    };
    ASSERT_OK(db->CreateTrigger(std::move(def)));

    failpoint::Action fault;
    fault.skip = param.skip;
    fault.max_fires = 1;
    failpoint::Arm("wal.sync", fault);
    auto txn = db->BeginTransaction();
    ASSERT_OK(txn->Insert("accounts", Account("a", 1)).status());
    // OnApplied hooks run exactly when the commit applied, after the
    // AFTER triggers.
    int fired_at_hook = -1;
    txn->OnApplied([&] { fired_at_hook = fired; });
    const Status committed = txn->Commit();
    failpoint::DisarmAll();

    EXPECT_FALSE(committed.ok());
    EXPECT_EQ(committed.IsDurabilityUnknown(), param.applied) << committed;
    EXPECT_EQ(CommitApplied(committed), param.applied);
    EXPECT_EQ(*db->CountRows("accounts"), rows);
    EXPECT_EQ(fired, static_cast<int>(rows));
    EXPECT_EQ(fired_at_hook, param.applied ? 1 : -1);
  }
  auto db = *Database::Open(options);
  EXPECT_EQ(*db->CountRows("accounts"), rows);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, FailedSyncTest,
    ::testing::Values(FailedSyncCase{WalSyncPolicy::kOnCommit, 0, true},
                      FailedSyncCase{WalSyncPolicy::kEveryAppend, 0, false},
                      FailedSyncCase{WalSyncPolicy::kEveryAppend, 1, true}));

TEST(RecoveryTest, ReopenReplaysCommittedWork) {
  TempDir dir;
  RowId a;
  {
    auto db = *Database::Open(Opts(dir.path()));
    ASSERT_TRUE(db->CreateTable("accounts", AccountsSchema()).ok());
    ASSERT_OK(db->CreateIndex("accounts", "name", true));
    a = *db->Insert("accounts", Account("alice", 500));
    ASSERT_OK(db->Insert("accounts", Account("bob", 300)).status());
    ASSERT_OK(db->UpdateRow("accounts", a, Account("alice", 600)));
  }
  auto db = *Database::Open(Opts(dir.path()));
  EXPECT_EQ(*db->CountRows("accounts"), 2u);
  EXPECT_EQ(db->GetRow("accounts", a)->Get("balance")->int64_value(), 600);
  // Index was rebuilt (via the logged create-index record).
  const Table* table = *db->GetTable("accounts");
  const BTreeIndex* index = table->GetIndex("name");
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->Lookup(Value::String("alice")).size(), 1u);
  // Unique constraint still enforced post-recovery.
  EXPECT_TRUE(
      db->Insert("accounts", Account("alice", 1)).status().IsAlreadyExists());
}

TEST(RecoveryTest, DroppedTableStaysDropped) {
  TempDir dir;
  {
    auto db = *Database::Open(Opts(dir.path()));
    ASSERT_TRUE(db->CreateTable("accounts", AccountsSchema()).ok());
    ASSERT_OK(db->Insert("accounts", Account("a", 1)).status());
    ASSERT_OK(db->DropTable("accounts"));
  }
  auto db = *Database::Open(Opts(dir.path()));
  EXPECT_TRUE(db->GetTable("accounts").status().IsNotFound());
}

TEST(RecoveryTest, CheckpointThenReplayTail) {
  TempDir dir;
  {
    auto db = *Database::Open(Opts(dir.path()));
    ASSERT_TRUE(db->CreateTable("accounts", AccountsSchema()).ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_OK(
          db->Insert("accounts", Account("u" + std::to_string(i), i))
              .status());
    }
    ASSERT_OK(db->Checkpoint(db->wal_end_lsn()));
    // Post-checkpoint work must come from WAL replay.
    for (int i = 50; i < 60; ++i) {
      ASSERT_OK(
          db->Insert("accounts", Account("u" + std::to_string(i), i))
              .status());
    }
  }
  auto db = *Database::Open(Opts(dir.path()));
  EXPECT_EQ(*db->CountRows("accounts"), 60u);
}

TEST(RecoveryTest, CheckpointPreservesIndexDefsAndRowIds) {
  TempDir dir;
  RowId last;
  {
    auto db = *Database::Open(Opts(dir.path()));
    ASSERT_TRUE(db->CreateTable("accounts", AccountsSchema()).ok());
    ASSERT_OK(db->CreateIndex("accounts", "balance", false));
    last = *db->Insert("accounts", Account("x", 42));
    ASSERT_OK(db->Checkpoint(db->wal_end_lsn()));
  }
  auto db = *Database::Open(Opts(dir.path()));
  const Table* table = *db->GetTable("accounts");
  EXPECT_NE(table->GetIndex("balance"), nullptr);
  EXPECT_EQ(table->GetIndex("balance")->Lookup(Value::Int64(42)).size(), 1u);
  // Row id allocation continues, never reuses.
  const RowId next = *db->Insert("accounts", Account("y", 1));
  EXPECT_GT(next, last);
}

TEST(RecoveryTest, RepeatedCheckpointAndReopenCycles) {
  TempDir dir;
  for (int cycle = 0; cycle < 4; ++cycle) {
    auto db = *Database::Open(Opts(dir.path()));
    if (cycle == 0) {
      ASSERT_TRUE(db->CreateTable("accounts", AccountsSchema()).ok());
    }
    EXPECT_EQ(*db->CountRows("accounts"),
              static_cast<size_t>(cycle * 10));
    for (int i = 0; i < 10; ++i) {
      ASSERT_OK(db->Insert("accounts",
                           Account("c" + std::to_string(cycle) + "-" +
                                       std::to_string(i),
                                   i))
                    .status());
    }
    if (cycle % 2 == 0) {
      ASSERT_OK(db->Checkpoint(db->wal_end_lsn()));
    }
  }
  auto db = *Database::Open(Opts(dir.path()));
  EXPECT_EQ(*db->CountRows("accounts"), 40u);
}

TEST(SnapshotCodecTest, RoundTrip) {
  Snapshot snap;
  snap.next_table_id = 7;
  snap.next_txn_id = 99;
  TableSnapshot t;
  t.id = 3;
  t.name = "things";
  t.fields = {{"k", ValueType::kString, false}};
  t.next_row_id = 12;
  t.indexes = {{"k", true}};
  t.rows = {{1, "row-one"}, {5, std::string("\x00\x01", 2)}};
  snap.tables.push_back(std::move(t));

  const std::string encoded = EncodeSnapshot(snap);
  auto decoded = DecodeSnapshot(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->next_table_id, 7u);
  EXPECT_EQ(decoded->next_txn_id, 99u);
  ASSERT_EQ(decoded->tables.size(), 1u);
  EXPECT_EQ(decoded->tables[0].name, "things");
  EXPECT_EQ(decoded->tables[0].rows[1].second, std::string("\x00\x01", 2));
  EXPECT_TRUE(decoded->tables[0].indexes[0].unique);
}

TEST(SnapshotCodecTest, CorruptionDetected) {
  Snapshot snap;
  std::string encoded = EncodeSnapshot(snap);
  std::string flipped = encoded;
  flipped[2] ^= 0x01;
  EXPECT_TRUE(DecodeSnapshot(flipped).status().IsCorruption());
  EXPECT_TRUE(DecodeSnapshot(encoded.substr(0, 3)).status().IsCorruption());
}

TEST(SnapshotCodecTest, CheckpointMetaRoundTrip) {
  CheckpointMeta meta;
  meta.snapshot_file = "snapshot-000042.ckpt";
  meta.replay_from_lsn = 123456;
  auto decoded = DecodeCheckpointMeta(EncodeCheckpointMeta(meta));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->snapshot_file, meta.snapshot_file);
  EXPECT_EQ(decoded->replay_from_lsn, meta.replay_from_lsn);
}

}  // namespace
}  // namespace edadb
