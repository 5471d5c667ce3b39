#include <vector>

#include "db/database.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace edadb {
namespace {

SchemaPtr ReadingsSchema() {
  return Schema::Make({
      {"sensor", ValueType::kString, false},
      {"temp", ValueType::kDouble, true},
  });
}

class TriggerTest : public testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.dir = dir_.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    db_ = *Database::Open(std::move(options));
    ASSERT_TRUE(db_->CreateTable("readings", ReadingsSchema()).ok());
  }

  Record Reading(const std::string& sensor, double temp) {
    return *RecordBuilder(ReadingsSchema())
                .SetString("sensor", sensor)
                .SetDouble("temp", temp)
                .Build();
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(TriggerTest, AfterInsertFiresWithNewRow) {
  std::vector<std::string> fired;
  TriggerDef def;
  def.name = "t1";
  def.table = "readings";
  def.timing = TriggerTiming::kAfter;
  def.ops = kDmlInsert;
  def.action = [&](const TriggerEvent& event) {
    EXPECT_EQ(event.op, kDmlInsert);
    EXPECT_EQ(event.table_name, "readings");
    EXPECT_NE(event.new_row, nullptr);
    EXPECT_EQ(event.old_row, nullptr);
    fired.push_back(event.new_row->Get("sensor")->string_value());
    return Status::OK();
  };
  ASSERT_OK(db_->CreateTrigger(std::move(def)));
  ASSERT_OK(db_->Insert("readings", Reading("s1", 20)).status());
  ASSERT_OK(db_->Insert("readings", Reading("s2", 21)).status());
  EXPECT_EQ(fired, (std::vector<std::string>{"s1", "s2"}));
}

TEST_F(TriggerTest, WhenPredicateFilters) {
  int fired = 0;
  TriggerDef def;
  def.name = "hot_only";
  def.table = "readings";
  def.ops = kDmlInsert;
  def.when = *Predicate::Compile("temp > 30");
  def.action = [&](const TriggerEvent&) {
    ++fired;
    return Status::OK();
  };
  ASSERT_OK(db_->CreateTrigger(std::move(def)));
  ASSERT_OK(db_->Insert("readings", Reading("s", 25)).status());
  ASSERT_OK(db_->Insert("readings", Reading("s", 35)).status());
  ASSERT_OK(db_->Insert("readings", Reading("s", 30)).status());
  EXPECT_EQ(fired, 1);
}

TEST_F(TriggerTest, BeforeInsertCanRewriteRow) {
  TriggerDef def;
  def.name = "clamp";
  def.table = "readings";
  def.timing = TriggerTiming::kBefore;
  def.ops = kDmlInsert;
  def.action = [](const TriggerEvent& event) {
    const double temp = event.new_row->Get("temp")->double_value();
    if (temp > 100) {
      return event.new_row->Set("temp", Value::Double(100.0));
    }
    return Status::OK();
  };
  ASSERT_OK(db_->CreateTrigger(std::move(def)));
  const RowId id = *db_->Insert("readings", Reading("s", 250));
  EXPECT_EQ(db_->GetRow("readings", id)->Get("temp")->double_value(), 100.0);
}

TEST_F(TriggerTest, BeforeTriggerCanVeto) {
  TriggerDef def;
  def.name = "no_negative";
  def.table = "readings";
  def.timing = TriggerTiming::kBefore;
  def.ops = kDmlInsert;
  def.when = *Predicate::Compile("temp < 0");
  def.action = [](const TriggerEvent&) {
    return Status::InvalidArgument("negative temperature");
  };
  ASSERT_OK(db_->CreateTrigger(std::move(def)));
  EXPECT_TRUE(db_->Insert("readings", Reading("s", -5)).status().IsAborted());
  EXPECT_EQ(*db_->CountRows("readings"), 0u);
  ASSERT_OK(db_->Insert("readings", Reading("s", 5)).status());
  EXPECT_EQ(*db_->CountRows("readings"), 1u);
}

TEST_F(TriggerTest, UpdateTriggerSeesOldAndNew) {
  double old_temp = 0;
  double new_temp = 0;
  TriggerDef def;
  def.name = "watch_updates";
  def.table = "readings";
  def.ops = kDmlUpdate;
  def.action = [&](const TriggerEvent& event) {
    old_temp = event.old_row->Get("temp")->double_value();
    new_temp = event.new_row->Get("temp")->double_value();
    return Status::OK();
  };
  ASSERT_OK(db_->CreateTrigger(std::move(def)));
  const RowId id = *db_->Insert("readings", Reading("s", 20));
  ASSERT_OK(db_->UpdateRow("readings", id, Reading("s", 30)));
  EXPECT_EQ(old_temp, 20.0);
  EXPECT_EQ(new_temp, 30.0);
}

TEST_F(TriggerTest, WhenSeesOldAndNewPrefixes) {
  int fired = 0;
  TriggerDef def;
  def.name = "rising_fast";
  def.table = "readings";
  def.ops = kDmlUpdate;
  // Fires only when temp rose by more than 10 degrees.
  def.when = *Predicate::Compile("new.temp - old.temp > 10");
  def.action = [&](const TriggerEvent&) {
    ++fired;
    return Status::OK();
  };
  ASSERT_OK(db_->CreateTrigger(std::move(def)));
  const RowId id = *db_->Insert("readings", Reading("s", 20));
  ASSERT_OK(db_->UpdateRow("readings", id, Reading("s", 25)));  // +5: no.
  ASSERT_OK(db_->UpdateRow("readings", id, Reading("s", 40)));  // +15: yes.
  EXPECT_EQ(fired, 1);
}

TEST_F(TriggerTest, DeleteTriggerSeesOldRow) {
  std::string deleted_sensor;
  TriggerDef def;
  def.name = "on_delete";
  def.table = "readings";
  def.ops = kDmlDelete;
  def.when = *Predicate::Compile("sensor = 's1'");  // Unprefixed = old row.
  def.action = [&](const TriggerEvent& event) {
    deleted_sensor = event.old_row->Get("sensor")->string_value();
    return Status::OK();
  };
  ASSERT_OK(db_->CreateTrigger(std::move(def)));
  const RowId id1 = *db_->Insert("readings", Reading("s1", 1));
  const RowId id2 = *db_->Insert("readings", Reading("s2", 2));
  ASSERT_OK(db_->DeleteRow("readings", id2));
  EXPECT_EQ(deleted_sensor, "");
  ASSERT_OK(db_->DeleteRow("readings", id1));
  EXPECT_EQ(deleted_sensor, "s1");
}

// The commit path skips trigger work on tables without triggers; a
// trigger created on such a table must still fire from the next commit
// on — even for a transaction prepared before the trigger existed.
TEST_F(TriggerTest, TriggerOnQuietTableFiresFromNextCommit) {
  ASSERT_OK(db_->Insert("readings", Reading("quiet", 1)).status());
  auto txn = db_->BeginTransaction();
  ASSERT_OK(txn->Insert("readings", Reading("prepared", 2)).status());

  std::vector<std::string> fired;
  TriggerDef def;
  def.name = "late";
  def.table = "readings";
  def.timing = TriggerTiming::kAfter;
  def.ops = kDmlInsert;
  def.action = [&](const TriggerEvent& event) {
    fired.push_back(event.new_row->Get("sensor")->string_value());
    return Status::OK();
  };
  ASSERT_OK(db_->CreateTrigger(std::move(def)));
  ASSERT_OK(txn->Commit());
  ASSERT_OK(db_->Insert("readings", Reading("next", 3)).status());
  EXPECT_EQ(fired, (std::vector<std::string>{"prepared", "next"}));

  ASSERT_OK(db_->SetTriggerEnabled("late", false));
  ASSERT_OK(db_->Insert("readings", Reading("disabled", 4)).status());
  ASSERT_OK(db_->SetTriggerEnabled("late", true));
  ASSERT_OK(db_->Insert("readings", Reading("enabled", 5)).status());
  ASSERT_OK(db_->DropTrigger("late"));
  ASSERT_OK(db_->Insert("readings", Reading("dropped", 6)).status());
  EXPECT_EQ(fired,
            (std::vector<std::string>{"prepared", "next", "enabled"}));
}

// Rows are decoded for triggers only when one exists; AFTER UPDATE and
// AFTER DELETE triggers on a table with no index still see the old row.
TEST_F(TriggerTest, AfterUpdateAndDeleteGetOldRowWithoutIndexes) {
  std::vector<std::string> seen;
  TriggerDef def;
  def.name = "audit";
  def.table = "readings";
  def.timing = TriggerTiming::kAfter;
  def.ops = kDmlUpdate | kDmlDelete;
  def.action = [&](const TriggerEvent& event) {
    std::string entry = std::string(DmlOpToString(event.op)) + " old=" +
                        event.old_row->Get("sensor")->string_value();
    if (event.new_row != nullptr) {
      entry += " new=" + event.new_row->Get("sensor")->string_value();
    }
    seen.push_back(std::move(entry));
    return Status::OK();
  };
  ASSERT_OK(db_->CreateTrigger(std::move(def)));
  const RowId id = *db_->Insert("readings", Reading("a", 1));
  auto txn = db_->BeginTransaction();
  ASSERT_OK(txn->UpdateRow("readings", id, Reading("b", 2)));
  ASSERT_OK(txn->Commit());
  ASSERT_OK(db_->DeleteRow("readings", id));
  EXPECT_EQ(seen, (std::vector<std::string>{"UPDATE old=a new=b",
                                            "DELETE old=b"}));
}

TEST_F(TriggerTest, DisableAndDrop) {
  int fired = 0;
  TriggerDef def;
  def.name = "counter";
  def.table = "readings";
  def.ops = kDmlInsert;
  def.action = [&](const TriggerEvent&) {
    ++fired;
    return Status::OK();
  };
  ASSERT_OK(db_->CreateTrigger(std::move(def)));
  ASSERT_OK(db_->Insert("readings", Reading("s", 1)).status());
  ASSERT_OK(db_->SetTriggerEnabled("counter", false));
  ASSERT_OK(db_->Insert("readings", Reading("s", 2)).status());
  ASSERT_OK(db_->SetTriggerEnabled("counter", true));
  ASSERT_OK(db_->Insert("readings", Reading("s", 3)).status());
  EXPECT_EQ(fired, 2);
  ASSERT_OK(db_->DropTrigger("counter"));
  ASSERT_OK(db_->Insert("readings", Reading("s", 4)).status());
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(db_->DropTrigger("counter").IsNotFound());
}

TEST_F(TriggerTest, TriggerAdminValidation) {
  TriggerDef nameless;
  nameless.table = "readings";
  EXPECT_TRUE(db_->CreateTrigger(nameless).IsInvalidArgument());
  TriggerDef no_table;
  no_table.name = "x";
  no_table.table = "nope";
  EXPECT_TRUE(db_->CreateTrigger(no_table).IsNotFound());
  TriggerDef no_ops;
  no_ops.name = "x";
  no_ops.table = "readings";
  no_ops.ops = 0;
  EXPECT_TRUE(db_->CreateTrigger(no_ops).IsInvalidArgument());
  EXPECT_TRUE(db_->SetTriggerEnabled("ghost", true).IsNotFound());
}

TEST_F(TriggerTest, TriggerActionsCanCallBackIntoDatabase) {
  // Audit pattern: AFTER trigger inserts into an audit table.
  ASSERT_TRUE(db_->CreateTable(
                     "audit", Schema::Make({{"note", ValueType::kString,
                                             false}}))
                  .ok());
  TriggerDef def;
  def.name = "audit_inserts";
  def.table = "readings";
  def.ops = kDmlInsert;
  def.action = [&](const TriggerEvent& event) {
    Record note = *RecordBuilder(db_->GetTable("audit").value()->schema())
                       .SetString("note",
                                  "insert into " + event.table_name)
                       .Build();
    return db_->Insert("audit", std::move(note)).status();
  };
  ASSERT_OK(db_->CreateTrigger(std::move(def)));
  ASSERT_OK(db_->Insert("readings", Reading("s", 1)).status());
  ASSERT_OK(db_->Insert("readings", Reading("s", 2)).status());
  EXPECT_EQ(*db_->CountRows("audit"), 2u);
}

TEST_F(TriggerTest, DropTableDropsItsTriggers) {
  TriggerDef def;
  def.name = "doomed";
  def.table = "readings";
  def.ops = kDmlInsert;
  def.action = [](const TriggerEvent&) { return Status::OK(); };
  ASSERT_OK(db_->CreateTrigger(std::move(def)));
  ASSERT_OK(db_->DropTable("readings"));
  EXPECT_TRUE(db_->ListTriggers().empty());
}

}  // namespace
}  // namespace edadb
