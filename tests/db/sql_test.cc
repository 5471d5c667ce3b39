#include "db/sql.h"

#include "gtest/gtest.h"
#include "test_util.h"

namespace edadb {
namespace {

class SqlTest : public testing::Test {
 protected:
  void SetUp() override { Reopen(); }

  void Reopen(Clock* clock = nullptr) {
    db_.reset();
    DatabaseOptions options;
    options.dir = dir_.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    options.clock = clock;
    db_ = *Database::Open(std::move(options));
  }

  SqlResult Exec(const std::string& sql) {
    auto result = ExecuteSql(db_.get(), sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return result.ok() ? *std::move(result) : SqlResult{};
  }

  Status ExecError(const std::string& sql) {
    auto result = ExecuteSql(db_.get(), sql);
    EXPECT_FALSE(result.ok()) << sql << " unexpectedly succeeded";
    return result.ok() ? Status::OK() : result.status();
  }

  /// The n column of t, in order.
  std::vector<int64_t> Column() {
    std::vector<int64_t> out;
    for (const Record& row : Exec("SELECT n FROM t ORDER BY n").result.rows) {
      out.push_back(row.Get("n")->int64_value());
    }
    return out;
  }

  TempDir dir_;
  SimulatedClock clock_;
  std::unique_ptr<Database> db_;
};

TEST_F(SqlTest, CreateTableAndDescribe) {
  Exec("CREATE TABLE orders (id INT64 NOT NULL, customer STRING, "
       "amount DOUBLE, placed TIMESTAMP)");
  Table* table = *db_->GetTable("orders");
  EXPECT_EQ(table->schema()->num_fields(), 4u);
  EXPECT_FALSE(table->schema()->field(0).nullable);
  EXPECT_TRUE(table->schema()->field(1).nullable);
  EXPECT_EQ(table->schema()->field(3).type, ValueType::kTimestamp);
}

TEST_F(SqlTest, TypeSynonyms) {
  Exec("CREATE TABLE t (a INTEGER, b INT, c REAL, d FLOAT, e TEXT, "
       "f VARCHAR, g BOOLEAN)");
  Table* table = *db_->GetTable("t");
  EXPECT_EQ(table->schema()->field(0).type, ValueType::kInt64);
  EXPECT_EQ(table->schema()->field(2).type, ValueType::kDouble);
  EXPECT_EQ(table->schema()->field(4).type, ValueType::kString);
  EXPECT_EQ(table->schema()->field(6).type, ValueType::kBool);
}

TEST_F(SqlTest, KeywordsCaseInsensitive) {
  Exec("create table t (n int)");
  Exec("insert into t values (1)");
  auto result = Exec("select * from t");
  EXPECT_EQ(result.result.rows.size(), 1u);
}

TEST_F(SqlTest, InsertAndSelectStar) {
  Exec("CREATE TABLE t (id INT64 NOT NULL, name STRING)");
  const SqlResult inserted =
      Exec("INSERT INTO t VALUES (1, 'alice'), (2, 'bob')");
  EXPECT_EQ(inserted.kind, SqlResult::Kind::kInsert);
  EXPECT_EQ(inserted.rows_affected, 2u);
  const SqlResult selected = Exec("SELECT * FROM t ORDER BY id");
  ASSERT_EQ(selected.result.rows.size(), 2u);
  EXPECT_EQ(selected.result.rows[0].Get("name")->string_value(), "alice");
}

TEST_F(SqlTest, InsertColumnListAndDefaults) {
  Exec("CREATE TABLE t (id INT64 NOT NULL, name STRING, note STRING)");
  Exec("INSERT INTO t (name, id) VALUES ('carol', 3)");
  auto rows = Exec("SELECT * FROM t").result.rows;
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].Get("id")->int64_value(), 3);
  EXPECT_EQ(rows[0].Get("name")->string_value(), "carol");
  EXPECT_TRUE(rows[0].Get("note")->is_null());  // Unlisted -> NULL.
}

TEST_F(SqlTest, InsertCoercesIntLiteralsIntoDoubleAndTimestamp) {
  Exec("CREATE TABLE t (amount DOUBLE, at TIMESTAMP)");
  Exec("INSERT INTO t VALUES (5, 1700000000)");
  auto rows = Exec("SELECT * FROM t").result.rows;
  EXPECT_EQ(rows[0].Get("amount")->double_value(), 5.0);
  EXPECT_EQ(rows[0].Get("at")->timestamp_value(), 1700000000);
}

TEST_F(SqlTest, InsertConstantExpressions) {
  Exec("CREATE TABLE t (n INT64, s STRING)");
  Exec("INSERT INTO t VALUES (2 + 3 * 4, UPPER('ab' + 'cd'))");
  auto rows = Exec("SELECT * FROM t").result.rows;
  EXPECT_EQ(rows[0].Get("n")->int64_value(), 14);
  EXPECT_EQ(rows[0].Get("s")->string_value(), "ABCD");
}

TEST_F(SqlTest, InsertIsAtomicAcrossTuples) {
  Exec("CREATE TABLE t (n INT64 NOT NULL)");
  // Second tuple violates NOT NULL; nothing must land.
  EXPECT_FALSE(ExecError("INSERT INTO t VALUES (1), (NULL)").ok());
  EXPECT_EQ(*db_->CountRows("t"), 0u);
}

TEST_F(SqlTest, UpdateAndDeleteAreAtomic) {
  Exec("CREATE TABLE t (n INT64 NOT NULL)");
  Exec("INSERT INTO t VALUES (1), (2), (3), (4), (5)");
  const std::vector<int64_t> all = {1, 2, 3, 4, 5};

  // The SET expression divides by zero on row 3, after rows 1 and 2.
  EXPECT_TRUE(ExecError("UPDATE t SET n = 100 / (n - 3)").IsInvalidArgument());
  EXPECT_EQ(Column(), all);

  // The WHERE fails on row 3 only.
  EXPECT_TRUE(
      ExecError("DELETE FROM t WHERE 100 / (n - 3) > 0").IsInvalidArgument());
  EXPECT_EQ(Column(), all);

  // A BEFORE trigger vetoes row 3's delete.
  TriggerDef veto;
  veto.name = "keep_3";
  veto.table = "t";
  veto.timing = TriggerTiming::kBefore;
  veto.ops = kDmlDelete;
  veto.when = *Predicate::Compile("n = 3");
  veto.action = [](const TriggerEvent&) {
    return Status::FailedPrecondition("row 3 stays");
  };
  ASSERT_OK(db_->CreateTrigger(std::move(veto)));
  EXPECT_TRUE(ExecError("DELETE FROM t").IsAborted());
  EXPECT_EQ(Column(), all);

  Reopen();
  EXPECT_EQ(Column(), all);
}

TEST_F(SqlTest, NowInUpdateAndDeleteReadsTheDatabaseClock) {
  clock_.SetMicros(kMicrosPerSecond);
  Reopen(&clock_);
  Exec("CREATE TABLE t (ts TIMESTAMP)");
  Exec("INSERT INTO t VALUES (2000000), (2000000), (2000000)");
  EXPECT_TRUE(Exec("SELECT * FROM t WHERE ts < NOW()").result.rows.empty());
  EXPECT_EQ(Exec("UPDATE t SET ts = 0 WHERE ts < NOW()").rows_affected, 0u);
  EXPECT_EQ(Exec("DELETE FROM t WHERE ts < NOW()").rows_affected, 0u);
  EXPECT_EQ(*db_->CountRows("t"), 3u);
}

TEST_F(SqlTest, SelectProjectionWhereOrderLimit) {
  Exec("CREATE TABLE t (id INT64 NOT NULL, region STRING, amount DOUBLE)");
  Exec("INSERT INTO t VALUES (1, 'east', 10.0), (2, 'west', 30.0), "
       "(3, 'east', 20.0), (4, 'east', 5.0)");
  const SqlResult result = Exec(
      "SELECT id, amount FROM t WHERE region = 'east' AND amount > 6 "
      "ORDER BY amount DESC LIMIT 1");
  ASSERT_EQ(result.result.rows.size(), 1u);
  EXPECT_EQ(result.result.rows[0].Get("id")->int64_value(), 3);
  EXPECT_EQ(result.result.schema->num_fields(), 2u);
}

TEST_F(SqlTest, AggregatesWithGroupBy) {
  Exec("CREATE TABLE t (region STRING, amount DOUBLE)");
  Exec("INSERT INTO t VALUES ('east', 10.0), ('west', 30.0), "
       "('east', 20.0)");
  const SqlResult result = Exec(
      "SELECT region, COUNT(*), SUM(amount) AS total FROM t "
      "GROUP BY region ORDER BY region");
  ASSERT_EQ(result.result.rows.size(), 2u);
  EXPECT_EQ(result.result.rows[0].Get("region")->string_value(), "east");
  EXPECT_EQ(result.result.rows[0].Get("count")->int64_value(), 2);
  EXPECT_EQ(result.result.rows[0].Get("total")->double_value(), 30.0);
}

TEST_F(SqlTest, AggregatesWithoutGroupBy) {
  Exec("CREATE TABLE t (v DOUBLE)");
  Exec("INSERT INTO t VALUES (1.0), (2.0), (3.0)");
  const SqlResult result =
      Exec("SELECT COUNT(*), AVG(v), MIN(v), MAX(v) FROM t");
  ASSERT_EQ(result.result.rows.size(), 1u);
  EXPECT_EQ(result.result.rows[0].Get("count")->int64_value(), 3);
  EXPECT_EQ(result.result.rows[0].Get("avg_v")->double_value(), 2.0);
}

TEST_F(SqlTest, NonGroupedColumnWithAggregateRejected) {
  Exec("CREATE TABLE t (region STRING, amount DOUBLE)");
  EXPECT_TRUE(
      ExecError("SELECT region, COUNT(*) FROM t").IsInvalidArgument());
}

TEST_F(SqlTest, UpdateWithRowExpressions) {
  Exec("CREATE TABLE t (id INT64 NOT NULL, amount DOUBLE)");
  Exec("INSERT INTO t VALUES (1, 10.0), (2, 20.0), (3, 30.0)");
  const SqlResult updated = Exec(
      "UPDATE t SET amount = amount * 2 + 1 WHERE amount >= 20");
  EXPECT_EQ(updated.kind, SqlResult::Kind::kUpdate);
  EXPECT_EQ(updated.rows_affected, 2u);
  auto rows = Exec("SELECT amount FROM t ORDER BY id").result.rows;
  EXPECT_EQ(rows[0].Get("amount")->double_value(), 10.0);
  EXPECT_EQ(rows[1].Get("amount")->double_value(), 41.0);
  EXPECT_EQ(rows[2].Get("amount")->double_value(), 61.0);
}

TEST_F(SqlTest, UpdateMultipleAssignmentsUsePreUpdateValues) {
  Exec("CREATE TABLE t (a INT64, b INT64)");
  Exec("INSERT INTO t VALUES (1, 100)");
  // Both right-hand sides see the ORIGINAL row.
  Exec("UPDATE t SET a = b, b = a");
  auto rows = Exec("SELECT * FROM t").result.rows;
  EXPECT_EQ(rows[0].Get("a")->int64_value(), 100);
  EXPECT_EQ(rows[0].Get("b")->int64_value(), 1);
}

TEST_F(SqlTest, DeleteWithAndWithoutWhere) {
  Exec("CREATE TABLE t (n INT64)");
  Exec("INSERT INTO t VALUES (1), (2), (3), (4)");
  EXPECT_EQ(Exec("DELETE FROM t WHERE n % 2 = 0").rows_affected, 2u);
  EXPECT_EQ(*db_->CountRows("t"), 2u);
  EXPECT_EQ(Exec("DELETE FROM t").rows_affected, 2u);
  EXPECT_EQ(*db_->CountRows("t"), 0u);
}

TEST_F(SqlTest, CreateIndexSpeedsNothingButWorks) {
  Exec("CREATE TABLE t (k STRING, v INT64)");
  Exec("CREATE UNIQUE INDEX ON t (k)");
  Exec("INSERT INTO t VALUES ('a', 1)");
  EXPECT_TRUE(
      ExecError("INSERT INTO t VALUES ('a', 2)").IsAlreadyExists());
  Exec("CREATE INDEX ON t (v)");
  EXPECT_NE((*db_->GetTable("t"))->GetIndex("v"), nullptr);
}

TEST_F(SqlTest, DropTable) {
  Exec("CREATE TABLE doomed (n INT64)");
  Exec("DROP TABLE doomed");
  EXPECT_TRUE(db_->GetTable("doomed").status().IsNotFound());
  EXPECT_TRUE(ExecError("DROP TABLE doomed").IsNotFound());
}

TEST_F(SqlTest, ComplexWhereUsesFullExpressionGrammar) {
  Exec("CREATE TABLE t (name STRING, v INT64)");
  Exec("INSERT INTO t VALUES ('alpha', 1), ('beta', 5), ('gamma', 9)");
  auto rows = Exec("SELECT name FROM t WHERE (v BETWEEN 2 AND 10 AND "
                   "name LIKE '%a%') OR name IN ('alpha') ORDER BY name")
                  .result.rows;
  ASSERT_EQ(rows.size(), 3u);
}

TEST_F(SqlTest, SyntaxErrorsAreInvalidArgument) {
  EXPECT_TRUE(ExecError("").IsInvalidArgument());
  EXPECT_TRUE(ExecError("SELEKT * FROM t").IsInvalidArgument());
  EXPECT_TRUE(ExecError("SELECT FROM t").IsInvalidArgument());
  Exec("CREATE TABLE t (n INT64)");
  EXPECT_TRUE(ExecError("SELECT * FROM t WHERE").IsInvalidArgument());
  EXPECT_TRUE(ExecError("SELECT * FROM t LIMIT x").IsInvalidArgument());
  EXPECT_TRUE(ExecError("INSERT INTO t VALUES 1").IsInvalidArgument());
  EXPECT_TRUE(ExecError("SELECT * FROM t extra junk").IsInvalidArgument());
  EXPECT_TRUE(ExecError("CREATE TABLE bad (n UNICORN)")
                  .IsInvalidArgument());
}

TEST_F(SqlTest, UnknownObjectsAreNotFound) {
  EXPECT_TRUE(ExecError("SELECT * FROM ghost").IsNotFound());
  Exec("CREATE TABLE t (n INT64)");
  EXPECT_TRUE(ExecError("INSERT INTO t (missing) VALUES (1)").IsNotFound());
  EXPECT_TRUE(
      ExecError("UPDATE t SET missing = 1").IsNotFound());
  EXPECT_TRUE(ExecError("DELETE FROM t WHERE missing = 1").IsNotFound());
  EXPECT_TRUE(
      ExecError("UPDATE t SET n = 1 WHERE missing = 1").IsNotFound());
}

TEST_F(SqlTest, InsertValuesCannotReferenceColumns) {
  Exec("CREATE TABLE t (n INT64)");
  EXPECT_FALSE(ExecuteSql(db_.get(), "INSERT INTO t VALUES (n + 1)").ok());
}

TEST_F(SqlTest, EndToEndSqlOnlySession) {
  // A whole session through SQL alone: the surface a downstream user
  // would script against.
  Exec("CREATE TABLE sensors (name STRING NOT NULL, zone STRING, "
       "temp DOUBLE)");
  Exec("CREATE UNIQUE INDEX ON sensors (name)");
  Exec("INSERT INTO sensors (name, zone, temp) VALUES "
       "('s1', 'north', 20.5), ('s2', 'north', 21.0), "
       "('s3', 'south', 35.5), ('s4', 'south', 19.0)");
  Exec("UPDATE sensors SET temp = temp + 0.5 WHERE zone = 'north'");
  Exec("DELETE FROM sensors WHERE temp < 20");
  const SqlResult report = Exec(
      "SELECT zone, COUNT(*), MAX(temp) AS hottest FROM sensors "
      "GROUP BY zone ORDER BY zone");
  ASSERT_EQ(report.result.rows.size(), 2u);
  EXPECT_EQ(report.result.rows[0].Get("zone")->string_value(), "north");
  EXPECT_EQ(report.result.rows[0].Get("count")->int64_value(), 2);
  EXPECT_EQ(report.result.rows[1].Get("hottest")->double_value(), 35.5);
}

}  // namespace
}  // namespace edadb
