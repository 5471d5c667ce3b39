#include "db/database.h"

#include "expr/parser.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace edadb {
namespace {

SchemaPtr OrdersSchema() {
  return Schema::Make({
      {"order_id", ValueType::kInt64, /*nullable=*/false},
      {"customer", ValueType::kString, true},
      {"amount", ValueType::kDouble, true},
      {"region", ValueType::kString, true},
  });
}

class DatabaseTest : public testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.dir = dir_.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    db_ = *Database::Open(std::move(options));
    ASSERT_TRUE(db_->CreateTable("orders", OrdersSchema()).ok());
  }

  Record MakeOrder(int64_t id, const std::string& customer, double amount,
                   const std::string& region = "east") {
    return *RecordBuilder(OrdersSchema())
                .SetInt64("order_id", id)
                .SetString("customer", customer)
                .SetDouble("amount", amount)
                .SetString("region", region)
                .Build();
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(DatabaseTest, CreateTableRejectsDuplicatesAndEmpty) {
  EXPECT_TRUE(
      db_->CreateTable("orders", OrdersSchema()).status().IsAlreadyExists());
  EXPECT_TRUE(db_->CreateTable("empty", Schema::Make({}))
                  .status()
                  .IsInvalidArgument());
}

TEST_F(DatabaseTest, ListAndGetTables) {
  EXPECT_EQ(db_->ListTables(), (std::vector<std::string>{"orders"}));
  EXPECT_TRUE(db_->GetTable("orders").ok());
  EXPECT_TRUE(db_->GetTable("nope").status().IsNotFound());
  Table* table = *db_->GetTable("orders");
  EXPECT_EQ(db_->GetTableById(table->id()), table);
  EXPECT_EQ(db_->GetTableById(999), nullptr);
}

TEST_F(DatabaseTest, InsertAndGetRow) {
  const RowId id = *db_->Insert("orders", MakeOrder(1, "alice", 10.5));
  EXPECT_GT(id, 0u);
  Record row = *db_->GetRow("orders", id);
  EXPECT_EQ(row.Get("customer")->string_value(), "alice");
  EXPECT_EQ(row.Get("amount")->double_value(), 10.5);
  EXPECT_EQ(*db_->CountRows("orders"), 1u);
}

TEST_F(DatabaseTest, InsertValidatesSchema) {
  // NULL into NOT NULL order_id.
  Record bad(OrdersSchema(), {Value::Null(), Value::Null(), Value::Null(),
                              Value::Null()});
  EXPECT_TRUE(db_->Insert("orders", bad).status().IsInvalidArgument());
  EXPECT_TRUE(
      db_->Insert("no_such_table", MakeOrder(1, "x", 1)).status().IsNotFound());
}

TEST_F(DatabaseTest, UpdateAndDeleteRow) {
  const RowId id = *db_->Insert("orders", MakeOrder(1, "alice", 10.5));
  Record updated = MakeOrder(1, "alice", 99.0);
  ASSERT_OK(db_->UpdateRow("orders", id, updated));
  EXPECT_EQ(db_->GetRow("orders", id)->Get("amount")->double_value(), 99.0);
  ASSERT_OK(db_->DeleteRow("orders", id));
  EXPECT_TRUE(db_->GetRow("orders", id).status().IsNotFound());
  EXPECT_TRUE(db_->DeleteRow("orders", id).IsNotFound());
}

TEST_F(DatabaseTest, UpdateWhereAndDeleteWhere) {
  for (int i = 1; i <= 10; ++i) {
    ASSERT_OK(db_->Insert("orders",
                          MakeOrder(i, "c" + std::to_string(i), i * 10.0,
                                    i % 2 == 0 ? "east" : "west")));
  }
  auto east = *Predicate::Compile("region = 'east'");
  const size_t updated = *db_->UpdateWhere(
      "orders", east, [](Record* row) {
        return row->Set("amount", Value::Double(0.0));
      });
  EXPECT_EQ(updated, 5u);
  auto zeroed = *Predicate::Compile("amount = 0.0");
  EXPECT_EQ(*db_->DeleteWhere("orders", zeroed), 5u);
  EXPECT_EQ(*db_->CountRows("orders"), 5u);
}

// DeleteWhere evaluates its WHERE on the rows the access path reads,
// as SELECT does. AND short-circuits, so the failing conjunct comes
// first: a full scan reaches the row where it fails, the index on id
// reads only row 5.
TEST_F(DatabaseTest, DeleteWhereEvaluatesTheRowsItsAccessPathReads) {
  const SchemaPtr schema = Schema::Make(
      {{"id", ValueType::kInt64, false}, {"n", ValueType::kInt64, false}});
  ASSERT_OK(db_->CreateTable("t", schema).status());
  for (int64_t i = 1; i <= 5; ++i) {
    ASSERT_OK(
        db_->Insert("t", Record(schema, {Value::Int64(i), Value::Int64(i)}))
            .status());
  }
  const Predicate where = *Predicate::Compile("100 / (n - 3) > 0 AND id = 5");
  EXPECT_TRUE(db_->DeleteWhere("t", where).status().IsInvalidArgument());
  EXPECT_EQ(*db_->CountRows("t"), 5u);

  ASSERT_OK(db_->CreateIndex("t", "id", /*unique=*/false));
  EXPECT_EQ(*db_->Explain(QueryBuilder("t").Where(where.expr()).Build()),
            "index scan on t.id [5, 5] + residual filter");
  EXPECT_EQ(*db_->DeleteWhere("t", where), 1u);
  EXPECT_EQ(*db_->CountRows("t"), 4u);
}

TEST_F(DatabaseTest, UniqueIndexEnforced) {
  ASSERT_OK(db_->CreateIndex("orders", "order_id", /*unique=*/true));
  ASSERT_OK(db_->Insert("orders", MakeOrder(7, "a", 1)).status());
  EXPECT_TRUE(
      db_->Insert("orders", MakeOrder(7, "b", 2)).status().IsAlreadyExists());
  // Different key is fine.
  ASSERT_OK(db_->Insert("orders", MakeOrder(8, "b", 2)).status());
  // Updating into a conflict is rejected.
  const RowId id8 = *db_->GetTable("orders").value()->GetIndex("order_id")
                         ->Lookup(Value::Int64(8))
                         .begin();
  EXPECT_TRUE(db_->UpdateRow("orders", id8, MakeOrder(7, "b", 2))
                  .IsAlreadyExists());
}

TEST_F(DatabaseTest, DropTableRemovesEverything) {
  ASSERT_OK(db_->Insert("orders", MakeOrder(1, "a", 1)).status());
  ASSERT_OK(db_->DropTable("orders"));
  EXPECT_TRUE(db_->GetTable("orders").status().IsNotFound());
  EXPECT_TRUE(db_->DropTable("orders").IsNotFound());
  // Recreate works.
  ASSERT_OK(db_->CreateTable("orders", OrdersSchema()).status());
  EXPECT_EQ(*db_->CountRows("orders"), 0u);
}

TEST_F(DatabaseTest, QueryFullScanWithFilter) {
  for (int i = 1; i <= 20; ++i) {
    ASSERT_OK(db_->Insert("orders", MakeOrder(i, "c", i * 1.0,
                                              i <= 5 ? "west" : "east")));
  }
  Query query = QueryBuilder("orders").Where("region = 'west'").Build();
  QueryResult result = *db_->Execute(query);
  EXPECT_EQ(result.rows.size(), 5u);
}

TEST_F(DatabaseTest, QueryUsesIndexAndMatchesScanResults) {
  ASSERT_OK(db_->CreateIndex("orders", "amount", false));
  for (int i = 1; i <= 100; ++i) {
    ASSERT_OK(db_->Insert(
        "orders", MakeOrder(i, "c", static_cast<double>(i % 10))));
  }
  Query query =
      QueryBuilder("orders").Where("amount >= 3.0 AND amount < 5.0").Build();
  QueryResult with_index = *db_->Execute(query);
  EXPECT_EQ(with_index.rows.size(), 20u);
  // Sanity: same query against an unindexed copy of the predicate on a
  // column without an index gives the same rows.
  Query scan_query =
      QueryBuilder("orders").Where("amount + 0.0 >= 3.0 AND amount < 5.0")
          .Build();
  QueryResult without_index = *db_->Execute(scan_query);
  EXPECT_EQ(without_index.rows.size(), with_index.rows.size());
}

TEST_F(DatabaseTest, QueryProjectionAndOrderAndLimit) {
  for (int i = 1; i <= 5; ++i) {
    ASSERT_OK(db_->Insert("orders", MakeOrder(i, "c" + std::to_string(i),
                                              6.0 - i)));
  }
  Query query = QueryBuilder("orders")
                    .Select({"order_id", "amount"})
                    .OrderByDesc("amount")
                    .Limit(3)
                    .Build();
  QueryResult result = *db_->Execute(query);
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_EQ(result.schema->num_fields(), 2u);
  EXPECT_EQ(result.rows[0].Get("order_id")->int64_value(), 1);
  EXPECT_EQ(result.rows[1].Get("order_id")->int64_value(), 2);
  EXPECT_EQ(result.rows[2].Get("order_id")->int64_value(), 3);
}

TEST_F(DatabaseTest, QueryUnknownColumnsError) {
  Query bad_select = QueryBuilder("orders").Select({"nope"}).Build();
  EXPECT_TRUE(db_->Execute(bad_select).status().IsNotFound());
  Query bad_where = QueryBuilder("orders").Where("nope = 1").Build();
  EXPECT_TRUE(db_->Execute(bad_where).status().IsNotFound());
  Query bad_order = QueryBuilder("orders").OrderByAsc("nope").Build();
  ASSERT_OK(db_->Insert("orders", MakeOrder(1, "a", 1)).status());
  EXPECT_TRUE(db_->Execute(bad_order).status().IsNotFound());
}

TEST_F(DatabaseTest, QueryBuildErrorSurfaces) {
  Query bad = QueryBuilder("orders").Where("syntax >>> error").Build();
  EXPECT_FALSE(db_->Execute(bad).ok());
}

TEST_F(DatabaseTest, AggregatesWithoutGroupBy) {
  for (int i = 1; i <= 4; ++i) {
    ASSERT_OK(db_->Insert("orders", MakeOrder(i, "c", i * 1.0)));
  }
  Query query = QueryBuilder("orders")
                    .Count("n")
                    .Sum("amount", "total")
                    .Avg("amount", "mean")
                    .Min("amount", "lo")
                    .Max("amount", "hi")
                    .Build();
  QueryResult result = *db_->Execute(query);
  ASSERT_EQ(result.rows.size(), 1u);
  const Record& row = result.rows[0];
  EXPECT_EQ(row.Get("n")->int64_value(), 4);
  EXPECT_EQ(row.Get("total")->double_value(), 10.0);
  EXPECT_EQ(row.Get("mean")->double_value(), 2.5);
  EXPECT_EQ(row.Get("lo")->double_value(), 1.0);
  EXPECT_EQ(row.Get("hi")->double_value(), 4.0);
}

TEST_F(DatabaseTest, AggregatesEmptyInputStillOneRow) {
  Query query = QueryBuilder("orders").Count("n").Sum("amount").Build();
  QueryResult result = *db_->Execute(query);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].Get("n")->int64_value(), 0);
  EXPECT_TRUE(result.rows[0].Get("sum_amount")->is_null());
}

TEST_F(DatabaseTest, GroupByAggregates) {
  for (int i = 1; i <= 9; ++i) {
    ASSERT_OK(db_->Insert("orders",
                          MakeOrder(i, "c", i * 1.0,
                                    i % 3 == 0 ? "north" : "south")));
  }
  Query query = QueryBuilder("orders")
                    .GroupBy({"region"})
                    .Count("n")
                    .Sum("amount", "total")
                    .OrderByAsc("region")
                    .Build();
  QueryResult result = *db_->Execute(query);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].Get("region")->string_value(), "north");
  EXPECT_EQ(result.rows[0].Get("n")->int64_value(), 3);
  EXPECT_EQ(result.rows[0].Get("total")->double_value(), 18.0);
  EXPECT_EQ(result.rows[1].Get("region")->string_value(), "south");
  EXPECT_EQ(result.rows[1].Get("n")->int64_value(), 6);
}

TEST_F(DatabaseTest, GroupByWithoutAggregatesRejected) {
  Query query = QueryBuilder("orders").GroupBy({"region"}).Build();
  EXPECT_TRUE(db_->Execute(query).status().IsInvalidArgument());
}

TEST_F(DatabaseTest, CreateIndexOnMissingColumnFails) {
  EXPECT_TRUE(db_->CreateIndex("orders", "nope", false).IsNotFound());
  EXPECT_TRUE(db_->CreateIndex("nope", "region", false).IsNotFound());
}

TEST_F(DatabaseTest, IndexBackfillsExistingRows) {
  for (int i = 1; i <= 10; ++i) {
    ASSERT_OK(db_->Insert("orders", MakeOrder(i, "c", 5.0)));
  }
  ASSERT_OK(db_->CreateIndex("orders", "amount", false));
  const BTreeIndex* index = db_->GetTable("orders").value()->GetIndex("amount");
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->Lookup(Value::Double(5.0)).size(), 10u);
}

}  // namespace
}  // namespace edadb
