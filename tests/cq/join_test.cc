#include "cq/join.h"

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "test_util.h"
#include "testing/seeded_rng.h"

namespace edadb {
namespace {

SchemaPtr TickSchema() {
  return Schema::Make({
      {"symbol", ValueType::kString, false},
      {"price", ValueType::kDouble, false},
  });
}

Record Tick(const std::string& symbol, double price) {
  return Record(TickSchema(),
                {Value::String(symbol), Value::Double(price)});
}

class StreamTableJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.dir = dir_.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    db_ = *Database::Open(std::move(options));
    ref_schema_ = Schema::Make({
        {"symbol", ValueType::kString, false},
        {"exchange", ValueType::kString, true},
    });
    ASSERT_TRUE(db_->CreateTable("listings", ref_schema_).ok());
    ASSERT_TRUE(db_->CreateIndex("listings", "symbol", false).ok());
    ASSERT_TRUE(
        db_->Insert("listings",
                    Record(ref_schema_, {Value::String("ACME"),
                                         Value::String("NYSE")}))
            .ok());
    ASSERT_TRUE(
        db_->Insert("listings",
                    Record(ref_schema_, {Value::String("GLOBEX"),
                                         Value::String("CME")}))
            .ok());
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
  SchemaPtr ref_schema_;
};

TEST_F(StreamTableJoinTest, EnrichesEventsViaIndex) {
  std::vector<Record> out;
  auto join = *StreamTableJoin::Create(
      db_.get(), TickSchema(),
      {.stream_key = "symbol", .table = "listings", .table_key = "symbol"},
      [&](const Record& joined) { out.push_back(joined); });
  // Output schema qualifies the colliding "symbol" column.
  EXPECT_TRUE(join->output_schema()->HasField("listings.symbol"));
  EXPECT_TRUE(join->output_schema()->HasField("exchange"));

  ASSERT_TRUE(join->Push(Tick("ACME", 101.5)).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].Get("price")->double_value(), 101.5);
  EXPECT_EQ(out[0].Get("exchange")->string_value(), "NYSE");

  // Inner join: unknown symbol emits nothing.
  ASSERT_TRUE(join->Push(Tick("UNLISTED", 1.0)).ok());
  EXPECT_EQ(out.size(), 1u);
}

TEST_F(StreamTableJoinTest, LeftOuterEmitsNulls) {
  std::vector<Record> out;
  auto join = *StreamTableJoin::Create(
      db_.get(), TickSchema(),
      {.stream_key = "symbol", .table = "listings",
       .table_key = "symbol", .left_outer = true},
      [&](const Record& joined) { out.push_back(joined); });
  ASSERT_TRUE(join->Push(Tick("UNLISTED", 1.0)).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].Get("exchange")->is_null());
}

TEST_F(StreamTableJoinTest, SeesLiveTableUpdates) {
  std::vector<Record> out;
  auto join = *StreamTableJoin::Create(
      db_.get(), TickSchema(),
      {.stream_key = "symbol", .table = "listings", .table_key = "symbol"},
      [&](const Record& joined) { out.push_back(joined); });
  ASSERT_TRUE(join->Push(Tick("INITECH", 1)).ok());
  EXPECT_TRUE(out.empty());
  // Reference data arrives later; the next event joins.
  ASSERT_TRUE(db_->Insert("listings",
                          Record(ref_schema_, {Value::String("INITECH"),
                                               Value::String("NASDAQ")}))
                  .ok());
  ASSERT_TRUE(join->Push(Tick("INITECH", 2)).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].Get("exchange")->string_value(), "NASDAQ");
}

TEST_F(StreamTableJoinTest, WorksWithoutIndexViaScan) {
  ASSERT_TRUE(db_->CreateTable("unindexed", ref_schema_).ok());
  ASSERT_TRUE(db_->Insert("unindexed",
                          Record(ref_schema_, {Value::String("ACME"),
                                               Value::String("LSE")}))
                  .ok());
  std::vector<Record> out;
  auto join = *StreamTableJoin::Create(
      db_.get(), TickSchema(),
      {.stream_key = "symbol", .table = "unindexed",
       .table_key = "symbol"},
      [&](const Record& joined) { out.push_back(joined); });
  ASSERT_TRUE(join->Push(Tick("ACME", 5)).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].Get("exchange")->string_value(), "LSE");
}

// Push reads the table through Database::Execute, under the database's
// lock, so it races no writer, with or without an index on the join key
// (the TSan suites run this).
TEST_F(StreamTableJoinTest, PushWhileTableChanges) {
  ASSERT_OK(db_->CreateTable("unindexed", ref_schema_).status());
  constexpr int kRows = 200;
  auto symbol = [](int i) { return "S" + std::to_string(i); };
  for (const std::string table : {"listings", "unindexed"}) {
    auto join = *StreamTableJoin::Create(
        db_.get(), TickSchema(),
        {.stream_key = "symbol", .table = table, .table_key = "symbol"},
        [](const Record&) {});
    std::thread writer([&] {
      for (int i = 0; i < kRows; ++i) {
        EXPECT_OK(db_->Insert(table, Record(ref_schema_,
                                            {Value::String(symbol(i)),
                                             Value::String("X")}))
                      .status());
      }
    });
    for (int i = 0; i < kRows; ++i) EXPECT_OK(join->Push(Tick(symbol(i), 1)));
    writer.join();
    // Once every row is in, every event joins exactly once.
    const uint64_t before = join->emitted();
    for (int i = 0; i < kRows; ++i) EXPECT_OK(join->Push(Tick(symbol(i), 2)));
    EXPECT_EQ(join->emitted() - before, static_cast<uint64_t>(kRows));
  }
}

TEST_F(StreamTableJoinTest, CreateValidation) {
  EXPECT_FALSE(StreamTableJoin::Create(
                   db_.get(), TickSchema(),
                   {.stream_key = "nope", .table = "listings",
                    .table_key = "symbol"},
                   [](const Record&) {})
                   .ok());
  EXPECT_TRUE(StreamTableJoin::Create(
                  db_.get(), TickSchema(),
                  {.stream_key = "symbol", .table = "ghost",
                   .table_key = "symbol"},
                  [](const Record&) {})
                  .status()
                  .IsNotFound());
}

// ---------------------------------------------------------------------------
// IntervalJoin

SchemaPtr OrderSchema() {
  return Schema::Make({
      {"order_id", ValueType::kInt64, false},
      {"amount", ValueType::kDouble, true},
  });
}

Record Order(int64_t id, double amount) {
  return Record(OrderSchema(), {Value::Int64(id), Value::Double(amount)});
}

TEST(IntervalJoinTest, PairsWithinWindow) {
  std::vector<std::pair<int64_t, int64_t>> pairs;
  IntervalJoin join(
      {.left_key = "order_id", .right_key = "order_id",
       .window_micros = 100},
      [&](const Record& l, const Record& r, TimestampMicros) {
        pairs.emplace_back(l.Get("order_id")->int64_value(),
                           r.Get("order_id")->int64_value());
      });
  ASSERT_TRUE(join.PushLeft(Order(1, 10), 0).ok());
  ASSERT_TRUE(join.PushRight(Order(1, 10), 50).ok());   // Within.
  ASSERT_TRUE(join.PushRight(Order(1, 10), 90).ok());   // Also within.
  ASSERT_TRUE(join.PushRight(Order(2, 5), 95).ok());    // Key mismatch.
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (std::pair<int64_t, int64_t>{1, 1}));
}

TEST(IntervalJoinTest, WindowExpiryPreventsPairing) {
  int pairs = 0;
  IntervalJoin join(
      {.left_key = "order_id", .right_key = "order_id",
       .window_micros = 100},
      [&](const Record&, const Record&, TimestampMicros) { ++pairs; });
  ASSERT_TRUE(join.PushLeft(Order(1, 10), 0).ok());
  ASSERT_TRUE(join.PushRight(Order(1, 10), 201).ok());  // Too late.
  EXPECT_EQ(pairs, 0);
  EXPECT_EQ(join.buffered_left(), 0u);  // Evicted by watermark.
}

TEST(IntervalJoinTest, RightBeforeLeftAlsoPairs) {
  int pairs = 0;
  IntervalJoin join(
      {.left_key = "order_id", .right_key = "order_id",
       .window_micros = 100},
      [&](const Record&, const Record&, TimestampMicros ts) {
        ++pairs;
        EXPECT_EQ(ts, 80);
      });
  ASSERT_TRUE(join.PushRight(Order(7, 1), 30).ok());
  ASSERT_TRUE(join.PushLeft(Order(7, 1), 80).ok());
  EXPECT_EQ(pairs, 1);
}

TEST(IntervalJoinTest, ManyToManyWithinKey) {
  int pairs = 0;
  IntervalJoin join(
      {.left_key = "order_id", .right_key = "order_id",
       .window_micros = 1000},
      [&](const Record&, const Record&, TimestampMicros) { ++pairs; });
  ASSERT_TRUE(join.PushLeft(Order(1, 1), 0).ok());
  ASSERT_TRUE(join.PushLeft(Order(1, 2), 10).ok());
  ASSERT_TRUE(join.PushRight(Order(1, 3), 20).ok());  // Pairs with both.
  ASSERT_TRUE(join.PushRight(Order(1, 4), 30).ok());  // Pairs with both.
  EXPECT_EQ(pairs, 4);
  EXPECT_EQ(join.emitted(), 4u);
}

TEST(IntervalJoinTest, NullKeysNeverJoin) {
  int pairs = 0;
  IntervalJoin join(
      {.left_key = "amount", .right_key = "amount",
       .window_micros = 1000},
      [&](const Record&, const Record&, TimestampMicros) { ++pairs; });
  Record null_amount(OrderSchema(), {Value::Int64(1), Value::Null()});
  ASSERT_TRUE(join.PushLeft(null_amount, 0).ok());
  ASSERT_TRUE(join.PushRight(null_amount, 1).ok());
  EXPECT_EQ(pairs, 0);
}

TEST(IntervalJoinTest, MemoryBoundedByWindow) {
  IntervalJoin join(
      {.left_key = "order_id", .right_key = "order_id",
       .window_micros = 100},
      [](const Record&, const Record&, TimestampMicros) {});
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(join.PushLeft(Order(i, 1), i * 10).ok());
  }
  // Only events within the last window (10 ticks of 10) stay buffered.
  EXPECT_LE(join.buffered_left(), 12u);
}

// Regression for the seed's arrival-order eviction deque: one
// out-of-order event desynchronized the deque from the per-key buffers
// and stranded entries forever. The min-heap evicts by timestamp, so a
// shuffled stream stays bounded.
TEST(IntervalJoinTest, ShuffledStreamMemoryStaysBounded) {
  IntervalJoin join(
      {.left_key = "order_id", .right_key = "order_id",
       .window_micros = 100},
      [](const Record&, const Record&, TimestampMicros) {});
  testing::SeededRng rng(0xA11CE);
  std::vector<TimestampMicros> ts;
  for (int i = 0; i < 2000; ++i) ts.push_back(i * 10);
  // Shuffle within a bounded disorder horizon so events stay pairable.
  for (size_t i = 0; i + 8 < ts.size(); ++i) {
    std::swap(ts[i], ts[i + rng.Uniform(8)]);
  }
  for (size_t i = 0; i < ts.size(); ++i) {
    ASSERT_TRUE(join.PushLeft(Order(static_cast<int64_t>(i), 1), ts[i]).ok());
  }
  // Window holds ~10 ticks; disorder adds a few in flight. The seed bug
  // ended this run with hundreds of stranded entries.
  EXPECT_LE(join.buffered_left(), 32u);
}

TEST(IntervalJoinTest, OutOfOrderEventStillPairs) {
  std::vector<TimestampMicros> pair_ts;
  IntervalJoin join(
      {.left_key = "order_id", .right_key = "order_id",
       .window_micros = 100},
      [&](const Record&, const Record&, TimestampMicros ts) {
        pair_ts.push_back(ts);
      });
  ASSERT_TRUE(join.PushLeft(Order(1, 1), 50).ok());
  ASSERT_TRUE(join.PushLeft(Order(1, 2), 120).ok());
  // Right event arrives out of order (ts 60 after seeing 120): pairs
  // with both lefts within |dt| <= 100.
  ASSERT_TRUE(join.PushRight(Order(1, 3), 60).ok());
  ASSERT_EQ(pair_ts.size(), 2u);
  EXPECT_EQ(pair_ts[0], 60);
  EXPECT_EQ(pair_ts[1], 120);
}

// Under kCorrect the eviction watermark is the min across sides (minus
// lateness), so a fast left side cannot evict the buffer a slow right
// side still needs.
TEST(IntervalJoinTest, CorrectLevelHoldsBufferForSlowSide) {
  int pairs = 0;
  IntervalJoin join(
      {.left_key = "order_id", .right_key = "order_id",
       .window_micros = 100,
       .consistency = ConsistencyLevel::kCorrect},
      [&](const Record&, const Record&, TimestampMicros) { ++pairs; });
  ASSERT_TRUE(join.PushLeft(Order(1, 1), 0).ok());
  ASSERT_TRUE(join.PushLeft(Order(2, 1), 500).ok());  // Left races ahead.
  // Right is slow: its ts 80 partner must still be buffered, even
  // though the frontier (500) is far past 0 + window.
  ASSERT_TRUE(join.PushRight(Order(1, 1), 80).ok());
  EXPECT_EQ(pairs, 1);
  // The same stream under kFast evicts at the frontier and misses it.
  int fast_pairs = 0;
  IntervalJoin fast(
      {.left_key = "order_id", .right_key = "order_id",
       .window_micros = 100},
      [&](const Record&, const Record&, TimestampMicros) { ++fast_pairs; });
  ASSERT_TRUE(fast.PushLeft(Order(1, 1), 0).ok());
  ASSERT_TRUE(fast.PushLeft(Order(2, 1), 500).ok());
  ASSERT_TRUE(fast.PushRight(Order(1, 1), 80).ok());
  EXPECT_EQ(fast_pairs, 0);
  EXPECT_EQ(fast.late_dropped(), 1u);
}

TEST(IntervalJoinTest, PunctuationAdvancesEviction) {
  IntervalJoin join(
      {.left_key = "order_id", .right_key = "order_id",
       .window_micros = 100,
       .consistency = ConsistencyLevel::kCorrect},
      [](const Record&, const Record&, TimestampMicros) {});
  ASSERT_TRUE(join.PushLeft(Order(1, 1), 0).ok());
  ASSERT_TRUE(join.PushLeft(Order(2, 1), 1000).ok());
  // Left alone cannot evict (right side unknown ⇒ low watermark unset).
  EXPECT_EQ(join.buffered_left(), 2u);
  // Right promises it is past 1000 without sending an event.
  join.PunctuateRight(1000);
  EXPECT_EQ(join.buffered_left(), 1u);  // ts 0 gone, ts 1000 kept.
}

}  // namespace
}  // namespace edadb
