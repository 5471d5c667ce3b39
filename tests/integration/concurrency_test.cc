// Concurrency stress: the documented model is one writer lock for DML,
// shared locks for reads, and thread-safe facades above. These tests
// hammer that contract from several threads and then verify global
// invariants.

#include <atomic>
#include <thread>

#include "db/database.h"
#include "gtest/gtest.h"
#include "rules/rules_engine.h"
#include "test_util.h"
#include "testing/sleep.h"

namespace edadb {
namespace {

SchemaPtr CounterSchema() {
  return Schema::Make({
      {"writer", ValueType::kInt64, false},
      {"seq", ValueType::kInt64, false},
  });
}

TEST(ConcurrencyTest, ParallelWritersAndReadersAndCheckpoints) {
  TempDir dir;
  DatabaseOptions options;
  options.dir = dir.path();
  options.wal_sync_policy = WalSyncPolicy::kNever;
  auto db = *Database::Open(std::move(options));
  ASSERT_TRUE(db->CreateTable("events", CounterSchema()).ok());
  ASSERT_TRUE(db->CreateIndex("events", "writer", false).ok());

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 300;
  std::atomic<bool> stop_readers{false};
  std::atomic<int> read_errors{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        Record row(CounterSchema(),
                   {Value::Int64(w), Value::Int64(i)});
        ASSERT_TRUE(db->Insert("events", std::move(row)).ok());
      }
    });
  }
  // Two readers running aggregate queries concurrently.
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      while (!stop_readers.load()) {
        Query query = QueryBuilder("events")
                          .GroupBy({"writer"})
                          .Count("n")
                          .Build();
        auto result = db->Execute(query);
        if (!result.ok()) {
          read_errors.fetch_add(1);
          return;
        }
        // Partial counts are fine; they must never exceed the maximum.
        for (const Record& row : result->rows) {
          if (row.Get("n")->int64_value() > kPerWriter) {
            read_errors.fetch_add(1);
            return;
          }
        }
        std::this_thread::yield();
      }
    });
  }
  // A checkpointer racing with everything.
  threads.emplace_back([&] {
    for (int c = 0; c < 5; ++c) {
      ASSERT_TRUE(db->Checkpoint(0).ok());
      testing::SleepForMillis(2);
    }
  });

  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  stop_readers.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(read_errors.load(), 0);
  EXPECT_EQ(*db->CountRows("events"),
            static_cast<size_t>(kWriters * kPerWriter));
  // Index agrees with the heap for every writer.
  const Table* table = *db->GetTable("events");
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(table->GetIndex("writer")->Lookup(Value::Int64(w)).size(),
              static_cast<size_t>(kPerWriter));
  }
}

TEST(ConcurrencyTest, RecoveryAfterConcurrentWorkload) {
  TempDir dir;
  {
    DatabaseOptions options;
    options.dir = dir.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    auto db = *Database::Open(std::move(options));
    ASSERT_TRUE(db->CreateTable("events", CounterSchema()).ok());
    std::vector<std::thread> writers;
    for (int w = 0; w < 3; ++w) {
      writers.emplace_back([&, w] {
        for (int i = 0; i < 200; ++i) {
          auto txn = db->BeginTransaction();
          for (int j = 0; j < 2; ++j) {
            ASSERT_TRUE(
                txn->Insert("events", Record(CounterSchema(),
                                             {Value::Int64(w),
                                              Value::Int64(i * 2 + j)}))
                    .ok());
          }
          ASSERT_TRUE(txn->Commit().ok());
        }
      });
    }
    for (auto& t : writers) t.join();
  }
  DatabaseOptions options;
  options.dir = dir.path();
  options.wal_sync_policy = WalSyncPolicy::kNever;
  auto db = *Database::Open(std::move(options));
  EXPECT_EQ(*db->CountRows("events"), 1200u);
}

TEST(ConcurrencyTest, RulesEngineConcurrentEvaluateAndMutate) {
  TempDir dir;
  DatabaseOptions options;
  options.dir = dir.path();
  options.wal_sync_policy = WalSyncPolicy::kNever;
  auto db = *Database::Open(std::move(options));
  auto engine = *RulesEngine::Attach(db.get());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine
                    ->AddRule("seed" + std::to_string(i),
                              "x = " + std::to_string(i), "a")
                    .ok());
  }

  class IntRow : public RowAccessor {
   public:
    explicit IntRow(int64_t x) : x_(x) {}
    std::optional<Value> GetAttribute(std::string_view name) const override {
      if (name == "x") return Value::Int64(x_);
      return std::nullopt;
    }

   private:
    int64_t x_;
  };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> evaluations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      uint64_t seed = static_cast<uint64_t>(t) + 1;
      while (!stop.load()) {
        seed = seed * 6364136223846793005ULL + 1;
        IntRow row(static_cast<int64_t>(seed % 50));
        ASSERT_TRUE(engine->Evaluate(row).ok());
        evaluations.fetch_add(1);
      }
    });
  }
  // Wait for evaluation to actually start (on one core the churn loop
  // below could otherwise finish before any evaluator thread runs).
  while (evaluations.load() == 0) {
    std::this_thread::yield();
  }
  // Churn rules while evaluation is in flight.
  for (int i = 0; i < 100; ++i) {
    const std::string id = "churn" + std::to_string(i);
    ASSERT_TRUE(
        engine->AddRule(id, "x = " + std::to_string(i % 50), "b").ok());
    if (i >= 10) {
      ASSERT_TRUE(
          engine->RemoveRule("churn" + std::to_string(i - 10)).ok());
    }
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_GT(evaluations.load(), 0u);
  EXPECT_EQ(engine->num_rules(), 50u + 10u);
}

}  // namespace
}  // namespace edadb
