#include "rules/rules_engine.h"

#include <atomic>
#include <map>
#include <thread>

#include "common/failpoint.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "testing/crash_harness.h"

namespace edadb {
namespace {

class MapRow : public RowAccessor {
 public:
  std::map<std::string, Value> values;
  std::optional<Value> GetAttribute(std::string_view name) const override {
    auto it = values.find(std::string(name));
    if (it == values.end()) return std::nullopt;
    return it->second;
  }
};

class RulesEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { Reopen(); }

  void Reopen() {
    engine_.reset();
    db_.reset();
    DatabaseOptions options;
    options.dir = dir_.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    db_ = *Database::Open(std::move(options));
    engine_ = *RulesEngine::Attach(db_.get());
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<RulesEngine> engine_;
};

TEST_F(RulesEngineTest, AddEvaluateRemove) {
  ASSERT_OK(engine_->AddRule("hot", "temp > 30", "alert"));
  EXPECT_EQ(engine_->num_rules(), 1u);
  EXPECT_TRUE(engine_->AddRule("hot", "temp > 40", "x").IsAlreadyExists());
  MapRow event;
  event.values["temp"] = Value::Double(35.0);
  EXPECT_EQ(*engine_->Evaluate(event), (std::vector<std::string>{"hot"}));
  event.values["temp"] = Value::Double(25.0);
  EXPECT_TRUE(engine_->Evaluate(event)->empty());
  ASSERT_OK(engine_->RemoveRule("hot"));
  EXPECT_TRUE(engine_->RemoveRule("hot").IsNotFound());
  EXPECT_EQ(engine_->num_rules(), 0u);
}

TEST_F(RulesEngineTest, InvalidConditionRejectedWithoutSideEffects) {
  EXPECT_FALSE(engine_->AddRule("bad", "syntax >>>", "x").ok());
  EXPECT_EQ(engine_->num_rules(), 0u);
  EXPECT_TRUE(engine_->ListRules().empty());
}

// A rule the matcher would refuse never reaches __rules, so the next
// Attach still loads every row.
TEST_F(RulesEngineTest, EmptyIdRejectedBeforeTheRowIsWritten) {
  EXPECT_TRUE(engine_->AddRule("", "x > 1", "a").IsInvalidArgument());
  EXPECT_EQ(engine_->num_rules(), 0u);
  Reopen();
  EXPECT_EQ(engine_->num_rules(), 0u);
  EXPECT_TRUE(engine_->RemoveRule("").IsNotFound());
}

// The unique index on rule_id refuses a duplicate before anything
// applies: the first rule stays, in memory and after a reopen.
TEST_F(RulesEngineTest, DuplicateIdKeepsTheFirstRule) {
  ASSERT_OK(engine_->AddRule("hot", "temp > 30", "alert"));
  EXPECT_TRUE(engine_->AddRule("hot", "temp > 40", "x").IsAlreadyExists());
  MapRow event;
  event.values["temp"] = Value::Double(35.0);
  EXPECT_EQ(*engine_->Evaluate(event), (std::vector<std::string>{"hot"}));
  Reopen();
  EXPECT_EQ(engine_->num_rules(), 1u);
  EXPECT_EQ(engine_->FindRule("hot")->action, "alert");
  EXPECT_EQ(*engine_->Evaluate(event), (std::vector<std::string>{"hot"}));
}

TEST_F(RulesEngineTest, HandlersDispatchByActionPriorityOrder) {
  std::vector<std::string> calls;
  engine_->RegisterActionHandler(
      "page", [&](const Rule& rule, const RowAccessor&) {
        calls.push_back("page:" + rule.id);
      });
  engine_->RegisterActionHandler(
      "log", [&](const Rule& rule, const RowAccessor&) {
        calls.push_back("log:" + rule.id);
      });
  engine_->RegisterDefaultHandler(
      [&](const Rule& rule, const RowAccessor&) {
        calls.push_back("default:" + rule.id);
      });
  ASSERT_OK(engine_->AddRule("low", "x > 0", "log", /*priority=*/1));
  ASSERT_OK(engine_->AddRule("high", "x > 0", "page", /*priority=*/9));
  ASSERT_OK(engine_->AddRule("other", "x > 0", "unknown_action", 5));
  MapRow event;
  event.values["x"] = Value::Int64(1);
  const auto matched = *engine_->Evaluate(event);
  EXPECT_EQ(matched,
            (std::vector<std::string>{"high", "other", "low"}));
  EXPECT_EQ(calls, (std::vector<std::string>{"page:high", "default:other",
                                             "log:low"}));
}

TEST_F(RulesEngineTest, EnableDisable) {
  ASSERT_OK(engine_->AddRule("r", "x = 1", "a"));
  MapRow event;
  event.values["x"] = Value::Int64(1);
  EXPECT_EQ(engine_->Evaluate(event)->size(), 1u);
  ASSERT_OK(engine_->SetRuleEnabled("r", false));
  EXPECT_TRUE(engine_->Evaluate(event)->empty());
  ASSERT_OK(engine_->SetRuleEnabled("r", true));
  EXPECT_EQ(engine_->Evaluate(event)->size(), 1u);
  EXPECT_TRUE(engine_->SetRuleEnabled("ghost", true).IsNotFound());
}

TEST_F(RulesEngineTest, FindRuleReturnsCopy) {
  ASSERT_OK(engine_->AddRule("r", "x = 1", "route", 3));
  auto rule = engine_->FindRule("r");
  ASSERT_TRUE(rule.has_value());
  EXPECT_EQ(rule->action, "route");
  EXPECT_EQ(rule->priority, 3);
  EXPECT_FALSE(engine_->FindRule("ghost").has_value());
}

TEST_F(RulesEngineTest, RulesPersistAcrossRestart) {
  ASSERT_OK(engine_->AddRule("keeper", "severity >= 5", "alert", 2));
  ASSERT_OK(engine_->AddRule("sleeper", "x = 1", "log"));
  ASSERT_OK(engine_->SetRuleEnabled("sleeper", false));
  Reopen();
  EXPECT_EQ(engine_->num_rules(), 2u);
  auto keeper = engine_->FindRule("keeper");
  ASSERT_TRUE(keeper.has_value());
  EXPECT_EQ(keeper->action, "alert");
  EXPECT_EQ(keeper->priority, 2);
  // Disabled state persisted too.
  MapRow event;
  event.values["x"] = Value::Int64(1);
  event.values["severity"] = Value::Int64(9);
  EXPECT_EQ(*engine_->Evaluate(event),
            (std::vector<std::string>{"keeper"}));
}

// The rules table is changed by a rule id taken as a value, never as
// predicate text: a quote in an id touches that rule alone.
TEST_F(RulesEngineTest, RemoveRuleWithQuoteInIdRemovesOnlyThatRule) {
  const std::string evil = "evil' OR rule_id <> '";
  ASSERT_OK(engine_->AddRule("a", "x = 1", "log"));
  ASSERT_OK(engine_->AddRule(evil, "x = 1", "log"));
  ASSERT_OK(engine_->RemoveRule(evil));
  EXPECT_EQ(engine_->num_rules(), 1u);
  Reopen();
  EXPECT_EQ(engine_->num_rules(), 1u);
  EXPECT_TRUE(engine_->FindRule("a").has_value());
}

TEST_F(RulesEngineTest, SetRuleEnabledWithQuoteInIdTouchesOnlyThatRule) {
  const std::string evil = "evil' OR rule_id <> '";
  ASSERT_OK(engine_->AddRule("a", "x = 1", "log"));
  ASSERT_OK(engine_->AddRule(evil, "x = 1", "log"));
  ASSERT_OK(engine_->SetRuleEnabled(evil, false));
  MapRow event;
  event.values["x"] = Value::Int64(1);
  EXPECT_EQ(*engine_->Evaluate(event), (std::vector<std::string>{"a"}));
  Reopen();
  EXPECT_EQ(*engine_->Evaluate(event), (std::vector<std::string>{"a"}));
}

// ListRules reads __rules through Database::Execute, under the
// database's lock, so it races no rule change (the TSan suites run it).
TEST_F(RulesEngineTest, ListRulesWhileAddingRules) {
  constexpr int kRules = 200;
  std::atomic<bool> done{false};
  std::thread adder([&] {
    for (int i = 0; i < kRules; ++i) {
      EXPECT_OK(engine_->AddRule("r" + std::to_string(i),
                                 "x = " + std::to_string(i), "log"));
    }
    done.store(true);
  });
  size_t last = 0;
  while (!done.load()) {
    const size_t listed = engine_->ListRules().size();
    EXPECT_GE(listed, last);
    last = listed;
  }
  adder.join();
  EXPECT_EQ(engine_->ListRules().size(), static_cast<size_t>(kRules));
}

#if EDADB_FAILPOINTS_ENABLED
// A rule change writes the __rules row first and touches the matcher
// only once that commit applied: a change whose commit failed leaves
// the rule as it was, in memory and after a reopen.
TEST_F(RulesEngineTest, FailedRemoveLeavesRuleInMemoryAndOnDisk) {
  testing::FailpointGuard guard;
  ASSERT_OK(engine_->AddRule("hot", "temp > 30", "alert"));
  MapRow event;
  event.values["temp"] = Value::Double(35.0);

  testing::ArmError("db.commit.before_wal");
  EXPECT_FALSE(engine_->RemoveRule("hot").ok());
  failpoint::DisarmAll();
  EXPECT_EQ(*engine_->Evaluate(event), (std::vector<std::string>{"hot"}));
  EXPECT_EQ(engine_->num_rules(), 1u);
  Reopen();
  EXPECT_EQ(*engine_->Evaluate(event), (std::vector<std::string>{"hot"}));
}

TEST_F(RulesEngineTest, FailedDisableLeavesRuleEnabled) {
  testing::FailpointGuard guard;
  ASSERT_OK(engine_->AddRule("hot", "temp > 30", "alert"));
  MapRow event;
  event.values["temp"] = Value::Double(35.0);

  testing::ArmError("db.commit.before_wal");
  EXPECT_FALSE(engine_->SetRuleEnabled("hot", false).ok());
  failpoint::DisarmAll();
  EXPECT_EQ(*engine_->Evaluate(event), (std::vector<std::string>{"hot"}));
  Reopen();
  EXPECT_EQ(*engine_->Evaluate(event), (std::vector<std::string>{"hot"}));
}
#endif  // EDADB_FAILPOINTS_ENABLED

}  // namespace
}  // namespace edadb
