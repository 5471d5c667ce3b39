#include "core/event.h"
#include "core/monitor.h"
#include "core/responder.h"
#include "core/virt.h"

#include "common/random.h"
#include "gtest/gtest.h"
#include "mq/queue_manager.h"
#include "test_util.h"

namespace edadb {
namespace {

Event MakeEvent(const std::string& type, int64_t severity,
                const std::string& source = "test") {
  Event event;
  event.id = NextEventId();
  event.type = type;
  event.source = source;
  event.timestamp = 1000;
  event.Set("severity", Value::Int64(severity));
  return event;
}

TEST(EventTest, AttributeAccessors) {
  Event event = MakeEvent("alarm", 7);
  EXPECT_EQ(event.Get("severity")->int64_value(), 7);
  EXPECT_FALSE(event.Get("missing").has_value());
  event.Set("severity", Value::Int64(9));  // Overwrite, not append.
  EXPECT_EQ(event.attributes.size(), 1u);
  EXPECT_EQ(event.Get("severity")->int64_value(), 9);
}

TEST(EventTest, ViewExposesReservedNames) {
  Event event = MakeEvent("alarm", 7, "sensor-1");
  EventView view(event);
  EXPECT_EQ(view.GetAttribute("event_type")->string_value(), "alarm");
  EXPECT_EQ(view.GetAttribute("source")->string_value(), "sensor-1");
  EXPECT_EQ(view.GetAttribute("timestamp")->timestamp_value(), 1000);
  EXPECT_EQ(view.GetAttribute("severity")->int64_value(), 7);
}

TEST(EventTest, IdsAreUnique) {
  const uint64_t a = NextEventId();
  const uint64_t b = NextEventId();
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------------
// VIRT

class VirtTest : public testing::Test {
 protected:
  SimulatedClock clock_{0};
  VirtFilter filter_{&clock_};
};

TEST_F(VirtTest, RelevanceGate) {
  VirtFilter::ConsumerOptions options;
  options.interest = *Predicate::Compile("event_type = 'hazmat'");
  ASSERT_OK(filter_.RegisterConsumer("ops", options));
  EXPECT_EQ(filter_.Evaluate("ops", MakeEvent("hazmat", 5))->verdict,
            VirtFilter::Verdict::kDeliver);
  EXPECT_EQ(filter_.Evaluate("ops", MakeEvent("weather", 5))->verdict,
            VirtFilter::Verdict::kNotRelevant);
}

TEST_F(VirtTest, ValueGateUsesSeverityByDefault) {
  VirtFilter::ConsumerOptions options;
  options.min_value_score = 0.6;
  ASSERT_OK(filter_.RegisterConsumer("exec", options));
  EXPECT_EQ(filter_.Evaluate("exec", MakeEvent("x", 8))->verdict,
            VirtFilter::Verdict::kDeliver);  // 0.8 >= 0.6.
  auto low = *filter_.Evaluate("exec", MakeEvent("x", 3));
  EXPECT_EQ(low.verdict, VirtFilter::Verdict::kBelowValue);
  EXPECT_DOUBLE_EQ(low.value_score, 0.3);
}

TEST_F(VirtTest, ExplicitValueScoreAttribute) {
  VirtFilter::ConsumerOptions options;
  options.min_value_score = 0.5;
  ASSERT_OK(filter_.RegisterConsumer("c", options));
  Event event = MakeEvent("x", 1);
  event.Set("value_score", Value::Double(0.95));
  EXPECT_EQ(filter_.Evaluate("c", event)->verdict,
            VirtFilter::Verdict::kDeliver);
}

TEST_F(VirtTest, DedupWindowSuppressesRepeats) {
  VirtFilter::ConsumerOptions options;
  options.dedup_window_micros = 60 * kMicrosPerSecond;
  ASSERT_OK(filter_.RegisterConsumer("c", options));
  const Event event = MakeEvent("leak", 5, "sensor-3");
  EXPECT_EQ(filter_.Evaluate("c", event)->verdict,
            VirtFilter::Verdict::kDeliver);
  EXPECT_EQ(filter_.Evaluate("c", event)->verdict,
            VirtFilter::Verdict::kDuplicate);
  clock_.AdvanceMicros(61 * kMicrosPerSecond);
  EXPECT_EQ(filter_.Evaluate("c", event)->verdict,
            VirtFilter::Verdict::kDeliver);
}

TEST_F(VirtTest, DedupKeyAttributeOverridesDefaultIdentity) {
  VirtFilter::ConsumerOptions options;
  options.dedup_window_micros = kMicrosPerMinute;
  ASSERT_OK(filter_.RegisterConsumer("c", options));
  Event a = MakeEvent("alert", 5, "s1");
  a.Set("dedup_key", Value::String("incident-42"));
  Event b = MakeEvent("alert", 5, "s2");  // Different source...
  b.Set("dedup_key", Value::String("incident-42"));  // ...same incident.
  EXPECT_EQ(filter_.Evaluate("c", a)->verdict,
            VirtFilter::Verdict::kDeliver);
  EXPECT_EQ(filter_.Evaluate("c", b)->verdict,
            VirtFilter::Verdict::kDuplicate);
}

TEST_F(VirtTest, RateLimitTokenBucket) {
  VirtFilter::ConsumerOptions options;
  options.rate_limit_per_second = 1.0;
  options.rate_burst = 2.0;
  ASSERT_OK(filter_.RegisterConsumer("c", options));
  // Burst of 2 allowed, third limited.
  EXPECT_EQ(filter_.Evaluate("c", MakeEvent("a", 5, "s1"))->verdict,
            VirtFilter::Verdict::kDeliver);
  EXPECT_EQ(filter_.Evaluate("c", MakeEvent("b", 5, "s2"))->verdict,
            VirtFilter::Verdict::kDeliver);
  EXPECT_EQ(filter_.Evaluate("c", MakeEvent("c", 5, "s3"))->verdict,
            VirtFilter::Verdict::kRateLimited);
  // Refills at 1/sec.
  clock_.AdvanceMicros(kMicrosPerSecond);
  EXPECT_EQ(filter_.Evaluate("c", MakeEvent("d", 5, "s4"))->verdict,
            VirtFilter::Verdict::kDeliver);
}

TEST_F(VirtTest, RateLimitedEventDoesNotPoisonDedup) {
  VirtFilter::ConsumerOptions options;
  options.dedup_window_micros = kMicrosPerMinute;
  options.rate_limit_per_second = 1.0;
  options.rate_burst = 1.0;
  ASSERT_OK(filter_.RegisterConsumer("c", options));
  EXPECT_EQ(filter_.Evaluate("c", MakeEvent("a", 5, "s1"))->verdict,
            VirtFilter::Verdict::kDeliver);
  const Event other = MakeEvent("b", 5, "s2");
  EXPECT_EQ(filter_.Evaluate("c", other)->verdict,
            VirtFilter::Verdict::kRateLimited);
  clock_.AdvanceMicros(2 * kMicrosPerSecond);
  // The rate-limited one was never delivered, so it is not a duplicate.
  EXPECT_EQ(filter_.Evaluate("c", other)->verdict,
            VirtFilter::Verdict::kDeliver);
}

TEST_F(VirtTest, StatsAccumulate) {
  VirtFilter::ConsumerOptions options;
  options.min_value_score = 0.5;
  options.dedup_window_micros = kMicrosPerMinute;
  ASSERT_OK(filter_.RegisterConsumer("c", options));
  EDADB_IGNORE_STATUS(filter_.Evaluate("c", MakeEvent("a", 8, "s1")),
                      "deliver; outcomes asserted via GetStats below");
  EDADB_IGNORE_STATUS(filter_.Evaluate("c", MakeEvent("a", 8, "s1")),
                      "duplicate; outcomes asserted via GetStats below");
  EDADB_IGNORE_STATUS(filter_.Evaluate("c", MakeEvent("b", 1, "s2")),
                      "below value; outcomes asserted via GetStats below");
  const auto stats = *filter_.GetStats("c");
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.duplicate, 1u);
  EXPECT_EQ(stats.below_value, 1u);
  EXPECT_EQ(stats.suppressed(), 2u);
}

TEST_F(VirtTest, ConsumerAdmin) {
  ASSERT_OK(filter_.RegisterConsumer("a", {}));
  EXPECT_TRUE(filter_.RegisterConsumer("a", {}).IsAlreadyExists());
  EXPECT_TRUE(filter_.Evaluate("ghost", MakeEvent("x", 1)).status()
                  .IsNotFound());
  ASSERT_OK(filter_.UnregisterConsumer("a"));
  EXPECT_TRUE(filter_.UnregisterConsumer("a").IsNotFound());
}

// ---------------------------------------------------------------------------
// ExpectationMonitor

TEST(ExpectationMonitorTest, PerEntityModelsAndAlerts) {
  std::vector<std::string> alerts;
  // The uncertainty floor keeps EWMA warm-up from flagging ordinary
  // noise as anomalous while the variance estimate is still tiny.
  DeviationDetector::Options detector_options;
  detector_options.threshold_sigmas = 4.0;
  detector_options.min_uncertainty = 5.0;
  ExpectationMonitor monitor(
      [] { return std::make_unique<EwmaForecaster>(0.3); },
      detector_options,
      [&](const std::string& entity, TimestampMicros, double,
          const DetectionResult&) { alerts.push_back(entity); });
  Random rng(3);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(monitor.Process("meter-1", i, rng.Normal(50, 1)).ok());
    ASSERT_TRUE(monitor.Process("meter-2", i, rng.Normal(900, 5)).ok());
  }
  EXPECT_EQ(monitor.num_entities(), 2u);
  EXPECT_TRUE(alerts.empty());
  // meter-1 spikes to meter-2's normal level: only meter-1 alerts,
  // proving models are per-entity.
  ASSERT_TRUE(monitor.Process("meter-1", 200, 900.0).ok());
  ASSERT_TRUE(monitor.Process("meter-2", 200, 900.0).ok());
  EXPECT_EQ(alerts, (std::vector<std::string>{"meter-1"}));
  EXPECT_EQ(monitor.alerts_raised(), 1u);
}

TEST(ExpectationMonitorTest, ResetRelearns) {
  ExpectationMonitor monitor(
      [] { return std::make_unique<EwmaForecaster>(0.5); },
      {.threshold_sigmas = 3.0},
      nullptr);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(monitor.Process("e", i, 10.0).ok());
  }
  ASSERT_TRUE(monitor.ResetEntity("e").ok());
  EXPECT_TRUE(monitor.ResetEntity("e").IsNotFound());
  // Fresh model: the first observation after reset is not an anomaly.
  auto result = *monitor.Process("e", 100, 99999.0);
  EXPECT_FALSE(result.is_anomaly);
}

// ---------------------------------------------------------------------------
// ResponderRegistry

class ResponderTest : public testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.dir = dir_.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    db_ = *Database::Open(std::move(options));
    queues_ = *QueueManager::Attach(db_.get());
    registry_ = std::make_unique<ResponderRegistry>(queues_.get());
  }

  Responder MakeResponder(const std::string& id,
                          std::set<std::string> roles,
                          std::set<std::string> capabilities,
                          const std::string& region) {
    Responder r;
    r.id = id;
    r.roles = std::move(roles);
    r.capabilities = std::move(capabilities);
    r.region = region;
    return r;
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<QueueManager> queues_;
  std::unique_ptr<ResponderRegistry> registry_;
};

TEST_F(ResponderTest, AuthorizedAvailableAbleFiltering) {
  ASSERT_OK(registry_->RegisterResponder(
      MakeResponder("r1", {"hazmat"}, {"chemical"}, "zone-1")));
  ASSERT_OK(registry_->RegisterResponder(
      MakeResponder("r2", {"medic"}, {"chemical"}, "zone-1")));
  ASSERT_OK(registry_->RegisterResponder(
      MakeResponder("r3", {"hazmat"}, {"fire"}, "zone-1")));
  ResponseCriteria criteria;
  criteria.required_role = "hazmat";         // Authorized...
  criteria.required_capability = "chemical"; // ...and able.
  criteria.max_responders = 10;
  auto found = registry_->FindResponders(criteria);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].id, "r1");
  // Availability gate.
  ASSERT_OK(registry_->SetAvailable("r1", false));
  EXPECT_TRUE(registry_->FindResponders(criteria).empty());
}

TEST_F(ResponderTest, RegionPreferenceOrdersResults) {
  ASSERT_OK(registry_->RegisterResponder(
      MakeResponder("far", {"hazmat"}, {}, "zone-9")));
  ASSERT_OK(registry_->RegisterResponder(
      MakeResponder("near", {"hazmat"}, {}, "zone-1")));
  ResponseCriteria criteria;
  criteria.required_role = "hazmat";
  criteria.region = "zone-1";
  criteria.max_responders = 1;
  auto found = registry_->FindResponders(criteria);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].id, "near");
}

TEST_F(ResponderTest, DispatchDeliversToQueues) {
  ASSERT_OK(registry_->RegisterResponder(
      MakeResponder("r1", {"hazmat"}, {}, "zone-1")));
  Event event = MakeEvent("spill", 9);
  event.payload = "valve 3 leaking";
  ResponseCriteria criteria;
  criteria.required_role = "hazmat";
  auto notified = *registry_->Dispatch(event, criteria);
  EXPECT_EQ(notified, (std::vector<std::string>{"r1"}));
  DequeueRequest dq;
  auto msg = *queues_->Dequeue("__responder_r1", dq);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "valve 3 leaking");
  bool has_type = false;
  for (const auto& [name, value] : msg->attributes) {
    if (name == "event_type") {
      has_type = true;
      EXPECT_EQ(value.string_value(), "spill");
    }
  }
  EXPECT_TRUE(has_type);
}

TEST_F(ResponderTest, DispatchFailsWhenNobodyQualifies) {
  ResponseCriteria criteria;
  criteria.required_role = "hazmat";
  EXPECT_TRUE(
      registry_->Dispatch(MakeEvent("x", 1), criteria).status().IsNotFound());
}

TEST_F(ResponderTest, AdminLifecycle) {
  ASSERT_OK(registry_->RegisterResponder(MakeResponder("r", {}, {}, "")));
  EXPECT_TRUE(registry_->RegisterResponder(MakeResponder("r", {}, {}, ""))
                  .IsAlreadyExists());
  EXPECT_EQ(registry_->num_responders(), 1u);
  ASSERT_OK(registry_->UnregisterResponder("r"));
  EXPECT_TRUE(registry_->UnregisterResponder("r").IsNotFound());
  EXPECT_TRUE(registry_->SetAvailable("r", true).IsNotFound());
  Responder nameless;
  EXPECT_TRUE(registry_->RegisterResponder(nameless).IsInvalidArgument());
}

}  // namespace
}  // namespace edadb
