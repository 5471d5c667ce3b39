#include "mq/queue_manager.h"
#include "pubsub/broker.h"

#include <atomic>
#include <stdexcept>
#include <thread>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "testing/crash_harness.h"
#include "testing/sleep.h"

namespace edadb {
namespace {

class BrokerTest : public ::testing::Test {
 protected:
  void SetUp() override { Reopen(); }

  void Reopen() {
    broker_.reset();
    queues_.reset();
    db_.reset();
    DatabaseOptions options;
    options.dir = dir_.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    db_ = *Database::Open(std::move(options));
    queues_ = *QueueManager::Attach(db_.get());
    broker_ = *Broker::Attach(db_.get(), queues_.get());
  }

  Publication Pub(const std::string& topic, const std::string& payload,
                  int64_t severity = 5) {
    Publication pub;
    pub.topic = topic;
    pub.payload = payload;
    pub.attributes = {{"severity", Value::Int64(severity)}};
    return pub;
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<QueueManager> queues_;
  std::unique_ptr<Broker> broker_;
};

TEST_F(BrokerTest, TopicSubscriptionDeliversToHandler) {
  std::vector<std::string> received;
  SubscriptionSpec spec;
  spec.subscriber = "app";
  spec.topic_pattern = "alerts";
  spec.handler = [&](const Publication& pub) {
    received.push_back(pub.payload);
  };
  ASSERT_OK(broker_->Subscribe(std::move(spec)).status());
  EXPECT_EQ(*broker_->Publish(Pub("alerts", "a1")), 1u);
  EXPECT_EQ(*broker_->Publish(Pub("other", "skip")), 0u);
  EXPECT_EQ(received, (std::vector<std::string>{"a1"}));
}

TEST_F(BrokerTest, GlobTopicPatterns) {
  int hits = 0;
  SubscriptionSpec spec;
  spec.subscriber = "app";
  spec.topic_pattern = "sensors/*/temp";
  spec.handler = [&](const Publication&) { ++hits; };
  ASSERT_OK(broker_->Subscribe(std::move(spec)).status());
  ASSERT_OK(broker_->Publish(Pub("sensors/3/temp", "x")).status());
  ASSERT_OK(broker_->Publish(Pub("sensors/wing-b/temp", "x")).status());
  ASSERT_OK(broker_->Publish(Pub("sensors/3/humidity", "x")).status());
  EXPECT_EQ(hits, 2);
}

TEST_F(BrokerTest, ContentFilterSelectsByAttributes) {
  int hits = 0;
  SubscriptionSpec spec;
  spec.subscriber = "oncall";
  spec.content_filter = "severity >= 7";
  spec.handler = [&](const Publication&) { ++hits; };
  ASSERT_OK(broker_->Subscribe(std::move(spec)).status());
  ASSERT_OK(broker_->Publish(Pub("any", "low", 2)).status());
  ASSERT_OK(broker_->Publish(Pub("any", "high", 9)).status());
  EXPECT_EQ(hits, 1);
}

TEST_F(BrokerTest, TopicAndContentCombined) {
  int hits = 0;
  SubscriptionSpec spec;
  spec.subscriber = "east-ops";
  spec.topic_pattern = "alarms";
  spec.content_filter = "severity >= 5";
  spec.handler = [&](const Publication&) { ++hits; };
  ASSERT_OK(broker_->Subscribe(std::move(spec)).status());
  ASSERT_OK(broker_->Publish(Pub("alarms", "yes", 6)).status());
  ASSERT_OK(broker_->Publish(Pub("alarms", "no", 2)).status());
  ASSERT_OK(broker_->Publish(Pub("news", "no", 9)).status());
  EXPECT_EQ(hits, 1);
}

// The content filter is compiled on its own and ANDed with the topic
// clause, so it cannot close that clause's parenthesis and widen the
// topic.
TEST_F(BrokerTest, ContentFilterCannotWidenItsTopic) {
  const std::string widening = "severity >= 6) OR (TRUE";
  std::vector<std::string> received;
  SubscriptionSpec spec;
  spec.subscriber = "north";
  spec.topic_pattern = "alerts.north";
  spec.content_filter = widening;
  spec.handler = [&](const Publication& pub) {
    received.push_back(pub.topic);
  };
  EXPECT_TRUE(broker_->Subscribe(std::move(spec)).status().IsInvalidArgument());
  ASSERT_OK(broker_->Publish(Pub("billing.south", "b1", 9)).status());
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(broker_->num_subscriptions(), 0u);
  EXPECT_TRUE(broker_
                  ->SubscribeLive({.subscriber = "north",
                                   .topic_pattern = "alerts.north",
                                   .content_filter = widening})
                  .status()
                  .IsInvalidArgument());
}

// Earlier versions stored such a filter for a durable subscription. It
// does not stop the broker from attaching: the subscription stays
// listed, fetchable and removable, but matches nothing new.
TEST_F(BrokerTest, StoredFilterThatNoLongerCompilesMatchesNothing) {
  SubscriptionSpec spec;
  spec.subscriber = "north";
  spec.topic_pattern = "alerts.north";
  spec.durable = true;
  const std::string id = *broker_->Subscribe(std::move(spec));
  ASSERT_OK(broker_->Publish(Pub("alerts.north", "kept", 9)).status());
  ASSERT_OK(db_->UpdateWhere(
                   "__subscriptions",
                   Predicate::ColumnsEqual({{"sub_id", Value::String(id)}}),
                   [](Record* row) {
                     return row->Set("filter",
                                     Value::String("severity >= 6) OR (TRUE"));
                   })
                .status());
  Reopen();
  EXPECT_EQ(broker_->ListSubscriptions(), (std::vector<std::string>{id}));
  EXPECT_EQ(*broker_->Publish(Pub("billing.south", "b1", 9)), 0u);
  EXPECT_EQ(*broker_->Publish(Pub("alerts.north", "a2", 9)), 0u);
  auto fetched = *broker_->Fetch(id);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->payload, "kept");
  EXPECT_FALSE(broker_->Fetch(id)->has_value());
  ASSERT_OK(broker_->Unsubscribe(id));
  Reopen();
  EXPECT_EQ(broker_->num_subscriptions(), 0u);
}

TEST_F(BrokerTest, NonDurableRequiresHandler) {
  SubscriptionSpec spec;
  spec.subscriber = "x";
  EXPECT_TRUE(broker_->Subscribe(std::move(spec)).status()
                  .IsInvalidArgument());
}

TEST_F(BrokerTest, FanoutCountsDeliveries) {
  for (int i = 0; i < 5; ++i) {
    SubscriptionSpec spec;
    spec.subscriber = "s" + std::to_string(i);
    spec.handler = [](const Publication&) {};
    ASSERT_OK(broker_->Subscribe(std::move(spec)).status());
  }
  EXPECT_EQ(broker_->num_subscriptions(), 5u);
  EXPECT_EQ(*broker_->Publish(Pub("t", "x")), 5u);
}

TEST_F(BrokerTest, DurableSubscriptionBuffersAndFetches) {
  SubscriptionSpec spec;
  spec.subscriber = "worker";
  spec.topic_pattern = "jobs";
  spec.durable = true;
  const std::string id = *broker_->Subscribe(std::move(spec));
  ASSERT_OK(broker_->Publish(Pub("jobs", "j1")).status());
  ASSERT_OK(broker_->Publish(Pub("jobs", "j2")).status());
  EXPECT_EQ(*broker_->PendingCount(id), 2u);
  auto p1 = *broker_->Fetch(id);
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->payload, "j1");
  EXPECT_EQ(p1->topic, "jobs");
  auto p2 = *broker_->Fetch(id);
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->payload, "j2");
  EXPECT_FALSE((*broker_->Fetch(id)).has_value());
}

TEST_F(BrokerTest, DurableSubscriptionSurvivesRestart) {
  std::string id;
  {
    SubscriptionSpec spec;
    spec.subscriber = "worker";
    spec.topic_pattern = "jobs";
    spec.durable = true;
    id = *broker_->Subscribe(std::move(spec));
    ASSERT_OK(broker_->Publish(Pub("jobs", "pending job")).status());
  }
  Reopen();
  EXPECT_EQ(broker_->num_subscriptions(), 1u);
  // Buffered message survived.
  auto pub = *broker_->Fetch(id);
  ASSERT_TRUE(pub.has_value());
  EXPECT_EQ(pub->payload, "pending job");
  // New publications keep flowing to the reloaded subscription.
  ASSERT_OK(broker_->Publish(Pub("jobs", "fresh job")).status());
  EXPECT_EQ((*broker_->Fetch(id))->payload, "fresh job");
}

// A subscriber's queue dropped behind the broker's back fails that
// delivery alone: the others still get the publication, Publish leaves
// the lost delivery out of its count, and pubsub.delivery_failures
// counts it.
TEST_F(BrokerTest, LostDurableDeliveryFailsAloneAndIsCounted) {
  metrics::Counter* failures =
      metrics::Registry::Default()->GetCounter("pubsub.delivery_failures");
  std::vector<std::string> ids;
  for (int i = 0; i < 3; ++i) {
    SubscriptionSpec spec;
    spec.subscriber = "worker" + std::to_string(i);
    spec.topic_pattern = "jobs";
    spec.durable = true;
    ids.push_back(*broker_->Subscribe(std::move(spec)));
  }
  ASSERT_OK(queues_->DropQueue("__sub_" + ids[1]));
  const uint64_t failures_before = failures->Value();

  auto delivered = broker_->Publish(Pub("jobs", "j1"));
  ASSERT_OK(delivered.status());
  EXPECT_EQ(*delivered, 2u);
  EXPECT_EQ(failures->Value() - failures_before, 1u);
  for (const size_t i : {0u, 2u}) {
    auto pub = broker_->Fetch(ids[i]);
    ASSERT_OK(pub.status());
    ASSERT_TRUE(pub->has_value()) << ids[i];
    EXPECT_EQ((*pub)->payload, "j1");
    EXPECT_FALSE((*broker_->Fetch(ids[i])).has_value());
  }
}

// Fetch consumes in its own dequeue: once it returned a publication,
// nothing brings it back, not even a restart.
TEST_F(BrokerTest, FetchedPublicationIsGoneAfterRestart) {
  SubscriptionSpec spec;
  spec.subscriber = "worker";
  spec.topic_pattern = "jobs";
  spec.durable = true;
  const std::string id = *broker_->Subscribe(std::move(spec));
  ASSERT_OK(broker_->PublishBatch({Pub("jobs", "j1"), Pub("jobs", "j2")})
                .status());
  EXPECT_EQ((*broker_->Fetch(id))->payload, "j1");
  EXPECT_EQ(*broker_->PendingCount(id), 1u);
  Reopen();
  EXPECT_EQ(*broker_->PendingCount(id), 1u);
  EXPECT_EQ((*broker_->Fetch(id))->payload, "j2");
  EXPECT_FALSE((*broker_->Fetch(id)).has_value());
}

TEST_F(BrokerTest, UnsubscribeStopsDeliveryAndCleansUp) {
  SubscriptionSpec spec;
  spec.subscriber = "worker";
  spec.durable = true;
  const std::string id = *broker_->Subscribe(std::move(spec));
  ASSERT_OK(broker_->Unsubscribe(id));
  EXPECT_TRUE(broker_->Unsubscribe(id).IsNotFound());
  EXPECT_EQ(*broker_->Publish(Pub("t", "x")), 0u);
  EXPECT_TRUE(broker_->Fetch(id).status().IsNotFound());
  Reopen();
  EXPECT_EQ(broker_->num_subscriptions(), 0u);
}

#ifdef EDADB_FAILPOINTS_ENABLED
// Unsubscribe deletes the subscription's row first: when that commit
// fails, the subscription stays live and listed, in this process and
// after a reopen, and keeps receiving.
TEST_F(BrokerTest, FailedUnsubscribeKeepsTheSubscription) {
  SubscriptionSpec spec;
  spec.subscriber = "worker";
  spec.topic_pattern = "jobs";
  spec.durable = true;
  const std::string id = *broker_->Subscribe(std::move(spec));
  {
    testing::FailpointGuard guard;
    testing::ArmError("db.commit.before_wal");
    EXPECT_TRUE(broker_->Unsubscribe(id).IsIOError());
  }
  EXPECT_EQ(broker_->num_subscriptions(), 1u);
  EXPECT_EQ(*broker_->Publish(Pub("jobs", "j1")), 1u);
  Reopen();
  EXPECT_EQ(broker_->num_subscriptions(), 1u);
  EXPECT_EQ((*broker_->Fetch(id))->payload, "j1");
  ASSERT_OK(broker_->Unsubscribe(id));
  Reopen();
  EXPECT_EQ(broker_->num_subscriptions(), 0u);
}
#endif  // EDADB_FAILPOINTS_ENABLED

TEST_F(BrokerTest, FetchOnNonDurableFails) {
  SubscriptionSpec spec;
  spec.subscriber = "cb";
  spec.handler = [](const Publication&) {};
  const std::string id = *broker_->Subscribe(std::move(spec));
  EXPECT_TRUE(broker_->Fetch(id).status().IsFailedPrecondition());
}

TEST_F(BrokerTest, RetainedPublicationServedToNewSubscriber) {
  Publication last_value = Pub("config/threshold", "42");
  last_value.retain = true;
  ASSERT_OK(broker_->Publish(last_value).status());

  // Subscribe-to-publish: the newcomer immediately receives the retained
  // message.
  std::vector<std::string> received;
  SubscriptionSpec spec;
  spec.subscriber = "late-joiner";
  spec.topic_pattern = "config/*";
  spec.handler = [&](const Publication& pub) {
    received.push_back(pub.payload);
  };
  ASSERT_OK(broker_->Subscribe(std::move(spec)).status());
  EXPECT_EQ(received, (std::vector<std::string>{"42"}));
}

TEST_F(BrokerTest, RetainedValueIsReplaced) {
  Publication v1 = Pub("state", "old");
  v1.retain = true;
  Publication v2 = Pub("state", "new");
  v2.retain = true;
  ASSERT_OK(broker_->Publish(v1).status());
  // Replacing the value is one commit.
  metrics::Counter* commits =
      metrics::Registry::Default()->GetCounter("db.commits");
  const uint64_t commits_before = commits->Value();
  ASSERT_OK(broker_->Publish(v2).status());
  EXPECT_EQ(commits->Value() - commits_before, 1u);
  std::vector<std::string> received;
  SubscriptionSpec spec;
  spec.subscriber = "joiner";
  spec.topic_pattern = "state";
  spec.handler = [&](const Publication& pub) {
    received.push_back(pub.payload);
  };
  ASSERT_OK(broker_->Subscribe(std::move(spec)).status());
  EXPECT_EQ(received, (std::vector<std::string>{"new"}));
}

TEST_F(BrokerTest, RetainedFilteredByContent) {
  Publication noisy = Pub("alerts", "minor", 1);
  noisy.retain = true;
  ASSERT_OK(broker_->Publish(noisy).status());
  int hits = 0;
  SubscriptionSpec spec;
  spec.subscriber = "picky";
  spec.content_filter = "severity >= 5";
  spec.handler = [&](const Publication&) { ++hits; };
  ASSERT_OK(broker_->Subscribe(std::move(spec)).status());
  EXPECT_EQ(hits, 0);
}

// Regression: a throwing handler must not abort the fan-out — every
// other subscriber still gets its deliveries, the publish succeeds, and
// the failure is surfaced via the pubsub.handler_errors counter.
TEST_F(BrokerTest, ThrowingHandlerDoesNotAbortFanout) {
  metrics::Counter* errors =
      metrics::Registry::Default()->GetCounter("pubsub.handler_errors");
  const uint64_t errors_before = errors->Value();

  SubscriptionSpec bad;
  bad.subscriber = "bad";
  bad.topic_pattern = "t";
  bad.handler = [](const Publication&) {
    throw std::runtime_error("handler bug");
  };
  ASSERT_OK(broker_->Subscribe(std::move(bad)).status());

  std::vector<std::string> good_seen;
  SubscriptionSpec good;
  good.subscriber = "good";
  good.topic_pattern = "t";
  good.handler = [&](const Publication& pub) {
    good_seen.push_back(pub.payload);
  };
  ASSERT_OK(broker_->Subscribe(std::move(good)).status());

  auto delivered =
      broker_->PublishBatch({Pub("t", "m1"), Pub("t", "m2")});
  ASSERT_OK(delivered.status());
  EXPECT_EQ(*delivered, 2u);  // The good subscriber's two deliveries.
  EXPECT_EQ(good_seen, (std::vector<std::string>{"m1", "m2"}));
  EXPECT_EQ(errors->Value() - errors_before, 2u);
}

// Regression: an Unsubscribe issued mid-fan-out (here, from inside the
// handler itself) stops all SUBSEQUENT deliveries of the already
// snapshotted batch to that subscription.
TEST_F(BrokerTest, UnsubscribeInsideFanoutStopsSubsequentDeliveries) {
  int calls = 0;
  std::string id;
  SubscriptionSpec spec;
  spec.subscriber = "self-removing";
  spec.topic_pattern = "t";
  spec.handler = [&](const Publication&) {
    ++calls;
    if (calls == 1) EXPECT_OK(broker_->Unsubscribe(id));
  };
  id = *broker_->Subscribe(std::move(spec));

  auto delivered =
      broker_->PublishBatch({Pub("t", "m1"), Pub("t", "m2"), Pub("t", "m3")});
  ASSERT_OK(delivered.status());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(*delivered, 1u);
  EXPECT_EQ(broker_->num_subscriptions(), 0u);
}

// Regression: Unsubscribe never waits on a slow handler already in
// flight — and once it returns, no NEW invocation starts. If
// Unsubscribe blocked on the handler this test would deadlock (the
// handler is only released after Unsubscribe returns).
TEST_F(BrokerTest, UnsubscribeDoesNotWaitOnSlowHandler) {
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::atomic<int> calls{0};
  std::string id;
  SubscriptionSpec spec;
  spec.subscriber = "slow";
  spec.topic_pattern = "t";
  spec.handler = [&](const Publication&) {
    calls.fetch_add(1);
    entered.store(true);
    while (!release.load()) testing::YieldBriefly();
  };
  id = *broker_->Subscribe(std::move(spec));

  std::thread publisher([&] {
    EXPECT_OK(broker_->PublishBatch({Pub("t", "m1"), Pub("t", "m2")}).status());
  });
  while (!entered.load()) testing::YieldBriefly();
  ASSERT_OK(broker_->Unsubscribe(id));
  release.store(true);
  publisher.join();
  EXPECT_EQ(calls.load(), 1);  // m2 never reached the handler.
}

TEST_F(BrokerTest, PublicationMessageRoundTrip) {
  Publication pub = Pub("t/x", "payload", 7);
  EnqueueRequest request;
  PublicationToEnqueueRequest(pub, &request);
  Message message;
  message.payload = request.payload;
  message.attributes = request.attributes;
  Publication back = MessageToPublication(message);
  EXPECT_EQ(back.topic, "t/x");
  EXPECT_EQ(back.payload, "payload");
  ASSERT_EQ(back.attributes.size(), 1u);
  EXPECT_EQ(back.attributes[0].first, "severity");
}

}  // namespace
}  // namespace edadb
