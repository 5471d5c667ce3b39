// Multithreaded stress for the Broker: concurrent publishers race
// subscribers that churn (subscribe, fetch, unsubscribe) on the same
// database. Run under EDADB_SANITIZE=thread this is the data-race gate
// for the pubsub path, including the durable-queue handoff into
// QueueManager.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "mq/queue_manager.h"
#include "pubsub/broker.h"
#include "test_util.h"

namespace edadb {
namespace {

class BrokerConcurrencyTest : public testing::Test {
 protected:
  void SetUp() override {
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

TEST_F(BrokerConcurrencyTest, ParallelPublishSubscribeUnsubscribe) {
  constexpr int kPublishers = 4;
  constexpr int kChurners = 2;
  constexpr int kPerPublisher = 60;
  constexpr int kChurnRounds = 25;

  // One stable non-durable subscription that must survive the churn and
  // see every matching publication.
  std::atomic<uint64_t> stable_seen{0};
  SubscriptionSpec stable;
  stable.subscriber = "stable";
  stable.topic_pattern = "stress/*";
  stable.handler = [&](const Publication&) { stable_seen.fetch_add(1); };
  ASSERT_OK(broker_->Subscribe(std::move(stable)).status());

  std::atomic<int> publish_failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kPublishers + kChurners);
  for (int p = 0; p < kPublishers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerPublisher; ++i) {
        auto delivered = broker_->Publish(
            Pub("stress/" + std::to_string(p), "m" + std::to_string(i),
                /*severity=*/i % 10));
        if (!delivered.ok()) publish_failures.fetch_add(1);
      }
    });
  }
  // Churners add and remove subscriptions (alternating durable and
  // handler-based, with content filters) while publishers run.
  std::atomic<int> churn_failures{0};
  for (int c = 0; c < kChurners; ++c) {
    threads.emplace_back([&, c] {
      for (int round = 0; round < kChurnRounds; ++round) {
        SubscriptionSpec spec;
        spec.subscriber = "churn-" + std::to_string(c);
        spec.topic_pattern = "stress/*";
        spec.content_filter = "severity >= 5";
        spec.durable = (round % 2 == 0);
        if (!spec.durable) {
          spec.handler = [](const Publication&) {};
        }
        auto id = broker_->Subscribe(std::move(spec));
        if (!id.ok()) {
          churn_failures.fetch_add(1);
          continue;
        }
        if (round % 2 == 0) {
          auto fetched = broker_->Fetch(*id);
          if (!fetched.ok()) churn_failures.fetch_add(1);
        }
        if (!broker_->Unsubscribe(*id).ok()) churn_failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(publish_failures.load(), 0);
  EXPECT_EQ(churn_failures.load(), 0);
  EXPECT_EQ(stable_seen.load(),
            static_cast<uint64_t>(kPublishers * kPerPublisher));
  // All churned subscriptions are gone; only the stable one remains.
  EXPECT_EQ(broker_->num_subscriptions(), 1u);
}

// Subscribe reads the retained publications through Database::Execute,
// under the database's lock, so it races no retained Publish (the TSan
// suites run this).
TEST_F(BrokerConcurrencyTest, SubscribeWhileRetainedPublishesReplaceTheValue) {
  constexpr int kTopics = 16;
  constexpr int kSubscribes = 200;
  std::atomic<bool> done{false};
  std::thread publisher([&] {
    for (int i = 0; i < kTopics || !done.load(); ++i) {
      Publication pub = Pub("retained/" + std::to_string(i % kTopics),
                            "v" + std::to_string(i));
      pub.retain = true;
      EXPECT_OK(broker_->Publish(pub).status());
    }
  });
  for (int i = 0; i < kSubscribes; ++i) {
    SubscriptionSpec spec;
    spec.subscriber = "late-" + std::to_string(i);
    spec.topic_pattern = "retained/*";
    spec.handler = [](const Publication&) {};
    EXPECT_OK(broker_->Subscribe(std::move(spec)).status());
  }
  done.store(true);
  publisher.join();

  // Each topic keeps one retained value, and a newcomer is served each.
  int served = 0;
  SubscriptionSpec last;
  last.subscriber = "last";
  last.topic_pattern = "retained/*";
  last.handler = [&](const Publication&) { ++served; };
  ASSERT_OK(broker_->Subscribe(std::move(last)).status());
  EXPECT_EQ(served, kTopics);
}

// Two publishers replacing one topic's retained value never collide on
// its row: every Publish succeeds, and a newcomer is served exactly one
// value, the last one some publisher sent.
TEST_F(BrokerConcurrencyTest, ConcurrentRetainedPublishesAllSucceed) {
  constexpr int kPublishers = 2;
  constexpr int kPerPublisher = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> publishers;
  for (int p = 0; p < kPublishers; ++p) {
    publishers.emplace_back([&, p] {
      for (int i = 0; i < kPerPublisher; ++i) {
        Publication pub = Pub("retained/one", std::to_string(p) + "-" +
                                                  std::to_string(i));
        pub.retain = true;
        if (!broker_->Publish(pub).ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& publisher : publishers) publisher.join();
  EXPECT_EQ(failures.load(), 0);

  std::vector<std::string> served;
  SubscriptionSpec spec;
  spec.subscriber = "late";
  spec.topic_pattern = "retained/one";
  spec.handler = [&](const Publication& pub) { served.push_back(pub.payload); };
  ASSERT_OK(broker_->Subscribe(std::move(spec)).status());
  ASSERT_EQ(served.size(), 1u);
  const std::string last = "-" + std::to_string(kPerPublisher - 1);
  EXPECT_TRUE(served[0] == "0" + last || served[0] == "1" + last)
      << served[0];
}

TEST_F(BrokerConcurrencyTest, DurableSubscribersFetchWhilePublishersRace) {
  constexpr int kPublishers = 4;
  constexpr int kPerPublisher = 40;
  constexpr int kDurables = 2;

  std::vector<std::string> sub_ids;
  for (int d = 0; d < kDurables; ++d) {
    SubscriptionSpec spec;
    spec.subscriber = "drain-" + std::to_string(d);
    spec.topic_pattern = "feed";
    spec.durable = true;
    sub_ids.push_back(*broker_->Subscribe(std::move(spec)));
  }

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::atomic<int>> drained(kDurables);
  std::vector<std::thread> threads;
  for (int p = 0; p < kPublishers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerPublisher; ++i) {
        auto delivered =
            broker_->Publish(Pub("feed", std::to_string(p * 1000 + i)));
        if (!delivered.ok()) failures.fetch_add(1);
      }
    });
  }
  // Each durable subscriber drains its queue concurrently with the
  // publishers, then finishes the remainder after they stop. `done` is
  // read BEFORE the Fetch: an empty Fetch ends the drain only if every
  // publish had already returned when it started, so a publish landing
  // between the Fetch and the check is still drained.
  for (int d = 0; d < kDurables; ++d) {
    threads.emplace_back([&, d] {
      while (true) {
        const bool publishers_done = done.load();
        auto fetched = broker_->Fetch(sub_ids[d]);
        if (!fetched.ok()) {
          failures.fetch_add(1);
          return;
        }
        if (fetched->has_value()) {
          drained[d].fetch_add(1);
        } else if (publishers_done) {
          return;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (int p = 0; p < kPublishers; ++p) threads[p].join();
  done.store(true);
  for (size_t t = kPublishers; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(failures.load(), 0);
  for (int d = 0; d < kDurables; ++d) {
    EXPECT_EQ(drained[d].load(), kPublishers * kPerPublisher);
    EXPECT_EQ(*broker_->PendingCount(sub_ids[d]), 0u);
  }
}

}  // namespace
}  // namespace edadb
