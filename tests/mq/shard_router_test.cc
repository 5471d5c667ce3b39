#include "mq/shard_router.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "mq/queue_manager.h"
#include "storage/file.h"
#include "test_util.h"
#include "testing/sleep.h"

namespace edadb {
namespace {

class ShardRouterTest : public ::testing::Test {
 protected:
  void OpenRouter(size_t shards) {
    router_.reset();
    db_.reset();
    DatabaseOptions options;
    options.dir = dir_.path();
    options.wal_sync_policy = WalSyncPolicy::kNever;
    db_ = *Database::Open(std::move(options));
    router_ = *ShardRouter::Open(db_.get(), shards);
  }

  /// A queue name that hashes to `shard` under the current router.
  std::string NameOnShard(size_t shard, const std::string& stem = "q") {
    for (int i = 0; i < 4096; ++i) {
      const std::string name = stem + std::to_string(i);
      if (router_->HashShard(name) == shard) return name;
    }
    ADD_FAILURE() << "no name hashing to shard " << shard;
    return "";
  }

  EnqueueRequest Req(const std::string& payload) {
    EnqueueRequest request;
    request.payload = payload;
    return request;
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<ShardRouter> router_;
};

TEST_F(ShardRouterTest, RoutingIsDeterministicAndSpreads) {
  OpenRouter(4);
  std::set<size_t> used;
  for (int i = 0; i < 32; ++i) {
    const std::string name = "queue" + std::to_string(i);
    const size_t before = router_->ShardOf(name);
    ASSERT_OK(router_->CreateQueue(name));
    EXPECT_EQ(router_->ShardOf(name), before) << name;
    EXPECT_EQ(router_->ShardOf(name), router_->HashShard(name)) << name;
    used.insert(router_->ShardOf(name));
  }
  // CRC32c over 32 names lands on more than one of 4 shards.
  EXPECT_GE(used.size(), 2u);
  EXPECT_EQ(router_->ListQueues().size(), 32u);
}

TEST_F(ShardRouterTest, TaggedIdsRoundTripThroughAckAndPeek) {
  OpenRouter(4);
  const std::string queue = NameOnShard(2);
  ASSERT_OK(router_->CreateQueue(queue));
  const MessageId id = *router_->Enqueue(queue, Req("hello"));
  // The id names its shard in the top bits.
  EXPECT_EQ(id >> ShardRouter::kShardTagShift, 3u);  // shard + 1
  EXPECT_EQ(*router_->Depth(queue, ""), 1u);

  // Peek accepts the tagged id and returns it tagged.
  Message peeked = *router_->Peek(queue, id);
  EXPECT_EQ(peeked.id, id);
  EXPECT_EQ(peeked.payload, "hello");
  // ...and also accepts the raw shard-local id (dispatcher handlers).
  const MessageId raw =
      id & ((MessageId{1} << ShardRouter::kShardTagShift) - 1);
  EXPECT_EQ((*router_->Peek(queue, raw)).id, id);

  // An id tagged for another shard is rejected, not misapplied.
  const MessageId foreign =
      (MessageId{1} << ShardRouter::kShardTagShift) | raw;
  EXPECT_TRUE(router_->Ack(queue, "", foreign).IsInvalidArgument());

  DequeueRequest dq;
  std::optional<Message> got = *router_->Dequeue(queue, dq);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, id);
  ASSERT_OK(router_->Ack(queue, "", got->id));
  EXPECT_EQ(*router_->Depth(queue, ""), 0u);
}

TEST_F(ShardRouterTest, SingleShardIsTransparentPassthrough) {
  OpenRouter(1);
  ASSERT_OK(router_->CreateQueue("only"));
  // Ids are the shard-local row ids, untagged: same dense sequence an
  // unsharded QueueManager hands out.
  EXPECT_EQ(*router_->Enqueue("only", Req("a")), 1u);
  EXPECT_EQ(*router_->Enqueue("only", Req("b")), 2u);
  // No secondary shard directories, no per-shard WAL tree.
  EXPECT_FALSE(FileExists(dir_.path() + "/shard-1"));
  EXPECT_FALSE(FileExists(dir_.path() + "/wal/shard-1"));
  EXPECT_EQ(router_->num_shards(), 1u);
}

TEST_F(ShardRouterTest, PlacementSurvivesReattachEvenWithChangedShardCount) {
  OpenRouter(4);
  std::vector<std::pair<std::string, size_t>> placed;
  for (size_t shard = 0; shard < 4; ++shard) {
    const std::string name = NameOnShard(shard, "s" + std::to_string(shard));
    ASSERT_OK(router_->CreateQueue(name));
    ASSERT_OK(router_->Enqueue(name, Req("pinned")).status());
    placed.emplace_back(name, shard);
  }
  router_->Shutdown();

  // Reopen asking for FEWER shards: every queue keeps its shard (the
  // on-disk shard set wins over the requested count) and its messages.
  OpenRouter(2);
  EXPECT_EQ(router_->num_shards(), 4u);
  for (const auto& [name, shard] : placed) {
    EXPECT_TRUE(router_->HasQueue(name)) << name;
    EXPECT_EQ(router_->ShardOf(name), shard) << name;
    EXPECT_EQ(*router_->Depth(name, ""), 1u) << name;
  }
  router_->Shutdown();

  // Reopen asking for MORE shards: existing placement still sticks.
  OpenRouter(8);
  EXPECT_EQ(router_->num_shards(), 8u);
  for (const auto& [name, shard] : placed) {
    EXPECT_EQ(router_->ShardOf(name), shard) << name;
  }
}

TEST_F(ShardRouterTest, EnqueueDedupConsumesKeyExactlyOnce) {
  OpenRouter(4);
  const std::string queue = NameOnShard(1);
  ASSERT_OK(router_->CreateQueue(queue));
  auto first = *router_->EnqueueDedup(queue, Req("once"), "rule\x01""42");
  ASSERT_TRUE(first.has_value());
  // Retrying the same key (the crashed-sender path) delivers nothing.
  auto second = *router_->EnqueueDedup(queue, Req("once"), "rule\x01""42");
  EXPECT_FALSE(second.has_value());
  EXPECT_EQ(*router_->Depth(queue, ""), 1u);
  // A different key is an independent delivery.
  auto third = *router_->EnqueueDedup(queue, Req("other"), "rule\x01""43");
  EXPECT_TRUE(third.has_value());
  EXPECT_EQ(*router_->Depth(queue, ""), 2u);
}

TEST_F(ShardRouterTest, QueueIsCoLocatedWithItsDeadLetterQueue) {
  OpenRouter(4);
  ASSERT_OK(router_->CreateQueue("graveyard"));
  const size_t dlq_shard = router_->ShardOf("graveyard");
  // Pick a work queue that would NOT hash to the dead-letter shard, so
  // co-location is observable.
  std::string work;
  for (int i = 0; i < 4096 && work.empty(); ++i) {
    const std::string name = "work" + std::to_string(i);
    if (router_->HashShard(name) != dlq_shard) work = name;
  }
  ASSERT_FALSE(work.empty());
  QueueCreateOptions options;
  options.max_deliveries = 1;
  options.dead_letter_queue = "graveyard";
  ASSERT_OK(router_->CreateQueue(work, options));
  EXPECT_EQ(router_->ShardOf(work), dlq_shard);

  // Dead-lettering actually lands in the co-located queue.
  ASSERT_OK(router_->Enqueue(work, Req("poison")).status());
  DequeueRequest dq;
  std::optional<Message> msg = *router_->Dequeue(work, dq);
  ASSERT_TRUE(msg.has_value());
  ASSERT_OK(router_->Nack(work, "", msg->id));
  EXPECT_EQ(*router_->Depth("graveyard", ""), 1u);
}

TEST_F(ShardRouterTest, BrowseReportsRouterTaggedIds) {
  OpenRouter(4);
  const std::string queue = NameOnShard(3);
  ASSERT_OK(router_->CreateQueue(queue));
  std::vector<MessageId> enqueued;
  for (int i = 0; i < 3; ++i) {
    enqueued.push_back(*router_->Enqueue(queue, Req("m" + std::to_string(i))));
  }
  std::vector<MessageId> browsed;
  ASSERT_OK(router_->Browse(queue, "", [&](const Message& message) {
    browsed.push_back(message.id);
    return true;
  }));
  EXPECT_EQ(browsed, enqueued);
}

TEST_F(ShardRouterTest, BatchEnqueueTagsEveryId) {
  OpenRouter(4);
  const std::string queue = NameOnShard(0);
  ASSERT_OK(router_->CreateQueue(queue));
  std::vector<EnqueueRequest> batch = {Req("a"), Req("b"), Req("c")};
  std::vector<MessageId> ids = *router_->EnqueueBatch(queue, batch);
  ASSERT_EQ(ids.size(), 3u);
  for (const MessageId id : ids) {
    EXPECT_EQ(id >> ShardRouter::kShardTagShift, 1u);  // shard 0 + 1
  }
  DequeueRequest dq;
  std::vector<Message> out = *router_->DequeueBatch(queue, dq, 8);
  ASSERT_EQ(out.size(), 3u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].id, ids[i]);
    ASSERT_OK(router_->Ack(queue, "", out[i].id));
  }
}

// A fan-out whose targets span shards hands back each target's ids in
// its request order, tagged with that target's shard; a failed target's
// ids stay empty.
TEST_F(ShardRouterTest, FanoutIdsCarryEachTargetsShard) {
  OpenRouter(4);
  const std::string near = NameOnShard(0, "near");
  const std::string far = NameOnShard(2, "far");
  ASSERT_OK(router_->CreateQueue(near));
  ASSERT_OK(router_->CreateQueue(far));
  std::vector<std::vector<MessageId>> ids(3);
  const std::vector<Status> outcomes = router_->EnqueueFanout(
      std::vector<EnqueueRequest>{Req("a"), Req("b")},
      std::vector<FanoutTarget>{{near, {0, 1}}, {far, {1}}, {"missing", {0}}},
      ids);
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_OK(outcomes[0]);
  EXPECT_OK(outcomes[1]);
  EXPECT_TRUE(outcomes[2].IsNotFound()) << outcomes[2];
  ASSERT_EQ(ids.size(), 3u);
  ASSERT_EQ(ids[0].size(), 2u);
  ASSERT_EQ(ids[1].size(), 1u);
  EXPECT_TRUE(ids[2].empty());
  for (const MessageId id : ids[0]) {
    EXPECT_EQ(id >> ShardRouter::kShardTagShift, 1u);  // shard 0 + 1
  }
  EXPECT_EQ(ids[1][0] >> ShardRouter::kShardTagShift, 3u);  // shard 2 + 1
  EXPECT_EQ(router_->Peek(near, ids[0][1])->payload, "b");
  EXPECT_EQ(router_->Peek(far, ids[1][0])->payload, "b");
}

TEST_F(ShardRouterTest, ShardsHaveIndependentWalStreams) {
  OpenRouter(4);
  // One queue per shard, a message on each: every secondary shard's
  // WAL stream exists and is non-trivial, and they are distinct trees.
  for (size_t shard = 1; shard < 4; ++shard) {
    const std::string name = NameOnShard(shard, "w" + std::to_string(shard));
    ASSERT_OK(router_->CreateQueue(name));
    ASSERT_OK(router_->Enqueue(name, Req("walled")).status());
    EXPECT_TRUE(FileExists(dir_.path() + "/wal/shard-" +
                           std::to_string(shard)))
        << shard;
    const auto segments =
        ListDir(dir_.path() + "/wal/shard-" + std::to_string(shard));
    ASSERT_OK(segments.status());
    EXPECT_FALSE(segments->empty()) << shard;
  }
}

TEST_F(ShardRouterTest, DispatcherWakeupsAreShardLocal) {
  OpenRouter(4);
  const std::string busy = NameOnShard(1, "busy");
  const std::string idle = NameOnShard(2, "idle");
  ASSERT_OK(router_->CreateQueue(busy));
  ASSERT_OK(router_->CreateQueue(idle));

  ShardedDispatcher dispatcher(router_.get());
  QueueDispatcher::Binding busy_binding;
  busy_binding.queue = busy;
  busy_binding.handler = [](const Message&) { return Status::OK(); };
  ASSERT_OK(dispatcher.Bind(std::move(busy_binding)));
  QueueDispatcher::Binding idle_binding;
  idle_binding.queue = idle;
  idle_binding.handler = [](const Message&) { return Status::OK(); };
  ASSERT_OK(dispatcher.Bind(std::move(idle_binding)));

  // Long idle fallback: workers only move on real activity signals.
  ASSERT_OK(dispatcher.Start(/*idle_wait_micros=*/30 * kMicrosPerSecond));
  // Let every worker finish its first (empty) pump and park.
  testing::SleepForMillis(50);
  std::vector<uint64_t> parked_wakeups;
  for (size_t i = 0; i < dispatcher.num_shards(); ++i) {
    parked_wakeups.push_back(dispatcher.shard(i)->wakeups());
  }

  ASSERT_OK(router_->Enqueue(busy, Req("wake shard 1 only")).status());
  // Wait for the busy shard's worker to handle the message.
  for (int i = 0; i < 1000; ++i) {
    const auto stats = dispatcher.GetStats(busy, "");
    if (stats.ok() && stats->handled >= 1) break;
    testing::SleepForMillis(5);
  }
  EXPECT_EQ((*dispatcher.GetStats(busy, "")).handled, 1u);

  // The owning shard woke; every other shard's counter stayed flat.
  const size_t owner = router_->ShardOf(busy);
  EXPECT_GT(dispatcher.shard(owner)->wakeups(), parked_wakeups[owner]);
  for (size_t i = 0; i < dispatcher.num_shards(); ++i) {
    if (i == owner) continue;
    EXPECT_EQ(dispatcher.shard(i)->wakeups(), parked_wakeups[i])
        << "shard " << i << " was woken by another shard's enqueue";
  }
  dispatcher.Stop();
}

}  // namespace
}  // namespace edadb
