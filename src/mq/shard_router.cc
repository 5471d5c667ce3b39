#include "mq/shard_router.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <functional>
#include <utility>

#include "common/crc32.h"
#include "common/logging.h"
#include "storage/file.h"

namespace edadb {

namespace {

/// The id tag is 16 bits and value 0 means "raw"; shard counts beyond
/// the tag range (or any sane machine) are configuration errors.
constexpr size_t kMaxShards = 4096;

}  // namespace

ShardRouter::ShardRouter(Database* primary) : primary_(primary) {}

ShardRouter::~ShardRouter() = default;

Result<std::unique_ptr<ShardRouter>> ShardRouter::Open(Database* primary,
                                                       size_t shards) {
  if (primary == nullptr) {
    return Status::InvalidArgument("ShardRouter needs a primary database");
  }
  if (shards == 0 || shards > kMaxShards) {
    return Status::InvalidArgument("shard count must be in [1, " +
                                   std::to_string(kMaxShards) + "], got " +
                                   std::to_string(shards));
  }
  auto router = std::unique_ptr<ShardRouter>(new ShardRouter(primary));
  const DatabaseOptions& base = primary->options();
  // Never strand data: if the directory holds more shards than were
  // requested (the deployment was reconfigured downward), open them
  // all — their queues stay reachable, only placement of NEW queues
  // uses the requested count via hashing over every open shard.
  if (auto existing = ListDir(base.dir); existing.ok()) {
    for (const std::string& name : *existing) {
      size_t index = 0;
      if (name.rfind("shard-", 0) == 0) {
        const char* digits = name.c_str() + 6;
        char* end = nullptr;
        index = std::strtoull(digits, &end, 10);
        if (end != digits && *end == '\0' && index + 1 > shards) {
          shards = index + 1;
        }
      }
    }
  }
  if (shards > kMaxShards) {
    return Status::InvalidArgument("directory holds shard ordinals beyond " +
                                   std::to_string(kMaxShards));
  }
  router->shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    Shard shard;
    if (i == 0) {
      shard.db = primary;
    } else {
      // Each secondary shard is a full database with its own WAL
      // stream under the primary's directory; recovery at Open replays
      // that stream independently of every other shard.
      DatabaseOptions options;
      options.dir = base.dir + "/shard-" + std::to_string(i);
      options.wal_dir = base.dir + "/wal/shard-" + std::to_string(i);
      options.wal_sync_policy = base.wal_sync_policy;
      options.wal_segment_size_bytes = base.wal_segment_size_bytes;
      options.clock = base.clock;
      EDADB_ASSIGN_OR_RETURN(shard.owned_db,
                             Database::Open(std::move(options)));
      shard.db = shard.owned_db.get();
    }
    EDADB_ASSIGN_OR_RETURN(shard.queues,
                           QueueManager::Attach(shard.db, /*shard=*/i));
    router->shards_.push_back(std::move(shard));
  }
  // Placement is authoritative in each shard's own catalog: reattach
  // keeps every existing queue on its shard even when the shard count
  // changed since it was created.
  MutexLock lock(&router->mu_);
  for (size_t i = 0; i < router->shards_.size(); ++i) {
    for (const std::string& name : router->shards_[i].queues->ListQueues()) {
      const auto [it, inserted] = router->queue_shard_.emplace(name, i);
      if (!inserted) {
        EDADB_LOG(Warn) << "queue '" << name << "' exists on shard "
                        << it->second << " and shard " << i
                        << "; routing to shard " << it->second;
      }
    }
  }
  return router;
}

size_t ShardRouter::HashShard(const std::string& name) const {
  return Crc32c(name) % shards_.size();
}

size_t ShardRouter::ShardOfLocked(const std::string& name) const {
  const auto it = queue_shard_.find(name);
  if (it != queue_shard_.end()) return it->second;
  return Crc32c(name) % shards_.size();
}

size_t ShardRouter::ShardOf(const std::string& queue) const {
  MutexLock lock(&mu_);
  return ShardOfLocked(queue);
}

QueueManager* ShardRouter::shard_manager(size_t shard) const {
  return shards_[shard].queues.get();
}

Database* ShardRouter::shard_db(size_t shard) const {
  return shards_[shard].db;
}

MessageId ShardRouter::TagId(size_t shard, MessageId raw) const {
  if (shards_.size() == 1) return raw;
  return (static_cast<MessageId>(shard + 1) << kShardTagShift) | raw;
}

Result<MessageId> ShardRouter::UntagId(size_t shard, MessageId id) const {
  if (shards_.size() == 1) return id;
  const uint64_t tag = id >> kShardTagShift;
  if (tag == 0) return id;  // Raw shard-local id (dispatcher handlers).
  if (tag != shard + 1) {
    return Status::InvalidArgument(
        "message id " + std::to_string(id) + " is tagged for shard " +
        std::to_string(tag - 1) + " but its queue lives on shard " +
        std::to_string(shard));
  }
  return id & ((static_cast<MessageId>(1) << kShardTagShift) - 1);
}

Result<std::vector<MessageId>> ShardRouter::UntagIds(
    size_t shard, std::span<const MessageId> ids) const {
  std::vector<MessageId> raw;
  raw.reserve(ids.size());
  for (const MessageId id : ids) {
    EDADB_ASSIGN_OR_RETURN(MessageId untagged, UntagId(shard, id));
    raw.push_back(untagged);
  }
  return raw;
}

Status ShardRouter::CreateQueue(const std::string& name,
                                QueueCreateOptions options) {
  size_t target = 0;
  {
    MutexLock lock(&mu_);
    if (queue_shard_.count(name) > 0) {
      return Status::AlreadyExists("queue '" + name + "' already exists");
    }
    // Dead-lettering runs inside the source queue's lock domain, so a
    // queue is co-located with its dead-letter queue (wherever that
    // lives now, or would hash to).
    target = options.dead_letter_queue.empty()
                 ? ShardOfLocked(name)
                 : ShardOfLocked(options.dead_letter_queue);
  }
  EDADB_RETURN_IF_ERROR(
      shards_[target].queues->CreateQueue(name, std::move(options)));
  MutexLock lock(&mu_);
  queue_shard_[name] = target;
  return Status::OK();
}

Status ShardRouter::DropQueue(const std::string& name) {
  const size_t target = ShardOf(name);
  EDADB_RETURN_IF_ERROR(shards_[target].queues->DropQueue(name));
  MutexLock lock(&mu_);
  queue_shard_.erase(name);
  return Status::OK();
}

bool ShardRouter::HasQueue(const std::string& name) const {
  MutexLock lock(&mu_);
  return queue_shard_.count(name) > 0;
}

std::vector<std::string> ShardRouter::ListQueues() const {
  MutexLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(queue_shard_.size());
  for (const auto& [name, shard] : queue_shard_) names.push_back(name);
  return names;
}

Status ShardRouter::AddConsumerGroup(const std::string& queue,
                                     const std::string& group) {
  return shards_[ShardOf(queue)].queues->AddConsumerGroup(queue, group);
}

Status ShardRouter::RemoveConsumerGroup(const std::string& queue,
                                        const std::string& group) {
  return shards_[ShardOf(queue)].queues->RemoveConsumerGroup(queue, group);
}

Result<std::vector<std::string>> ShardRouter::ListConsumerGroups(
    const std::string& queue) const {
  return shards_[ShardOf(queue)].queues->ListConsumerGroups(queue);
}

Result<std::vector<std::optional<MessageId>>> ShardRouter::EnqueueDedupBatch(
    const std::string& queue, const std::vector<EnqueueRequest>& requests,
    const std::vector<std::string>& dedup_keys) {
  const size_t shard = ShardOf(queue);
  EDADB_ASSIGN_OR_RETURN(
      std::vector<std::optional<MessageId>> ids,
      shards_[shard].queues->EnqueueDedupBatch(queue, requests, dedup_keys));
  for (std::optional<MessageId>& id : ids) {
    if (id.has_value()) *id = TagId(shard, *id);
  }
  return ids;
}

std::vector<Status> ShardRouter::EnqueueFanout(
    std::span<const EnqueueRequest> requests,
    std::span<const FanoutTarget> targets,
    std::span<std::vector<MessageId>> ids) {
  assert(ids.empty() || ids.size() == targets.size());
  std::vector<size_t> shard_of(targets.size());
  {
    MutexLock lock(&mu_);
    for (size_t t = 0; t < targets.size(); ++t) {
      shard_of[t] = ShardOfLocked(targets[t].queue);
    }
  }
  // Targets that all live on one shard (every EnqueueBatch, and every
  // call on a one-shard router) go straight to it, uncopied.
  if (std::adjacent_find(shard_of.begin(), shard_of.end(),
                         std::not_equal_to<>()) == shard_of.end()) {
    const size_t shard = shard_of.empty() ? 0 : shard_of.front();
    std::vector<Status> outcomes =
        shards_[shard].queues->EnqueueFanout(requests, targets, ids);
    for (std::vector<MessageId>& staged : ids) {
      for (MessageId& id : staged) id = TagId(shard, id);
    }
    return outcomes;
  }
  std::vector<std::vector<size_t>> by_shard(shards_.size());
  for (size_t t = 0; t < targets.size(); ++t) {
    by_shard[shard_of[t]].push_back(t);
  }
  std::vector<Status> outcomes(targets.size());
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    const std::vector<size_t>& mine = by_shard[shard];
    if (mine.empty()) continue;
    std::vector<FanoutTarget> shard_targets;
    shard_targets.reserve(mine.size());
    for (const size_t t : mine) shard_targets.push_back(targets[t]);
    std::vector<std::vector<MessageId>> shard_ids(ids.empty() ? 0
                                                              : mine.size());
    std::vector<Status> shard_outcomes = shards_[shard].queues->EnqueueFanout(
        requests, shard_targets, shard_ids);
    for (size_t k = 0; k < mine.size(); ++k) {
      outcomes[mine[k]] = std::move(shard_outcomes[k]);
      if (ids.empty()) continue;
      for (MessageId& id : shard_ids[k]) id = TagId(shard, id);
      ids[mine[k]] = std::move(shard_ids[k]);
    }
  }
  return outcomes;
}

Result<std::vector<Message>> ShardRouter::DequeueBatch(
    const std::string& queue, const DequeueRequest& request,
    size_t max_messages) {
  const size_t shard = ShardOf(queue);
  EDADB_ASSIGN_OR_RETURN(
      std::vector<Message> messages,
      shards_[shard].queues->DequeueBatch(queue, request, max_messages));
  for (Message& message : messages) message.id = TagId(shard, message.id);
  return messages;
}

Result<std::optional<Message>> ShardRouter::DequeueWait(
    const std::string& queue, const DequeueRequest& request,
    TimestampMicros timeout_micros) {
  const size_t shard = ShardOf(queue);
  EDADB_ASSIGN_OR_RETURN(
      std::optional<Message> message,
      shards_[shard].queues->DequeueWait(queue, request, timeout_micros));
  if (message.has_value()) message->id = TagId(shard, message->id);
  return message;
}

Status ShardRouter::Settle(const std::string& queue, const std::string& group,
                           const Settlement& settlement) {
  const size_t shard = ShardOf(queue);
  if (!settlement.forwarded.empty()) {
    // Staged in the settle's one transaction, a forward must stay in
    // the settled queue's commit pipeline.
    MutexLock lock(&mu_);
    const auto to = queue_shard_.find(settlement.forward_to);
    if (to == queue_shard_.end()) {
      return Status::NotFound("queue '" + settlement.forward_to + "'");
    }
    if (to->second != shard) {
      return Status::InvalidArgument("cannot forward '" + queue + "' to '" +
                                     settlement.forward_to +
                                     "' on another shard");
    }
  }
  EDADB_ASSIGN_OR_RETURN(const std::vector<MessageId> acked,
                         UntagIds(shard, settlement.acked));
  EDADB_ASSIGN_OR_RETURN(const std::vector<MessageId> nacked,
                         UntagIds(shard, settlement.nacked));
  EDADB_ASSIGN_OR_RETURN(const std::vector<MessageId> released,
                         UntagIds(shard, settlement.released));
  return shards_[shard].queues->Settle(
      queue, group,
      {acked, nacked, settlement.redeliver_delay_micros, released,
       settlement.forward_to, settlement.forwarded});
}

Result<size_t> ShardRouter::Depth(const std::string& queue,
                                  const std::string& group) const {
  return shards_[ShardOf(queue)].queues->Depth(queue, group);
}

Result<size_t> ShardRouter::PurgeExpired(const std::string& queue) {
  return shards_[ShardOf(queue)].queues->PurgeExpired(queue);
}

Result<Message> ShardRouter::Peek(const std::string& queue,
                                  MessageId id) const {
  const size_t shard = ShardOf(queue);
  EDADB_ASSIGN_OR_RETURN(MessageId raw, UntagId(shard, id));
  EDADB_ASSIGN_OR_RETURN(Message message,
                         shards_[shard].queues->Peek(queue, raw));
  message.id = TagId(shard, message.id);
  return message;
}

Status ShardRouter::Browse(
    const std::string& queue, const std::string& group,
    const std::function<bool(const Message&)>& fn) const {
  const size_t shard = ShardOf(queue);
  return shards_[shard].queues->Browse(
      queue, group, [this, shard, &fn](const Message& message) {
        Message tagged = message;
        tagged.id = TagId(shard, tagged.id);
        return fn(tagged);
      });
}

void ShardRouter::Shutdown() {
  for (const Shard& shard : shards_) shard.queues->Shutdown();
}

// ---------------------------------------------------------------------------
// ShardedDispatcher

ShardedDispatcher::ShardedDispatcher(ShardRouter* router) : router_(router) {
  dispatchers_.reserve(router->num_shards());
  for (size_t i = 0; i < router->num_shards(); ++i) {
    dispatchers_.push_back(
        std::make_unique<QueueDispatcher>(router->shard_manager(i)));
  }
}

ShardedDispatcher::~ShardedDispatcher() { Stop(); }

Status ShardedDispatcher::Bind(QueueDispatcher::Binding binding) {
  return dispatchers_[router_->ShardOf(binding.queue)]->Bind(
      std::move(binding));
}

Status ShardedDispatcher::Unbind(const std::string& queue,
                                 const std::string& group) {
  return dispatchers_[router_->ShardOf(queue)]->Unbind(queue, group);
}

Result<size_t> ShardedDispatcher::PumpOnce() {
  size_t handled = 0;
  for (const auto& dispatcher : dispatchers_) {
    EDADB_ASSIGN_OR_RETURN(size_t n, dispatcher->PumpOnce());
    handled += n;
  }
  return handled;
}

Status ShardedDispatcher::Start(TimestampMicros idle_wait_micros,
                                size_t workers_per_shard) {
  for (size_t i = 0; i < dispatchers_.size(); ++i) {
    const Status started =
        dispatchers_[i]->Start(idle_wait_micros, workers_per_shard);
    if (!started.ok()) {
      for (size_t j = 0; j < i; ++j) dispatchers_[j]->Stop();
      return started;
    }
  }
  return Status::OK();
}

void ShardedDispatcher::Stop() {
  for (const auto& dispatcher : dispatchers_) dispatcher->Stop();
}

Result<QueueDispatcher::BindingStats> ShardedDispatcher::GetStats(
    const std::string& queue, const std::string& group) const {
  return dispatchers_[router_->ShardOf(queue)]->GetStats(queue, group);
}

QueueDispatcher* ShardedDispatcher::shard(size_t shard) const {
  return dispatchers_[shard].get();
}

}  // namespace edadb
