#ifndef EDADB_MQ_SHARD_ROUTER_H_
#define EDADB_MQ_SHARD_ROUTER_H_

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/result.h"
#include "db/database.h"
#include "mq/dispatcher.h"
#include "mq/queue_manager.h"
#include "mq/queue_service.h"

namespace edadb {

/// Hash-routes queue names over N delivery shards, each a full
/// QueueManager over its own Database — own WAL segment stream
/// (`<data_dir>/wal/shard-<i>`), own commit pipeline and group-commit
/// rendezvous, own lock and wait/wake domain. Shard 0 is the caller's
/// primary database (the one holding rules, audit and system tables);
/// shards 1..N-1 live under `<data_dir>/shard-<i>`. With N == 1 the
/// router is a transparent pass-through over the primary — bytes on
/// disk and returned ids are identical to an unsharded QueueManager.
///
/// Placement: a queue lives on CRC32c(name) % N, except that a queue
/// configured with a dead-letter queue is co-located with it (so
/// dead-lettering, which runs inside one shard's lock domain, never
/// crosses shards). Existing queues keep their shard across restarts
/// regardless of N: reattach reads placement from each shard's own
/// catalog, so changing --shards only affects queues created later.
///
/// Id scheme (N > 1): MessageIds returned by the router carry the
/// owning shard in the top 16 bits — id = (shard+1) << 48 | row_id —
/// so an id alone names its commit pipeline. Settle and Peek accept
/// tagged ids (verified against the queue's shard) and raw row ids
/// (trusted to the queue's shard: per-shard dispatcher handlers see
/// raw ids).
///
/// Recovery: each shard's Database::Open replays its own WAL stream
/// independently — there is no cross-shard ordering to restore, because
/// the only cross-shard flow (propagation handoff) is at-least-once
/// with an idempotence ledger on the receiving shard (EnqueueDedup).
class ShardRouter : public QueueService {
 public:
  /// `primary` must outlive the router and becomes shard 0; `shards`
  /// further databases are opened (or recovered) under its directory.
  EDADB_NODISCARD static Result<std::unique_ptr<ShardRouter>> Open(
      Database* primary, size_t shards);

  ~ShardRouter() override;

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  EDADB_NODISCARD Status CreateQueue(const std::string& name,
                                     QueueCreateOptions options = {}) override;
  EDADB_NODISCARD Status DropQueue(const std::string& name) override;
  bool HasQueue(const std::string& name) const override;
  std::vector<std::string> ListQueues() const override;

  EDADB_NODISCARD Status AddConsumerGroup(const std::string& queue,
                                          const std::string& group) override;
  EDADB_NODISCARD Status RemoveConsumerGroup(const std::string& queue,
                                             const std::string& group) override;
  EDADB_NODISCARD Result<std::vector<std::string>> ListConsumerGroups(
      const std::string& queue) const override;

  EDADB_NODISCARD Result<std::vector<std::optional<MessageId>>>
  EnqueueDedupBatch(const std::string& queue,
                    const std::vector<EnqueueRequest>& requests,
                    const std::vector<std::string>& dedup_keys) override;
  /// Splits the targets by owning shard and makes one
  /// QueueManager::EnqueueFanout call per shard: one transaction per
  /// shard touched. Targets that all live on one shard (every
  /// EnqueueBatch) pass straight through, uncopied. Returned ids carry
  /// the shard tag.
  EDADB_NODISCARD std::vector<Status> EnqueueFanout(
      std::span<const EnqueueRequest> requests,
      std::span<const FanoutTarget> targets,
      std::span<std::vector<MessageId>> ids = {}) override;

  EDADB_NODISCARD Result<std::vector<Message>> DequeueBatch(
      const std::string& queue, const DequeueRequest& request,
      size_t max_messages) override;
  EDADB_NODISCARD Result<std::optional<Message>> DequeueWait(
      const std::string& queue, const DequeueRequest& request,
      TimestampMicros timeout_micros) override;

  /// Untags the three id lists and settles them on the queue's shard.
  EDADB_NODISCARD Status Settle(const std::string& queue,
                                const std::string& group,
                                const Settlement& settlement) override;

  EDADB_NODISCARD Result<size_t> Depth(const std::string& queue,
                                       const std::string& group) const override;
  EDADB_NODISCARD Result<size_t> PurgeExpired(const std::string& queue) override;
  EDADB_NODISCARD Result<Message> Peek(const std::string& queue,
                                       MessageId id) const override;
  EDADB_NODISCARD Status Browse(
      const std::string& queue, const std::string& group,
      const std::function<bool(const Message&)>& fn) const override;

  void Shutdown() override;

  size_t ShardOf(const std::string& queue) const override;
  size_t num_shards() const override { return shards_.size(); }

  /// The shard a new queue named `name` would hash to (placement
  /// before dead-letter co-location).
  size_t HashShard(const std::string& name) const;

  /// Per-shard internals, for dispatchers, benches and tests.
  QueueManager* shard_manager(size_t shard) const;
  Database* shard_db(size_t shard) const;
  /// Shard 0's database (compatibility accessor: with N == 1 the
  /// router IS the primary's queue manager).
  Database* db() const { return primary_; }

  /// Bit position of the shard tag in a routed MessageId.
  static constexpr int kShardTagShift = 48;

  /// Applies/strips the shard tag. Identity when N == 1. UntagId
  /// rejects an id tagged for a different shard than `shard` and
  /// passes raw (untagged) ids through unchanged.
  MessageId TagId(size_t shard, MessageId raw) const;
  EDADB_NODISCARD Result<MessageId> UntagId(size_t shard, MessageId id) const;
  EDADB_NODISCARD Result<std::vector<MessageId>> UntagIds(
      size_t shard, std::span<const MessageId> ids) const;

 private:
  explicit ShardRouter(Database* primary);

  /// One delivery shard: database (WAL + commit pipeline) + queue
  /// manager (lock + wait/wake domain). Shard 0 borrows the primary.
  struct Shard {
    std::unique_ptr<Database> owned_db;  // null for shard 0
    Database* db = nullptr;
    std::unique_ptr<QueueManager> queues;
  };

  /// Placement decision for `name` under `mu_`.
  size_t ShardOfLocked(const std::string& name) const EDADB_REQUIRES(mu_);

  Database* const primary_;
  std::vector<Shard> shards_;

  /// Guards only the placement map; NEVER held across a delegated call
  /// into a shard (shard lock domains stay independent).
  mutable Mutex mu_{"ShardRouter::mu_"};
  std::map<std::string, size_t> queue_shard_ EDADB_GUARDED_BY(mu_);
};

/// Per-shard dispatcher pools behind one Bind/PumpOnce/Start surface:
/// each shard gets its own QueueDispatcher bound to that shard's
/// QueueManager, so worker wakeups are shard-local by construction — a
/// message arriving on shard 2 signals only shard 2's manager, and
/// shard 0's idle workers stay parked.
class ShardedDispatcher {
 public:
  /// `router` must outlive the dispatcher.
  explicit ShardedDispatcher(ShardRouter* router);

  ~ShardedDispatcher();

  ShardedDispatcher(const ShardedDispatcher&) = delete;
  ShardedDispatcher& operator=(const ShardedDispatcher&) = delete;

  /// Binds a handler on the shard owning binding.queue. Handlers see
  /// raw (shard-local) message ids; acking through the binding is
  /// handled by the owning shard's dispatcher.
  EDADB_NODISCARD Status Bind(QueueDispatcher::Binding binding);
  EDADB_NODISCARD Status Unbind(const std::string& queue,
                                const std::string& group);

  /// Drains every shard's bindings once; returns total handled.
  EDADB_NODISCARD Result<size_t> PumpOnce();

  /// Starts `workers_per_shard` activation threads per shard.
  EDADB_NODISCARD Status Start(
      TimestampMicros idle_wait_micros = 50 * kMicrosPerMilli,
      size_t workers_per_shard = 1);

  /// Stops and joins all shards' workers (idempotent).
  void Stop();

  EDADB_NODISCARD Result<QueueDispatcher::BindingStats> GetStats(
      const std::string& queue, const std::string& group) const;

  QueueDispatcher* shard(size_t shard) const;
  size_t num_shards() const { return dispatchers_.size(); }

 private:
  ShardRouter* const router_;
  std::vector<std::unique_ptr<QueueDispatcher>> dispatchers_;
};

}  // namespace edadb

#endif  // EDADB_MQ_SHARD_ROUTER_H_
