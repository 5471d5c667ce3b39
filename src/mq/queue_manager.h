#ifndef EDADB_MQ_QUEUE_MANAGER_H_
#define EDADB_MQ_QUEUE_MANAGER_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/result.h"
#include "db/database.h"
#include "expr/predicate.h"
#include "mq/message.h"
#include "mq/queue_service.h"

namespace edadb {

/// Message staging areas persisted in database tables (§2.2.b "support
/// of message storage"). Every queue is two tables — message bodies and
/// per-consumer-group delivery state — so messages inherit the
/// database's operational characteristics: WAL recoverability,
/// transactional enqueue, auditing via the journal.
///
/// Delivery semantics per consumer group: at-least-once with visibility
/// timeouts; redelivery increments delivery_count; after
/// max_deliveries the message moves to the dead-letter queue.
///
/// Thread-safe. Dequeues and settles serialize on an internal mutex;
/// enqueues stage and commit without it, then take it briefly to add
/// what their commit applied to the runtime and wake blocked
/// DequeueWait() callers. Each call is at most one transaction on the
/// happy path, whatever its batch size, and a leasing dequeue none. The
/// in-memory runtime follows the manager's own applied commits; queue
/// tables carry no triggers.
///
/// One QueueManager is one delivery shard: one database (WAL stream +
/// commit pipeline), one lock domain, one wait/wake domain. The sharded
/// deployment (mq/shard_router.h) composes N of these; `shard` is this
/// manager's ordinal there (0 for a standalone manager) and prefixes its
/// per-shard metrics (`shard.<i>.*`).
class QueueManager : public QueueService {
 public:
  /// `db` must outlive the manager. Existing queues (from a previous
  /// run of the same database directory) are reattached.
  EDADB_NODISCARD static Result<std::unique_ptr<QueueManager>> Attach(
      Database* db, size_t shard = 0);

  EDADB_NODISCARD Status CreateQueue(const std::string& name,
                     QueueCreateOptions options = {}) override;
  EDADB_NODISCARD Status DropQueue(const std::string& name) override;
  bool HasQueue(const std::string& name) const override;
  std::vector<std::string> ListQueues() const override;

  /// Consumer groups ("subscribers" in AQ terms). A queue always has the
  /// implicit "" group until the first explicit group is added; after
  /// that, enqueued messages fan out to every registered group.
  EDADB_NODISCARD Status AddConsumerGroup(const std::string& queue,
                                          const std::string& group) override;
  EDADB_NODISCARD Status RemoveConsumerGroup(const std::string& queue,
                             const std::string& group) override;
  EDADB_NODISCARD Result<std::vector<std::string>> ListConsumerGroups(
      const std::string& queue) const override;

  /// Every enqueue stages here (Enqueue and EnqueueBatch are one-target
  /// wrappers): all targets in ONE transaction behind one WAL barrier,
  /// so every message becomes visible or none does. Each staged request
  /// is encoded once however many targets receive it (contract:
  /// QueueService::EnqueueFanout).
  EDADB_NODISCARD std::vector<Status> EnqueueFanout(
      std::span<const EnqueueRequest> requests,
      std::span<const FanoutTarget> targets,
      std::span<std::vector<MessageId>> ids = {}) override;

  /// Idempotent enqueue (see QueueService::EnqueueDedupBatch): one
  /// transaction consumes every key in the __handoff ledger (unique
  /// index) and stages the messages. A consumed key aborts that commit
  /// before it reaches the WAL; the batch then falls back to one
  /// transaction per key, and a consumed key reports nullopt once this
  /// shard's WAL is durable (its commit may have failed its sync).
  EDADB_NODISCARD Result<std::vector<std::optional<MessageId>>>
  EnqueueDedupBatch(const std::string& queue,
                    const std::vector<EnqueueRequest>& requests,
                    const std::vector<std::string>& dedup_keys) override;

  /// Transactional enqueue: the message becomes visible only when `txn`
  /// commits (§2.2.b.ii.3 "transactional support"). The runtime picks
  /// it up from a Transaction::OnApplied hook, so the manager must
  /// outlive `txn`.
  EDADB_NODISCARD Result<MessageId> EnqueueInTransaction(Transaction* txn,
                                         const std::string& queue,
                                         const EnqueueRequest& request);

  /// Batch dequeue (QueueService::Dequeue is the one-message form):
  /// takes up to `max_messages` deliverable messages in dequeue order
  /// under one runtime lock, walking the ready set in place (a
  /// one-at-a-time drain costs O(log depth) per message, not
  /// O(depth)). Every taken message is locked for the visibility
  /// timeout. The locks persist in ONE transaction, together with the
  /// dead-lettering of every expired or spent message the walk met; the
  /// in-memory runtime moves only after it commits, so a failed or
  /// crashed commit leaves the messages deliverable with their delivery
  /// counts unchanged. One Settle can then ack some of a batch, nack one
  /// and release the rest. Fewer than `max_messages` (possibly zero) are
  /// returned when the queue runs dry.
  ///
  /// With `request.lease` the locks are leases, held in memory only: a
  /// walk that meets no expired or spent message writes nothing.
  ///
  /// With `request.remove` (AQ's REMOVE mode) nothing is locked: the
  /// taken messages' delivery rows, and each message row no other group
  /// holds, are deleted in that ONE transaction, and no settle follows.
  /// Once that commit applied (OK or DurabilityUnknown) the messages are
  /// returned and never delivered to the group again; on any other error
  /// they stay ready and no delivery is charged. Taken messages count as
  /// both dequeued and acked.
  EDADB_NODISCARD Result<std::vector<Message>> DequeueBatch(
      const std::string& queue, const DequeueRequest& request,
      size_t max_messages) override;

  /// Blocking dequeue; waits up to `timeout_micros` for a message.
  /// Returns Aborted once Shutdown() has been called. The timeout is
  /// measured in the clock's steady domain (a wall-clock step neither
  /// shortens nor extends it). Contract for `timeout_micros <= 0`:
  /// exactly one non-blocking dequeue attempt — never waits.
  EDADB_NODISCARD Result<std::optional<Message>> DequeueWait(
      const std::string& queue, const DequeueRequest& request,
      TimestampMicros timeout_micros) override;

  /// Monotonic count of wake-worthy activity (applied enqueues, nacks,
  /// releases, shutdown, explicit wakes). Poll-free consumers capture it
  /// before draining and pass it to WaitForActivity to close the race
  /// where a message arrives between an empty drain and the wait.
  uint64_t activity_seq() const {
    return activity_seq_.load(std::memory_order_acquire);
  }

  /// Blocks until activity_seq() != last_seen_seq, Shutdown(), or the
  /// timeout (steady domain) elapses. Returns true when woken by
  /// activity or shutdown, false on timeout. Spurious true returns are
  /// possible; callers re-drain and wait again.
  bool WaitForActivity(uint64_t last_seen_seq, TimestampMicros timeout_micros);

  /// Wakes every blocked DequeueWait/WaitForActivity caller without
  /// shutting down (they re-check their conditions). For cooperating
  /// drivers (the dispatcher) stopping their own loops.
  void WakeWaiters();

  /// Wakes every blocked DequeueWait() caller and makes subsequent
  /// waits fail fast with Aborted. Call before destroying the manager
  /// while consumer threads may still be blocked; non-blocking
  /// operations keep working (drain-then-stop shutdowns).
  void Shutdown() override;

  /// One SettleLocked transaction (contract: QueueService::Settle), so
  /// no crash can leave a fully acked message body behind, nor a
  /// forwarded message in both queues or in neither.
  EDADB_NODISCARD Status Settle(const std::string& queue,
                                const std::string& group,
                                const Settlement& settlement) override;

  /// Ready (visible, unlocked) messages for `group`.
  EDADB_NODISCARD Result<size_t> Depth(const std::string& queue,
                       const std::string& group) const override;

  /// Removes expired messages; returns how many were purged (moved to
  /// the dead-letter queue when configured), in one transaction per
  /// group.
  EDADB_NODISCARD Result<size_t> PurgeExpired(const std::string& queue) override;

  /// Reads a staged message without consuming it.
  EDADB_NODISCARD Result<Message> Peek(const std::string& queue,
                                       MessageId id) const override;

  /// Non-destructive browse (AQ's browse mode): visits every message
  /// currently deliverable to `group` in dequeue order without locking
  /// or consuming anything. Return false from `fn` to stop early. The
  /// messages are read under the manager's lock and `fn` runs after it
  /// is released, so `fn` may call the manager.
  EDADB_NODISCARD Status Browse(const std::string& queue, const std::string& group,
                const std::function<bool(const Message&)>& fn) const override;

  /// A standalone manager is its own single shard.
  size_t ShardOf(const std::string& /*queue*/) const override {
    return shard_;
  }
  size_t num_shards() const override { return 1; }
  size_t shard() const { return shard_; }

  Database* db() const { return db_; }

 private:
  QueueManager(Database* db, size_t shard);

  /// Cached metadata for a live message. `expires_at` is TTL data:
  /// wall-domain by design (micros()==0 = never expires).
  struct MsgMeta {
    int64_t priority = 0;
    WallMicros expires_at;
  };

  /// One group's live delivery of a message, mirroring its delivery
  /// row so lock/unlock updates can rewrite the row without reading it.
  /// `delivery_count` includes lease charges not yet written; `leased`:
  /// its entry in `locked` is a lease, whose row holds no lock.
  struct DelivState {
    RowId deliv_row = 0;
    int64_t delivery_count = 0;
    WallMicros visible_at;
    bool leased = false;
  };

  /// In-memory dequeue index per consumer group. The database tables are
  /// authoritative (and rebuild this on Attach); the runtime makes
  /// Dequeue O(log n) instead of a table scan.
  ///
  /// Clock domains: the `locked` and `delayed` deadlines here live in
  /// the clock's STEADY domain so a wall-clock step can neither
  /// prematurely redeliver an in-flight message (step forward) nor
  /// stall redelivery (step back). The SteadyMicros strong type makes
  /// that a compile-time fact. The persisted delivery rows keep WALL
  /// timestamps — steady epochs do not survive a process — and are
  /// converted on load (RebuildRuntimeLocked).
  struct GroupRuntime {
    /// Deliverable now, ordered by (-priority, message id).
    std::set<std::pair<int64_t, MessageId>> ready;
    /// Dequeued and invisible until the mapped steady-domain deadline.
    std::map<MessageId, SteadyMicros> locked;
    /// Delayed delivery: steady-domain visibility time -> message id.
    std::multimap<SteadyMicros, MessageId> delayed;
    /// All live deliveries for this group.
    std::map<MessageId, DelivState> deliveries;
  };

  /// A queue's message and delivery tables, resolved once at
  /// create/attach.
  struct QueueTables {
    std::string msg_table;
    std::string dlv_table;
    SchemaPtr msg_schema;
    SchemaPtr dlv_schema;
  };

  struct QueueState {
    QueueCreateOptions options;
    std::set<std::string> explicit_groups;
    std::map<std::string, GroupRuntime> runtime;  // Keyed by group.
    std::map<MessageId, MsgMeta> messages;
    QueueTables tables;
  };

  /// What staging messages on a queue needs, copied out under mu_ so the
  /// staging transaction itself runs without it.
  struct StagingTarget {
    std::string queue;
    QueueTables tables;
    std::vector<std::string> groups;
  };

  /// What StageMessage put in a transaction: the runtime entries its
  /// rows become once the commit applied. `deliv_rows[g]` is the
  /// delivery row of the target's groups[g].
  struct StagedMessage {
    MessageId id = 0;
    int64_t priority = 0;
    WallMicros expires_at;
    WallMicros visible_at;
    std::vector<RowId> deliv_rows;
  };

  /// What SettleLocked does with one of a group's deliveries. A
  /// dead-letter finishes it and copies the message into the DLQ, with
  /// `reason` as the copy's dlq_reason. A lease is a lock that writes
  /// nothing.
  struct Outcome {
    enum Kind : uint8_t { kLock, kFinish, kDeadLetter, kNack, kRelease,
                          kLease };
    MessageId id = 0;
    Kind kind = kFinish;
    const char* reason = "max_deliveries";
  };

  /// One queue of a staging transaction, the index of its fan-out
  /// target, the indexes of the requests it receives, in order, and
  /// where their ids go (null: nowhere).
  struct Destination {
    StagingTarget target;
    size_t target_index = 0;
    const std::vector<size_t>* requests = nullptr;
    std::vector<MessageId>* ids = nullptr;
  };

  static std::string MsgTableName(const std::string& queue);
  static std::string DelivTableName(const std::string& queue);

  EDADB_NODISCARD Result<QueueTables> ResolveTables(
      const std::string& name) const;

  EDADB_NODISCARD Status EnsureMetaTables();
  EDADB_NODISCARD Status ReloadFromMeta();

  /// Creates the per-queue message and delivery tables.
  EDADB_NODISCARD Status CreateQueueStorage(const std::string& name);

  EDADB_NODISCARD Result<StagingTarget> ResolveStaging(
      const std::string& queue);
  EDADB_NODISCARD Result<StagingTarget> ResolveStagingLocked(
      const std::string& queue) const EDADB_REQUIRES(mu_);

  /// Inserts one message row plus a delivery row per group into `txn`.
  /// `attrs` is the request's attributes, already encoded.
  EDADB_NODISCARD static Result<StagedMessage> StageMessage(
      Transaction* txn, const StagingTarget& target,
      const EnqueueRequest& request, const std::string& attrs,
      WallMicros now);

  /// Adds messages whose staging commit applied to `target`'s runtime
  /// and bumps the activity sequence; callers then signal enqueue_cv_.
  /// Skips a queue dropped (or dropped and re-created) since `target`
  /// was resolved.
  void AddStagedLocked(const StagingTarget& target,
                       std::span<const StagedMessage> staged)
      EDADB_REQUIRES(mu_);

  /// The staging loop behind EnqueueFanout: stages every destination's
  /// requests in ONE transaction and commits it. `attrs[i]` is
  /// requests[i]'s encoded attributes. Each destination's `ids`, when
  /// not null, is set to its staged ids in request order. Once the
  /// commit applied, the staged messages join the runtime. Returns the
  /// commit's status.
  EDADB_NODISCARD Status StageAndCommit(const EnqueueRequest* requests,
                                        const std::string* attrs,
                                        const Destination* dests,
                                        size_t num_dests);

  /// EnqueueDedupBatch over `count` (request, key) pairs; its per-key
  /// fallback calls back in with count 1.
  EDADB_NODISCARD Result<std::vector<std::optional<MessageId>>> DedupSpan(
      const std::string& queue, const EnqueueRequest* requests,
      const std::string* keys, size_t count);

  /// Effective groups for fanout (the implicit "" group when none
  /// registered).
  static std::vector<std::string> EffectiveGroups(const QueueState& state);
  static bool IsEffectiveGroup(const QueueState& state,
                               const std::string& group);

  EDADB_NODISCARD Result<Message> LoadMessage(const std::string& queue,
                                              const QueueTables& tables,
                                              MessageId id) const;

  /// The message's priority (0 when its metadata is gone).
  static int64_t PriorityOf(const QueueState& state, MessageId id);

  /// Rebuilds one queue's runtime from its tables (Attach path).
  EDADB_NODISCARD Status RebuildRuntimeLocked(const std::string& name, QueueState* state)
      EDADB_REQUIRES(mu_);

  /// Moves due delayed messages and expired locks back to ready.
  void Promote(QueueState* state, GroupRuntime* rt,
               SteadyMicros steady_now) EDADB_REQUIRES(mu_);

  /// Bumps activity_seq_ (all mutations happen under mu_ so waiters
  /// cannot miss a wake between their check and their wait).
  void BumpActivityLocked() EDADB_REQUIRES(mu_) {
    activity_seq_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// The one writer of delivery rows and runtime entries: stages every
  /// outcome (distinct ids of `group`) in ONE transaction, all or
  /// nothing, and returns the commit's status. A nack that has spent
  /// max_deliveries dead-letters; a release whose lock lapsed is
  /// skipped; a lease, and a release of one, write no row, and a call
  /// that writes none begins no transaction. `settlement` supplies the
  /// nack delay and the forward, staged in that transaction; its id
  /// lists arrive as `outcomes`. Once the commit applied, each id leaves
  /// whichever of ready, locked and delayed holds it and goes where its
  /// outcome puts it; locks and leases move only on OK, since a dequeue
  /// that failed hands its caller nothing.
  EDADB_NODISCARD Status SettleLocked(const std::string& queue,
                                      QueueState* state,
                                      const std::string& group,
                                      std::span<const Outcome> outcomes,
                                      const Settlement& settlement = {})
      EDADB_REQUIRES(mu_);

  /// What one SettleLocked call stages into another queue of this shard.
  struct Staging {
    StagingTarget target;
    std::vector<StagedMessage> messages;
  };

  /// SettleLocked's staging helper (dead-letter copies and forwards):
  /// stages `request` into queue `name` inside `txn`, resolved into
  /// `stagings` at its first message; NotFound when there is no queue.
  EDADB_NODISCARD Status StageLocked(Transaction* txn, const std::string& name,
                                     const EnqueueRequest& request,
                                     WallMicros now,
                                     std::vector<Staging>* stagings) const
      EDADB_REQUIRES(mu_);

  Database* const db_;
  Clock* const clock_;
  /// Ordinal in a sharded deployment; names this manager's shard.<i>.*
  /// metrics. 0 for standalone managers.
  const size_t shard_;

  /// Per-shard hot-path instruments (shard.<i>.enqueues etc.), resolved
  /// once at Attach; registry-owned, so raw pointers stay valid.
  metrics::Counter* shard_enqueues_ = nullptr;
  metrics::Counter* shard_dequeues_ = nullptr;
  metrics::Counter* shard_handoffs_ = nullptr;
  metrics::Histogram* shard_commit_latency_ = nullptr;

  /// Lock order: QueueDispatcher::mu_ before this, this before the
  /// database's internal locks. Nothing re-enters it: no commit made
  /// under it calls back into the manager.
  mutable Mutex mu_{"QueueManager::mu_"};
  CondVar enqueue_cv_;
  std::map<std::string, QueueState> queues_ EDADB_GUARDED_BY(mu_);
  bool shutdown_ EDADB_GUARDED_BY(mu_) = false;

  /// Bumped (under mu_) on every wake-worthy event; read lock-free.
  std::atomic<uint64_t> activity_seq_{0};

  /// Emits mq.queue.<name>.depth/.inflight gauges at snapshot time.
  /// Last member: destroyed first, so an in-flight collector (which
  /// takes mu_) finishes before the rest of the manager tears down.
  metrics::CallbackHandle metrics_collector_;
};

}  // namespace edadb

#endif  // EDADB_MQ_QUEUE_MANAGER_H_
