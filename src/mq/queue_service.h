#ifndef EDADB_MQ_QUEUE_SERVICE_H_
#define EDADB_MQ_QUEUE_SERVICE_H_

#include <functional>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/clock.h"
#include "common/result.h"
#include "expr/predicate.h"
#include "mq/message.h"

namespace edadb {

/// Per-queue policy (§2.2.b operational characteristics).
struct QueueCreateOptions {
  /// Deliveries to one group before the message is dead-lettered.
  int64_t max_deliveries = 5;
  /// How long a dequeued-but-unacked message stays invisible before it
  /// is redelivered (crash/timeout recovery for consumers).
  TimestampMicros visibility_timeout_micros = 30 * kMicrosPerSecond;
  /// Where poisoned/expired messages go; empty = drop them. A sharded
  /// service co-locates the queue with its dead-letter queue so
  /// dead-lettering never crosses a shard boundary.
  std::string dead_letter_queue;
};

struct EnqueueRequest {
  std::string payload;
  AttributeList attributes;
  int64_t priority = 0;
  TimestampMicros delay_micros = 0;  // Visible after now + delay.
  TimestampMicros ttl_micros = 0;    // 0 = never expires.
  std::string correlation_id;
};

struct DequeueRequest {
  /// Consumer group; "" is the implicit default group.
  std::string group;
  /// Optional selector over MessageView attributes, e.g.
  /// "severity >= 3 AND region = 'east'".
  std::optional<Predicate> selector;
  /// REMOVE mode (AQ's consume-on-read dequeue): the taken messages are
  /// consumed by the dequeue itself, in ONE transaction, instead of
  /// being locked for a later ack. Nothing is locked and no ack
  /// follows. A crash before that commit leaves the messages for the
  /// next dequeue; once it applied they are never delivered again.
  bool remove = false;
  /// Lease mode: the taken messages are charged and invisible for the
  /// visibility timeout as locked ones are, but in memory only: no row
  /// is written, so a crash forgets the lease and its charge. A nack
  /// writes the charged count; a release writes nothing. With `remove`
  /// as well, InvalidArgument.
  bool lease = false;
};

/// One destination of QueueService::EnqueueFanout: a queue, and the
/// indexes of the requests it receives, in staging order.
struct FanoutTarget {
  std::string queue;
  std::vector<size_t> requests;
};

/// What a consumer group did with messages it dequeued, settled by one
/// QueueService::Settle: AMQP 1.0's accepted (`acked`), modified
/// (`nacked`) and released outcomes, plus the messages it forwards to
/// a queue on the same shard. The spans must outlive the call.
struct Settlement {
  /// Consumed.
  std::span<const MessageId> acked{};
  /// Failed: visible again after the delay, the attempt still charged.
  std::span<const MessageId> nacked{};
  TimestampMicros redeliver_delay_micros = 0;
  /// Never tried: unlocked as if the dequeue never happened, the attempt
  /// taken back. Ids whose lock already lapsed are skipped.
  std::span<const MessageId> released{};
  /// Staged into `forward_to`, a queue on the settled queue's shard, in
  /// the settle's own transaction: dequeue and enqueue as one unit.
  std::string forward_to{};
  std::span<const EnqueueRequest> forwarded{};
};

/// The staging-area surface shared by the single-domain QueueManager and
/// the sharded ShardRouter. Producers and consumers (the broker, the
/// propagator, responders, application code) program against this
/// interface; whether a queue name resolves to one lock domain or one of
/// N shards — each with its own WAL stream, commit pipeline and
/// dispatcher pool — is the implementation's business.
///
/// Semantics every implementation must provide: per-consumer-group
/// at-least-once delivery with visibility timeouts; all-or-nothing batch
/// enqueue; `EnqueueDedup` as the exactly-once-visible cross-shard
/// handoff primitive. See mq/queue_manager.h for the per-call contracts.
///
/// The single-item calls are non-virtual wrappers over their batch
/// forms, so each has one implementation per service: Enqueue and
/// EnqueueBatch over EnqueueFanout, EnqueueDedup over EnqueueDedupBatch,
/// Dequeue over DequeueBatch, and Ack, AckBatch, Nack and Release over
/// Settle.
class QueueService {
 public:
  virtual ~QueueService() = default;

  EDADB_NODISCARD virtual Status CreateQueue(
      const std::string& name, QueueCreateOptions options = {}) = 0;
  EDADB_NODISCARD virtual Status DropQueue(const std::string& name) = 0;
  virtual bool HasQueue(const std::string& name) const = 0;
  virtual std::vector<std::string> ListQueues() const = 0;

  EDADB_NODISCARD virtual Status AddConsumerGroup(const std::string& queue,
                                                  const std::string& group) = 0;
  EDADB_NODISCARD virtual Status RemoveConsumerGroup(
      const std::string& queue, const std::string& group) = 0;
  EDADB_NODISCARD virtual Result<std::vector<std::string>> ListConsumerGroups(
      const std::string& queue) const = 0;

  /// The one staging path (the tutorial's "extended INSERT interface"):
  /// stages requests into many queues, the broker's durable fan-out and
  /// IngestBatch's routes alike. Every target whose queue lives on one
  /// shard is staged in ONE transaction, so a call costs one commit per
  /// shard rather than one per queue. Returns one outcome per target,
  /// in target order. A missing queue (say, dropped by a concurrent
  /// Unsubscribe) fails its target alone. When a shard's transaction
  /// fails without applying, its targets are staged one at a time, so a
  /// failing queue fails alone; one that applied (DurabilityUnknown) is
  /// never staged twice, and each of its targets reports that status.
  /// `ids` is empty or holds one vector per target: ids[t] receives
  /// target t's message ids in its request order if target t staged OK,
  /// and is empty if not.
  EDADB_NODISCARD virtual std::vector<Status> EnqueueFanout(
      std::span<const EnqueueRequest> requests,
      std::span<const FanoutTarget> targets,
      std::span<std::vector<MessageId>> ids = {}) = 0;

  /// Stages `requests` into one queue in ONE transaction, all or
  /// nothing, and returns their ids in request order: a one-target
  /// EnqueueFanout. Under WalSyncPolicy::kOnCommit the batch pays one
  /// fdatasync, not one per message.
  EDADB_NODISCARD Result<std::vector<MessageId>> EnqueueBatch(
      const std::string& queue, const std::vector<EnqueueRequest>& requests) {
    return EnqueueInto(queue, requests);
  }

  /// EnqueueBatch of one request, staged from where it lies.
  EDADB_NODISCARD Result<MessageId> Enqueue(const std::string& queue,
                                            const EnqueueRequest& request) {
    EDADB_ASSIGN_OR_RETURN(std::vector<MessageId> ids,
                           EnqueueInto(queue, {&request, 1}));
    return ids.front();
  }

  /// Idempotent batch enqueue: stages `requests[i]` and consumes
  /// `dedup_keys[i]` for every i in ONE transaction against the queue's
  /// own commit pipeline. A key can only ever be consumed once — a retry
  /// after a crash that did commit yields nullopt for that request
  /// (already delivered; nothing enqueued) instead of a second copy.
  /// When some key of the batch is already consumed, the requests are
  /// staged key by key instead, so the fresh ones still go through.
  /// This is the receiving half of the cross-shard handoff protocol: the
  /// sender may die between the destination commit and its own
  /// source-side ack, retry, and still produce exactly one visible
  /// message per key.
  EDADB_NODISCARD virtual Result<std::vector<std::optional<MessageId>>>
  EnqueueDedupBatch(const std::string& queue,
                    const std::vector<EnqueueRequest>& requests,
                    const std::vector<std::string>& dedup_keys) = 0;

  /// EnqueueDedupBatch of one request.
  EDADB_NODISCARD Result<std::optional<MessageId>> EnqueueDedup(
      const std::string& queue, const EnqueueRequest& request,
      const std::string& dedup_key) {
    EDADB_ASSIGN_OR_RETURN(
        std::vector<std::optional<MessageId>> ids,
        EnqueueDedupBatch(queue, {request}, {dedup_key}));
    return ids.front();
  }

  /// Takes up to `max_messages` deliverable messages in dequeue order
  /// and locks them until the group settles them (Settle), leases them
  /// in memory (`request.lease`), or consumes them at once
  /// (`request.remove`): see QueueManager::DequeueBatch.
  EDADB_NODISCARD virtual Result<std::vector<Message>> DequeueBatch(
      const std::string& queue, const DequeueRequest& request,
      size_t max_messages) = 0;

  /// DequeueBatch of at most one message; nullopt when none is
  /// deliverable to the group (and selector).
  EDADB_NODISCARD Result<std::optional<Message>> Dequeue(
      const std::string& queue, const DequeueRequest& request) {
    EDADB_ASSIGN_OR_RETURN(std::vector<Message> messages,
                           DequeueBatch(queue, request, 1));
    if (messages.empty()) return std::optional<Message>();
    return std::optional<Message>(std::move(messages.front()));
  }
  EDADB_NODISCARD virtual Result<std::optional<Message>> DequeueWait(
      const std::string& queue, const DequeueRequest& request,
      TimestampMicros timeout_micros) = 0;

  /// The one settle path: applies every outcome of `settlement` for
  /// `group` in ONE transaction, all or nothing. An ack deletes the
  /// delivery row, and the message row once no other group holds the
  /// message; a nack that has spent max_deliveries dead-letters the
  /// message in that transaction. An unknown queue is NotFound and an
  /// empty settlement OK. An id the group holds no delivery of fails the
  /// call NotFound before anything is written; repeats within one list
  /// collapse, and an id listed under two outcomes is InvalidArgument.
  /// `forwarded` is staged in the same transaction; an unknown
  /// `forward_to` is NotFound, one on another shard InvalidArgument.
  /// DurabilityUnknown (the WAL sync failed) still settled the ids in
  /// this process: an acked message is not redelivered.
  EDADB_NODISCARD virtual Status Settle(const std::string& queue,
                                        const std::string& group,
                                        const Settlement& settlement) = 0;

  /// One-outcome Settles. A batch consumer that stops at a failing
  /// message nacks it and releases the ones after it, never tried.
  EDADB_NODISCARD Status AckBatch(const std::string& queue,
                                  const std::string& group,
                                  const std::vector<MessageId>& ids) {
    return Settle(queue, group, {.acked = ids});
  }
  EDADB_NODISCARD Status Ack(const std::string& queue,
                             const std::string& group, MessageId id) {
    return Settle(queue, group, {.acked = {&id, 1}});
  }
  EDADB_NODISCARD Status Release(const std::string& queue,
                                 const std::string& group,
                                 const std::vector<MessageId>& ids) {
    return Settle(queue, group, {.released = ids});
  }
  EDADB_NODISCARD Status Nack(const std::string& queue,
                              const std::string& group, MessageId id,
                              TimestampMicros redeliver_delay_micros = 0) {
    return Settle(queue, group,
                  {.nacked = {&id, 1},
                   .redeliver_delay_micros = redeliver_delay_micros});
  }

  EDADB_NODISCARD virtual Result<size_t> Depth(
      const std::string& queue, const std::string& group) const = 0;
  EDADB_NODISCARD virtual Result<size_t> PurgeExpired(
      const std::string& queue) = 0;
  EDADB_NODISCARD virtual Result<Message> Peek(const std::string& queue,
                                               MessageId id) const = 0;
  /// Visits a snapshot of the messages deliverable to `group`, in
  /// dequeue order, until `fn` returns false. `fn` runs with no service
  /// lock held, so it may call the service.
  EDADB_NODISCARD virtual Status Browse(
      const std::string& queue, const std::string& group,
      const std::function<bool(const Message&)>& fn) const = 0;

  /// Wakes blocked waiters and fails subsequent waits fast with Aborted.
  virtual void Shutdown() = 0;

  /// Shard ordinal that owns `queue` (where it lives now, or where it
  /// would be placed). A single-domain service is its own one shard.
  virtual size_t ShardOf(const std::string& queue) const = 0;
  virtual size_t num_shards() const = 0;

 private:
  /// The one-target EnqueueFanout behind EnqueueBatch and Enqueue; its
  /// target and ids live on the stack.
  EDADB_NODISCARD Result<std::vector<MessageId>> EnqueueInto(
      const std::string& queue, std::span<const EnqueueRequest> requests) {
    FanoutTarget target{queue, std::vector<size_t>(requests.size())};
    std::iota(target.requests.begin(), target.requests.end(), size_t{0});
    std::vector<MessageId> ids;
    EDADB_RETURN_IF_ERROR(std::move(
        EnqueueFanout(requests, {&target, 1}, {&ids, 1}).front()));
    return ids;
  }
};

}  // namespace edadb

#endif  // EDADB_MQ_QUEUE_SERVICE_H_
