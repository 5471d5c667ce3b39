#ifndef EDADB_MQ_PROPAGATION_H_
#define EDADB_MQ_PROPAGATION_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/random.h"
#include "common/result.h"
#include "expr/predicate.h"
#include "mq/message.h"
#include "mq/queue_service.h"

namespace edadb {

/// A downstream delivery target outside the database (§2.2.d.ii.2
/// "forwarding messages to external services").
class ExternalService {
 public:
  virtual ~ExternalService() = default;

  virtual const std::string& name() const = 0;

  /// Delivers one message; non-OK means the propagator will retry
  /// (Nack) per queue policy.
  EDADB_NODISCARD virtual Status Deliver(const Message& message) = 0;
};

/// Test/bench stand-in for a real endpoint: injects latency and
/// failures, and records what it received. The paper's external
/// consumers (alerting gateways, first-responder devices) are simulated
/// with this. Thread-safe.
class SimulatedExternalService : public ExternalService {
 public:
  struct Options {
    /// Probability in [0,1] that a delivery fails (transient).
    double failure_probability = 0.0;
    /// Simulated processing latency added per delivery (advances the
    /// injected clock if one is supplied; never sleeps).
    TimestampMicros latency_micros = 0;
    /// Keep at most this many delivered messages for inspection.
    size_t keep_last = 1024;
  };

  SimulatedExternalService(std::string name, Options options, Clock* clock,
                           uint64_t seed = 42);

  const std::string& name() const override { return name_; }
  EDADB_NODISCARD Status Deliver(const Message& message) override;

  uint64_t delivered_count() const;
  uint64_t failed_count() const;
  std::vector<Message> delivered() const;

 private:
  const std::string name_;
  const Options options_;
  Clock* const clock_;
  mutable Mutex mu_{"SimulatedExternalService::mu_"};
  Random rng_ EDADB_GUARDED_BY(mu_);
  uint64_t delivered_count_ EDADB_GUARDED_BY(mu_) = 0;
  uint64_t failed_count_ EDADB_GUARDED_BY(mu_) = 0;
  std::vector<Message> recent_ EDADB_GUARDED_BY(mu_);
};

/// One forwarding route from a staging area to another staging area or
/// an external service (§2.2.d.ii "distribution of messages").
struct PropagationRule {
  std::string name;
  std::string source_queue;
  /// Consumer group the propagator consumes as (registered on demand as
  /// an explicit group when non-empty).
  std::string source_group;
  /// Messages failing the filter are consumed and dropped — propagation
  /// is where "non-critical data is filtered out".
  std::optional<Predicate> filter;
  /// Exactly one destination: a queue name, or an external service.
  std::string destination_queue;
  ExternalService* external = nullptr;
  /// Optional rewrite applied before forwarding; identity by default.
  std::function<EnqueueRequest(const Message&)> transform;
};

/// Pumps messages along its rules. Single-threaded driving model: call
/// RunOnce() from a scheduler loop; each call drains every rule's source
/// queue, stopping a rule at a short batch (the source ran dry).
///
/// Messages move in batches of up to kBatchSize, leased in memory
/// (DequeueRequest::lease writes nothing), so a hop costs one commit at
/// its source: a same-shard hop is one Settle that also stages the
/// destination messages, a cross-shard hop the destination's
/// EnqueueDedupBatch and then one Settle, an external hop one Deliver
/// per message and then one Settle. A batch that fails without applying
/// is retried message by message so a poisoned message fails alone.
/// Past the first failing message nothing is tried, and the one Settle
/// acks the delivered prefix (and every filter drop), nacks the failing
/// message, so queue redelivery policy and the dead-letter queue apply,
/// and releases the rest uncharged — what a message-at-a-time loop
/// would have left behind, in one commit. A crash while the batch is
/// leased forgets the lease: the messages are ready at restart, their
/// delivery counts not charged.
///
/// Cross-shard handoff: EnqueueDedupBatch consumes one key per (rule,
/// source message id) on the destination shard, and the source settles
/// after that commit, so a crash between the two replays the messages
/// and the consumed keys make the replay a no-op: at-least-once
/// transport, exactly-once visibility. A destination commit whose sync
/// failed is released at the source, and the replay finishes it once
/// the destination's WAL is durable.
class Propagator {
 public:
  explicit Propagator(QueueService* queues) : queues_(queues) {}

  EDADB_NODISCARD Status AddRule(PropagationRule rule);
  EDADB_NODISCARD Status RemoveRule(const std::string& name);
  std::vector<std::string> ListRules() const;

  struct RuleStats {  // lint:allow(adhoc-stats): per-rule counts, queried by rule name
    uint64_t forwarded = 0;
    uint64_t dropped = 0;   // Failed the filter.
    uint64_t failed = 0;    // Destination rejected; nacked.
  };

  /// Drains every rule once; returns total messages forwarded.
  EDADB_NODISCARD Result<size_t> RunOnce();

  EDADB_NODISCARD Result<RuleStats> GetStats(const std::string& name) const;

  /// Messages moved per leased batch.
  static constexpr size_t kBatchSize = 64;

 private:
  /// Moves one leased batch along `rule` and settles it on the source;
  /// returns true when a message failed or a handoff is not yet durable
  /// (the rule stops for this pump).
  EDADB_NODISCARD Result<bool> MoveBatch(const PropagationRule& rule,
                                         const std::vector<Message>& batch,
                                         RuleStats* delta);

  /// One external delivery, behind the "mq.propagate.deliver" fault
  /// site.
  EDADB_NODISCARD static Status DeliverExternal(const PropagationRule& rule,
                                                const Message& message);

  QueueService* const queues_;
  mutable Mutex mu_{"Propagator::mu_"};
  std::map<std::string, PropagationRule> rules_ EDADB_GUARDED_BY(mu_);
  std::map<std::string, RuleStats> stats_ EDADB_GUARDED_BY(mu_);
};

}  // namespace edadb

#endif  // EDADB_MQ_PROPAGATION_H_
