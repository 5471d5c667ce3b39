#include "mq/propagation.h"

#include "common/failpoint.h"
#include "db/database.h"

namespace edadb {

SimulatedExternalService::SimulatedExternalService(std::string name,
                                                   Options options,
                                                   Clock* clock,
                                                   uint64_t seed)
    : name_(std::move(name)),
      options_(options),
      clock_(clock != nullptr ? clock : SystemClock::Default()),
      rng_(seed) {}

Status SimulatedExternalService::Deliver(const Message& message) {
  MutexLock lock(&mu_);
  if (options_.latency_micros > 0) {
    clock_->AdvanceMicros(options_.latency_micros);
  }
  if (options_.failure_probability > 0.0 &&
      rng_.NextDouble() < options_.failure_probability) {
    ++failed_count_;
    return Status::TimedOut("simulated delivery failure to " + name_);
  }
  ++delivered_count_;
  recent_.push_back(message);
  if (recent_.size() > options_.keep_last) {
    recent_.erase(recent_.begin(),
                  recent_.begin() + (recent_.size() - options_.keep_last));
  }
  return Status::OK();
}

uint64_t SimulatedExternalService::delivered_count() const {
  MutexLock lock(&mu_);
  return delivered_count_;
}

uint64_t SimulatedExternalService::failed_count() const {
  MutexLock lock(&mu_);
  return failed_count_;
}

std::vector<Message> SimulatedExternalService::delivered() const {
  MutexLock lock(&mu_);
  return recent_;
}

Status Propagator::AddRule(PropagationRule rule) {
  if (rule.name.empty()) {
    return Status::InvalidArgument("propagation rule needs a name");
  }
  if (rule.destination_queue.empty() == (rule.external == nullptr)) {
    return Status::InvalidArgument(
        "rule '" + rule.name +
        "' needs exactly one destination (queue or external service)");
  }
  if (!queues_->HasQueue(rule.source_queue)) {
    return Status::NotFound("source queue '" + rule.source_queue + "'");
  }
  if (!rule.destination_queue.empty() &&
      !queues_->HasQueue(rule.destination_queue)) {
    return Status::NotFound("destination queue '" + rule.destination_queue +
                            "'");
  }
  if (!rule.source_group.empty()) {
    const Status s =
        queues_->AddConsumerGroup(rule.source_queue, rule.source_group);
    if (!s.ok() && !s.IsAlreadyExists()) return s;
  }
  MutexLock lock(&mu_);
  const std::string name = rule.name;
  auto [it, inserted] = rules_.emplace(name, std::move(rule));
  if (!inserted) {
    return Status::AlreadyExists("rule '" + name + "' already exists");
  }
  stats_[name];
  return Status::OK();
}

Status Propagator::RemoveRule(const std::string& name) {
  MutexLock lock(&mu_);
  if (rules_.erase(name) == 0) {
    return Status::NotFound("rule '" + name + "'");
  }
  return Status::OK();
}

std::vector<std::string> Propagator::ListRules() const {
  MutexLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(rules_.size());
  for (const auto& [name, rule] : rules_) names.push_back(name);
  return names;
}

Result<Propagator::RuleStats> Propagator::GetStats(
    const std::string& name) const {
  MutexLock lock(&mu_);
  auto it = stats_.find(name);
  if (it == stats_.end()) return Status::NotFound("rule '" + name + "'");
  return it->second;
}

Result<size_t> Propagator::RunOnce() {
  // Copy the rule set so rule admin does not block pumping.
  std::vector<PropagationRule> rules;
  {
    MutexLock lock(&mu_);
    rules.reserve(rules_.size());
    for (const auto& [name, rule] : rules_) rules.push_back(rule);
  }
  size_t forwarded_total = 0;
  for (const PropagationRule& rule : rules) {
    RuleStats delta;
    DequeueRequest request;
    request.group = rule.source_group;
    for (;;) {
      EDADB_ASSIGN_OR_RETURN(
          std::vector<Message> batch,
          queues_->DequeueBatch(rule.source_queue, request, kBatchSize));
      if (batch.empty()) break;
      EDADB_ASSIGN_OR_RETURN(const bool stopped,
                             MoveBatch(rule, batch, &delta));
      // A failed message stops this rule for now; it is redeliverable.
      if (stopped) break;
    }
    forwarded_total += delta.forwarded;
    MutexLock lock(&mu_);
    RuleStats& stats = stats_[rule.name];
    stats.forwarded += delta.forwarded;
    stats.dropped += delta.dropped;
    stats.failed += delta.failed;
  }
  return forwarded_total;
}

Result<bool> Propagator::MoveBatch(const PropagationRule& rule,
                                   const std::vector<Message>& batch,
                                   RuleStats* delta) {
  // Filter: non-matching messages are consumed and dropped (acked with
  // the forwarded ones below).
  std::vector<MessageId> acks;
  std::vector<const Message*> forward;
  for (const Message& message : batch) {
    if (rule.filter.has_value() &&
        !rule.filter->MatchesOrFalse(MessageView(message))) {
      acks.push_back(message.id);
      ++delta->dropped;
    } else {
      forward.push_back(&message);
    }
  }
  // Forward in order; `moved` counts the prefix that reached the
  // destination. Past a failure nothing is tried.
  size_t moved = 0;
  if (rule.external != nullptr) {
    for (; moved < forward.size(); ++moved) {
      if (!DeliverExternal(rule, *forward[moved]).ok()) break;
    }
  } else if (!forward.empty()) {
    std::vector<EnqueueRequest> out;
    out.reserve(forward.size());
    for (const Message* message : forward) {
      if (rule.transform != nullptr) {
        out.push_back(rule.transform(*message));
      } else {
        EnqueueRequest request;
        request.payload = message->payload;
        request.attributes = message->attributes;
        request.priority = message->priority;
        request.correlation_id = message->correlation_id;
        out.push_back(std::move(request));
      }
    }
    // Cross-shard handoff: enqueue idempotently through the destination
    // shard's own commit pipeline. Each key is stable across
    // redeliveries of its source message (ids survive recovery), so the
    // crash window between the destination commit and the source ack
    // below replays into "already delivered" instead of a duplicate.
    const bool cross_shard = queues_->ShardOf(rule.source_queue) !=
                             queues_->ShardOf(rule.destination_queue);
    std::vector<std::string> keys;
    if (cross_shard) {
      keys.reserve(forward.size());
      for (const Message* message : forward) {
        keys.push_back(rule.name + "\x01" + std::to_string(message->id));
      }
    }
    const std::string& to = rule.destination_queue;
    // One transaction for the batch; if it fails without applying, one
    // per message, so a poisoned message fails alone. A batch that
    // applied (DurabilityUnknown) is moved: a retry would stage it twice.
    if (CommitApplied(cross_shard
                          ? queues_->EnqueueDedupBatch(to, out, keys).status()
                          : queues_->EnqueueBatch(to, out).status())) {
      moved = forward.size();
    }
    for (; moved < forward.size(); ++moved) {
      const Status one =
          cross_shard
              ? queues_->EnqueueDedup(to, out[moved], keys[moved]).status()
              : queues_->Enqueue(to, out[moved]).status();
      if (!one.ok()) break;
    }
    if (cross_shard && moved > 0) {
      // Destination committed (or had already committed) but the
      // source still holds the messages: the at-least-once window the
      // torture schedules crash inside.
      FAILPOINT("mq.propagate.handoff");
    }
  }
  for (size_t i = 0; i < moved; ++i) acks.push_back(forward[i]->id);
  delta->forwarded += moved;
  // One Settle for the batch: the delivered prefix and the filter drops
  // are acked; past a failure, the failed message is charged one attempt
  // (nacked) and the ones after it, never tried, go back uncharged
  // (released).
  Settlement settlement;
  settlement.acked = acks;
  std::vector<MessageId> untried;
  const bool stopped = moved < forward.size();
  if (stopped) {
    ++delta->failed;
    settlement.nacked = {&forward[moved]->id, 1};
    for (size_t i = moved + 1; i < forward.size(); ++i) {
      untried.push_back(forward[i]->id);
    }
    settlement.released = untried;
  }
  EDADB_RETURN_IF_ERROR(
      queues_->Settle(rule.source_queue, rule.source_group, settlement));
  return stopped;
}

Status Propagator::DeliverExternal(const PropagationRule& rule,
                                   const Message& message) {
#if EDADB_FAILPOINTS_ENABLED
  // Injected external-service error/timeout: the endpoint never sees
  // the message, and it must be nacked and redelivered.
  if (failpoint::internal::AnyArmed()) {
    const failpoint::FireResult fp = failpoint::Fire("mq.propagate.deliver");
    if (fp.fired) {
      if (fp.kind == failpoint::ActionKind::kCrash) {
        failpoint::Crash("mq.propagate.deliver");
      }
      return fp.status.ok() ? Status::TimedOut("injected external timeout")
                            : fp.status;
    }
  }
#endif
  return rule.external->Deliver(message);
}

}  // namespace edadb
