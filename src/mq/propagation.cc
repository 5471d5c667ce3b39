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
    request.lease = true;
    for (;;) {
      EDADB_ASSIGN_OR_RETURN(
          std::vector<Message> batch,
          queues_->DequeueBatch(rule.source_queue, request, kBatchSize));
      if (batch.empty()) break;
      EDADB_ASSIGN_OR_RETURN(const bool stopped,
                             MoveBatch(rule, batch, &delta));
      // A failed message stops this rule for now; it is redeliverable.
      // A short batch means the source ran dry.
      if (stopped || batch.size() < kBatchSize) break;
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
  // The batch is leased in memory: until a settle commits, a crash
  // leaves every message ready at restart, uncharged.
  FAILPOINT("mq.propagate.leased");
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
  const std::string& source = rule.source_queue;
  const std::string& group = rule.source_group;
  const std::string& to = rule.destination_queue;
  std::vector<EnqueueRequest> out;
  if (rule.external == nullptr) {
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
  }
  const bool same_shard = rule.external == nullptr &&
                          queues_->ShardOf(source) == queues_->ShardOf(to);
  if (same_shard && !forward.empty()) {
    // The destination messages are staged inside the one Settle that
    // consumes their sources: the hop is one commit. One that applied
    // (DurabilityUnknown) is moved, since both halves are in one WAL and
    // recovery keeps both or neither.
    for (const Message* message : forward) acks.push_back(message->id);
    if (CommitApplied(queues_->Settle(
            source, group,
            {.acked = acks, .forward_to = to, .forwarded = out}))) {
      delta->forwarded += forward.size();
      return false;
    }
    acks.resize(acks.size() - forward.size());
  }
  // Forward in order; `moved` counts the prefix that reached the
  // destination and `settled` the part of it already settled. Past a
  // failure nothing is tried.
  size_t moved = 0;
  size_t settled = 0;
  // The destination applied the handoff but its sync failed.
  bool unsure = false;
  if (rule.external != nullptr) {
    for (; moved < forward.size(); ++moved) {
      if (!DeliverExternal(rule, *forward[moved]).ok()) break;
    }
  } else if (same_shard) {
    // The batch applied nothing: one Settle per message, each with its
    // own forward, so a poisoned message fails alone.
    for (; moved < forward.size(); ++moved) {
      if (!CommitApplied(queues_->Settle(source, group,
                                         {.acked = {&forward[moved]->id, 1},
                                          .forward_to = to,
                                          .forwarded = {&out[moved], 1}}))) {
        break;
      }
    }
    settled = moved;
  } else if (!forward.empty()) {
    // Cross-shard handoff: enqueue idempotently through the destination
    // shard's own commit pipeline. Each key is stable across
    // redeliveries of its source message (ids survive recovery), so the
    // crash window between the destination commit and the source settle
    // below replays into "already delivered" instead of a duplicate.
    std::vector<std::string> keys;
    keys.reserve(forward.size());
    for (const Message* message : forward) {
      keys.push_back(rule.name + "\x01" + std::to_string(message->id));
    }
    // One transaction for the batch; if it fails without applying, one
    // per message, so a poisoned message fails alone.
    Status sent = queues_->EnqueueDedupBatch(to, out, keys).status();
    if (sent.ok()) {
      moved = forward.size();
    } else if (!sent.IsDurabilityUnknown()) {
      for (; moved < forward.size(); ++moved) {
        sent = queues_->EnqueueDedup(to, out[moved], keys[moved]).status();
        if (!sent.ok()) break;
      }
    }
    // The source's sync does not cover the destination's WAL, so what
    // the destination holds without having synced is released, not
    // finished: the retry finds its keys consumed and finishes it once
    // the destination is durable.
    unsure = sent.IsDurabilityUnknown();
    if (moved > 0) {
      // Destination committed (or had already committed) but the
      // source still holds the messages: the at-least-once window the
      // torture schedules crash inside.
      FAILPOINT("mq.propagate.handoff");
    }
  }
  for (size_t i = settled; i < moved; ++i) acks.push_back(forward[i]->id);
  delta->forwarded += moved;
  // One Settle for the rest of the batch: the delivered prefix and the
  // filter drops are acked; past a failure, the failed message is
  // charged one attempt (nacked) and the ones after it, never tried, go
  // back uncharged (released), as does an unsure handoff. Releasing a
  // lease writes nothing.
  Settlement settlement;
  settlement.acked = acks;
  std::vector<MessageId> untried;
  const bool stopped = moved < forward.size();
  if (stopped) {
    size_t next = moved;
    if (!unsure) {
      ++delta->failed;
      settlement.nacked = {&forward[next++]->id, 1};
    }
    for (; next < forward.size(); ++next) untried.push_back(forward[next]->id);
    settlement.released = untried;
  }
  EDADB_RETURN_IF_ERROR(queues_->Settle(source, group, settlement));
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
