#include "mq/queue_manager.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"

namespace edadb {

namespace {

/// Hot-path instruments, resolved once (pointers are stable forever).
metrics::Counter* EnqueuedCounter() {
  static metrics::Counter* const c =
      metrics::Registry::Default()->GetCounter("mq.enqueued");
  return c;
}
metrics::Histogram* EnqueueLatency() {
  static metrics::Histogram* const h =
      metrics::Registry::Default()->GetHistogram("mq.enqueue.latency_us");
  return h;
}
metrics::Counter* DequeuedCounter() {
  static metrics::Counter* const c =
      metrics::Registry::Default()->GetCounter("mq.dequeued");
  return c;
}
metrics::Histogram* DequeueLatency() {
  static metrics::Histogram* const h =
      metrics::Registry::Default()->GetHistogram("mq.dequeue.latency_us");
  return h;
}
metrics::Counter* AckCounter() {
  static metrics::Counter* const c =
      metrics::Registry::Default()->GetCounter("mq.acks");
  return c;
}
metrics::Histogram* AckLatency() {
  static metrics::Histogram* const h =
      metrics::Registry::Default()->GetHistogram("mq.ack.latency_us");
  return h;
}
metrics::Counter* NackCounter() {
  static metrics::Counter* const c =
      metrics::Registry::Default()->GetCounter("mq.nacks");
  return c;
}
metrics::Counter* DeadLetterCounter() {
  static metrics::Counter* const c =
      metrics::Registry::Default()->GetCounter("mq.dead_lettered");
  return c;
}

constexpr char kQueuesTable[] = "__queues";
constexpr char kGroupsTable[] = "__queue_groups";
constexpr char kHandoffTable[] = "__handoff";

SchemaPtr QueuesMetaSchema() {
  return Schema::Make({
      {"name", ValueType::kString, /*nullable=*/false},
      {"max_deliveries", ValueType::kInt64, false},
      {"visibility_timeout", ValueType::kInt64, false},
      {"dead_letter", ValueType::kString, true},
  });
}

SchemaPtr GroupsMetaSchema() {
  return Schema::Make({
      {"queue", ValueType::kString, false},
      {"grp", ValueType::kString, false},
  });
}

/// Consumed dedup keys for EnqueueDedup (the cross-shard handoff
/// ledger). The unique index on `key` is what makes a replayed handoff
/// abort instead of enqueueing a second copy.
SchemaPtr HandoffSchema() {
  return Schema::Make({
      {"key", ValueType::kString, /*nullable=*/false},
      {"consumed_at", ValueType::kTimestamp, false},
  });
}

SchemaPtr MsgSchema() {
  return Schema::Make({
      {"enqueue_time", ValueType::kTimestamp, false},
      {"visible_at", ValueType::kTimestamp, false},
      {"expires_at", ValueType::kTimestamp, false},
      {"priority", ValueType::kInt64, false},
      {"correlation", ValueType::kString, true},
      {"attrs", ValueType::kString, true},
      {"payload", ValueType::kString, true},
  });
}

SchemaPtr DelivSchema() {
  return Schema::Make({
      {"grp", ValueType::kString, false},
      {"msg_id", ValueType::kInt64, false},
      {"visible_at", ValueType::kTimestamp, false},
      {"locked_until", ValueType::kTimestamp, false},
      {"delivery_count", ValueType::kInt64, false},
  });
}

int64_t GetInt64(const Record& record, std::string_view field) {
  auto v = record.Get(field);
  if (!v.ok() || v->is_null()) return 0;
  auto i = v->AsInt64();
  return i.ok() ? *i : 0;
}

std::string GetString(const Record& record, std::string_view field) {
  auto v = record.Get(field);
  if (!v.ok() || v->is_null() || v->type() != ValueType::kString) return "";
  return v->string_value();
}

/// A delivery row, in DelivSchema() field order.
Record DeliveryRecord(const SchemaPtr& schema, const std::string& group,
                      MessageId id, WallMicros visible_at,
                      WallMicros locked_until, int64_t delivery_count) {
  return Record(schema, {Value::String(group),
                         Value::Int64(static_cast<int64_t>(id)),
                         Value::Timestamp(visible_at.micros()),
                         Value::Timestamp(locked_until.micros()),
                         Value::Int64(delivery_count)});
}

/// Each request's attributes in their stored encoding.
std::vector<std::string> EncodeAttributeLists(const EnqueueRequest* requests,
                                              size_t count) {
  std::vector<std::string> encoded(count);
  for (size_t i = 0; i < count; ++i) {
    EncodeAttributes(requests[i].attributes, &encoded[i]);
  }
  return encoded;
}

}  // namespace

std::string QueueManager::MsgTableName(const std::string& queue) {
  return "__q_" + queue + "_msgs";
}

std::string QueueManager::DelivTableName(const std::string& queue) {
  return "__q_" + queue + "_dlv";
}

QueueManager::QueueManager(Database* db, size_t shard)
    : db_(db), clock_(db->clock()), shard_(shard) {}

Result<std::unique_ptr<QueueManager>> QueueManager::Attach(Database* db,
                                                           size_t shard) {
  auto manager = std::unique_ptr<QueueManager>(new QueueManager(db, shard));
  EDADB_RETURN_IF_ERROR(manager->EnsureMetaTables());
  EDADB_RETURN_IF_ERROR(manager->ReloadFromMeta());
  // Per-shard hot-path instruments; registry-owned, resolved once.
  const std::string prefix = "shard." + std::to_string(shard) + ".";
  metrics::Registry* registry = metrics::Registry::Default();
  manager->shard_enqueues_ = registry->GetCounter(prefix + "enqueues");
  manager->shard_dequeues_ = registry->GetCounter(prefix + "dequeues");
  manager->shard_handoffs_ = registry->GetCounter(prefix + "handoffs");
  manager->shard_commit_latency_ =
      registry->GetHistogram(prefix + "commit_latency_us");
  // Depth/inflight are computed at snapshot time rather than maintained
  // on every mutation: the collector takes mu_, which is safe because
  // Registry::Snapshot invokes it without registry locks.
  QueueManager* raw = manager.get();
  manager->metrics_collector_ = metrics::Registry::Default()->RegisterCollector(
      [raw, prefix](std::vector<metrics::MetricSnapshot>* out) {
        MutexLock lock(&raw->mu_);
        int64_t shard_depth = 0;
        int64_t shard_inflight = 0;
        for (const auto& [name, state] : raw->queues_) {
          int64_t depth = 0;
          int64_t inflight = 0;
          for (const auto& [group, rt] : state.runtime) {
            depth += static_cast<int64_t>(rt.ready.size());
            inflight += static_cast<int64_t>(rt.locked.size());
          }
          shard_depth += depth;
          shard_inflight += inflight;
          metrics::MetricSnapshot d;
          d.name = "mq.queue." + name + ".depth";
          d.kind = metrics::MetricKind::kGauge;
          d.value = depth;
          out->push_back(std::move(d));
          metrics::MetricSnapshot i;
          i.name = "mq.queue." + name + ".inflight";
          i.kind = metrics::MetricKind::kGauge;
          i.value = inflight;
          out->push_back(std::move(i));
        }
        // Shard-level rollups: the per-lock-domain load picture the
        // sharded deployment is balanced by.
        metrics::MetricSnapshot sd;
        sd.name = prefix + "depth";
        sd.kind = metrics::MetricKind::kGauge;
        sd.value = shard_depth;
        out->push_back(std::move(sd));
        metrics::MetricSnapshot si;
        si.name = prefix + "inflight";
        si.kind = metrics::MetricKind::kGauge;
        si.value = shard_inflight;
        out->push_back(std::move(si));
      });
  return manager;
}

Status QueueManager::EnsureMetaTables() {
  if (!db_->GetTable(kQueuesTable).ok()) {
    EDADB_RETURN_IF_ERROR(
        db_->CreateTable(kQueuesTable, QueuesMetaSchema()).status());
    EDADB_RETURN_IF_ERROR(db_->CreateIndex(kQueuesTable, "name", true));
  }
  if (!db_->GetTable(kGroupsTable).ok()) {
    EDADB_RETURN_IF_ERROR(
        db_->CreateTable(kGroupsTable, GroupsMetaSchema()).status());
  }
  if (!db_->GetTable(kHandoffTable).ok()) {
    EDADB_RETURN_IF_ERROR(
        db_->CreateTable(kHandoffTable, HandoffSchema()).status());
    EDADB_RETURN_IF_ERROR(db_->CreateIndex(kHandoffTable, "key", true));
  }
  return Status::OK();
}

Status QueueManager::ReloadFromMeta() {
  // Scan into locals; guarded members are only touched under the lock
  // below (the analysis cannot see an enclosing lock inside a lambda).
  EDADB_ASSIGN_OR_RETURN(Table * queues_table, db_->GetTable(kQueuesTable));
  std::map<std::string, QueueState> loaded;
  queues_table->ScanRows([&](RowId, const Record& row) {
    const std::string name = GetString(row, "name");
    QueueState state;
    state.options.max_deliveries = GetInt64(row, "max_deliveries");
    state.options.visibility_timeout_micros =
        GetInt64(row, "visibility_timeout");
    state.options.dead_letter_queue = GetString(row, "dead_letter");
    loaded.emplace(name, std::move(state));
    return true;
  });
  EDADB_ASSIGN_OR_RETURN(Table * groups_table, db_->GetTable(kGroupsTable));
  groups_table->ScanRows([&](RowId, const Record& row) {
    auto it = loaded.find(GetString(row, "queue"));
    if (it != loaded.end()) {
      it->second.explicit_groups.insert(GetString(row, "grp"));
    }
    return true;
  });
  MutexLock lock(&mu_);
  queues_ = std::move(loaded);
  for (auto& [name, state] : queues_) {
    EDADB_ASSIGN_OR_RETURN(state.tables, ResolveTables(name));
    EDADB_RETURN_IF_ERROR(RebuildRuntimeLocked(name, &state));
  }
  return Status::OK();
}

Result<QueueManager::QueueTables> QueueManager::ResolveTables(
    const std::string& name) const {
  QueueTables tables{MsgTableName(name), DelivTableName(name), nullptr,
                     nullptr};
  EDADB_ASSIGN_OR_RETURN(Table * msgs, db_->GetTable(tables.msg_table));
  EDADB_ASSIGN_OR_RETURN(Table * dlv, db_->GetTable(tables.dlv_table));
  tables.msg_schema = msgs->schema();
  tables.dlv_schema = dlv->schema();
  return tables;
}

Status QueueManager::CreateQueueStorage(const std::string& name) {
  EDADB_RETURN_IF_ERROR(
      db_->CreateTable(MsgTableName(name), MsgSchema()).status());
  return db_->CreateTable(DelivTableName(name), DelivSchema()).status();
}

Status QueueManager::RebuildRuntimeLocked(const std::string& name,
                                          QueueState* state) {
  EDADB_ASSIGN_OR_RETURN(Table * msgs, db_->GetTable(state->tables.msg_table));
  msgs->ScanRows([&](RowId row_id, const Record& row) {
    state->messages[row_id] = {
        GetInt64(row, "priority"),
        WallMicros::FromMicros(GetInt64(row, "expires_at"))};
    return true;
  });
  EDADB_ASSIGN_OR_RETURN(Table * dlv, db_->GetTable(state->tables.dlv_table));
  // Persisted deadlines are wall timestamps (steady epochs do not
  // survive a process); convert the remaining span into the steady
  // domain the runtime maps live in. The wall-wall subtraction yields a
  // domain-free duration, which is the only thing allowed to cross.
  const WallMicros wall_now = clock_->WallNow();
  const SteadyMicros steady_now = clock_->SteadyNow();
  std::set<MessageId> delivered_ids;
  dlv->ScanRows([&](RowId row_id, const Record& row) {
    const std::string group = GetString(row, "grp");
    const MessageId msg_id = static_cast<MessageId>(GetInt64(row, "msg_id"));
    delivered_ids.insert(msg_id);
    GroupRuntime& rt = state->runtime[group];
    const WallMicros locked_until =
        WallMicros::FromMicros(GetInt64(row, "locked_until"));
    const WallMicros visible_at =
        WallMicros::FromMicros(GetInt64(row, "visible_at"));
    rt.deliveries[msg_id] = {row_id, GetInt64(row, "delivery_count"),
                             visible_at};
    if (locked_until > wall_now) {
      rt.locked[msg_id] = steady_now + (locked_until - wall_now);
    } else if (visible_at > wall_now) {
      rt.delayed.emplace(steady_now + (visible_at - wall_now), msg_id);
    } else {
      rt.ready.emplace(-PriorityOf(*state, msg_id), msg_id);
    }
    return true;
  });
  // GC orphaned message rows. An ack now deletes the last delivery row
  // and the message row in one transaction, but builds before that used
  // two, and a crash between them left a fully acked message body
  // behind. Enqueue inserts message + deliveries atomically, so a
  // message with no delivery row can only be that leftover — delete it.
  std::vector<MessageId> orphans;
  for (const auto& [id, meta] : state->messages) {
    if (delivered_ids.count(id) == 0) orphans.push_back(id);
  }
  for (const MessageId id : orphans) {
    EDADB_LOG(Warn) << "queue '" << name << "': GC of orphaned message "
                    << id << " (crash between ack deletes)";
    state->messages.erase(id);
    EDADB_RETURN_IF_ERROR(db_->DeleteRow(state->tables.msg_table, id));
  }
  return Status::OK();
}

Status QueueManager::CreateQueue(const std::string& name,
                                 QueueCreateOptions options) {
  MutexLock lock(&mu_);
  if (name.empty()) return Status::InvalidArgument("queue needs a name");
  if (queues_.count(name) > 0) {
    return Status::AlreadyExists("queue '" + name + "' already exists");
  }
  EDADB_ASSIGN_OR_RETURN(Table * meta, db_->GetTable(kQueuesTable));
  Record row = *RecordBuilder(meta->schema())
                    .SetString("name", name)
                    .SetInt64("max_deliveries", options.max_deliveries)
                    .SetInt64("visibility_timeout",
                              options.visibility_timeout_micros)
                    .SetString("dead_letter", options.dead_letter_queue)
                    .Build();
  EDADB_RETURN_IF_ERROR(db_->Insert(kQueuesTable, std::move(row)).status());
  EDADB_RETURN_IF_ERROR(CreateQueueStorage(name));
  QueueState state;
  state.options = std::move(options);
  EDADB_ASSIGN_OR_RETURN(state.tables, ResolveTables(name));
  queues_.emplace(name, std::move(state));
  return Status::OK();
}

Status QueueManager::DropQueue(const std::string& name) {
  MutexLock lock(&mu_);
  auto it = queues_.find(name);
  if (it == queues_.end()) {
    return Status::NotFound("queue '" + name + "'");
  }
  EDADB_RETURN_IF_ERROR(db_->DropTable(it->second.tables.msg_table));
  EDADB_RETURN_IF_ERROR(db_->DropTable(it->second.tables.dlv_table));
  const Predicate by_name =
      Predicate::ColumnsEqual({{"name", Value::String(name)}});
  EDADB_RETURN_IF_ERROR(db_->DeleteWhere(kQueuesTable, by_name).status());
  const Predicate by_queue =
      Predicate::ColumnsEqual({{"queue", Value::String(name)}});
  EDADB_RETURN_IF_ERROR(db_->DeleteWhere(kGroupsTable, by_queue).status());
  queues_.erase(it);
  return Status::OK();
}

bool QueueManager::HasQueue(const std::string& name) const {
  MutexLock lock(&mu_);
  return queues_.count(name) > 0;
}

std::vector<std::string> QueueManager::ListQueues() const {
  MutexLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(queues_.size());
  for (const auto& [name, state] : queues_) names.push_back(name);
  return names;
}

Status QueueManager::AddConsumerGroup(const std::string& queue,
                                      const std::string& group) {
  MutexLock lock(&mu_);
  auto it = queues_.find(queue);
  if (it == queues_.end()) return Status::NotFound("queue '" + queue + "'");
  if (group.empty()) {
    return Status::InvalidArgument("consumer group needs a name");
  }
  if (it->second.explicit_groups.count(group) > 0) {
    return Status::AlreadyExists("group '" + group + "' already registered");
  }
  EDADB_ASSIGN_OR_RETURN(Table * meta, db_->GetTable(kGroupsTable));
  Record row = *RecordBuilder(meta->schema())
                    .SetString("queue", queue)
                    .SetString("grp", group)
                    .Build();
  EDADB_RETURN_IF_ERROR(db_->Insert(kGroupsTable, std::move(row)).status());
  it->second.explicit_groups.insert(group);
  return Status::OK();
}

Status QueueManager::RemoveConsumerGroup(const std::string& queue,
                                         const std::string& group) {
  MutexLock lock(&mu_);
  auto it = queues_.find(queue);
  if (it == queues_.end()) return Status::NotFound("queue '" + queue + "'");
  if (it->second.explicit_groups.count(group) == 0) {
    return Status::NotFound("group '" + group + "'");
  }
  // The row first: the group leaves memory only once its delete applied,
  // so a failed delete leaves it registered in memory and on disk.
  const Predicate match = Predicate::ColumnsEqual(
      {{"queue", Value::String(queue)}, {"grp", Value::String(group)}});
  const Status deleted = db_->DeleteWhere(kGroupsTable, match).status();
  if (!CommitApplied(deleted)) return deleted;
  it->second.explicit_groups.erase(group);
  // Finish any outstanding deliveries so messages can be garbage
  // collected.
  auto rt_it = it->second.runtime.find(group);
  if (rt_it != it->second.runtime.end()) {
    std::vector<Outcome> outcomes;
    outcomes.reserve(rt_it->second.deliveries.size());
    for (const auto& [id, deliv] : rt_it->second.deliveries) {
      outcomes.push_back({id, Outcome::kFinish});
    }
    EDADB_RETURN_IF_ERROR(SettleLocked(queue, &it->second, group, outcomes));
    it->second.runtime.erase(group);
  }
  return deleted;
}

Result<std::vector<std::string>> QueueManager::ListConsumerGroups(
    const std::string& queue) const {
  MutexLock lock(&mu_);
  auto it = queues_.find(queue);
  if (it == queues_.end()) return Status::NotFound("queue '" + queue + "'");
  return std::vector<std::string>(it->second.explicit_groups.begin(),
                                  it->second.explicit_groups.end());
}

std::vector<std::string> QueueManager::EffectiveGroups(
    const QueueState& state) {
  if (state.explicit_groups.empty()) return {""};
  return {state.explicit_groups.begin(), state.explicit_groups.end()};
}

bool QueueManager::IsEffectiveGroup(const QueueState& state,
                                    const std::string& group) {
  return state.explicit_groups.empty()
             ? group.empty()
             : state.explicit_groups.count(group) > 0;
}

std::vector<Status> QueueManager::EnqueueFanout(
    std::span<const EnqueueRequest> requests,
    std::span<const FanoutTarget> targets,
    std::span<std::vector<MessageId>> ids) {
  assert(ids.empty() || ids.size() == targets.size());
  metrics::LatencyScope latency(EnqueueLatency());
  std::vector<Status> outcomes(targets.size());
  for (std::vector<MessageId>& staged : ids) staged.clear();
  // A target that cannot be resolved (a missing queue is NotFound, even
  // with no requests) fails alone and stages nothing.
  std::vector<Destination> dests;
  dests.reserve(targets.size());
  {
    MutexLock lock(&mu_);
    for (size_t t = 0; t < targets.size(); ++t) {
      const FanoutTarget& target = targets[t];
      for (const size_t i : target.requests) {
        if (i >= requests.size()) {
          outcomes[t] = Status::InvalidArgument(
              "fan-out target '" + target.queue + "' names request " +
              std::to_string(i) + " of " + std::to_string(requests.size()));
          break;
        }
      }
      if (!outcomes[t].ok()) continue;
      Result<StagingTarget> resolved = ResolveStagingLocked(target.queue);
      if (!resolved.ok()) {
        outcomes[t] = std::move(resolved).status();
        continue;
      }
      if (target.requests.empty()) continue;
      dests.push_back({*std::move(resolved), t, &target.requests,
                       ids.empty() ? nullptr : &ids[t]});
    }
  }
  if (dests.empty()) return outcomes;
  // Each request this call stages is encoded once, however many targets
  // receive it; requests bound only for other shards are not encoded.
  std::vector<std::string> attrs(requests.size());
  for (const Destination& dest : dests) {
    for (const size_t i : *dest.requests) {
      if (attrs[i].empty()) {
        EncodeAttributes(requests[i].attributes, &attrs[i]);
      }
    }
  }
  const Status committed = StageAndCommit(requests.data(), attrs.data(),
                                          dests.data(), dests.size());
  // Nothing applied: stage target by target, so a failing queue (one
  // dropped since it was resolved, say) fails alone.
  const bool per_target = !CommitApplied(committed) && dests.size() > 1;
  for (size_t d = 0; d < dests.size(); ++d) {
    Status staged = per_target ? StageAndCommit(requests.data(), attrs.data(),
                                                &dests[d], 1)
                               : committed;
    if (!staged.ok() && dests[d].ids != nullptr) dests[d].ids->clear();
    outcomes[dests[d].target_index] = std::move(staged);
  }
  return outcomes;
}

Status QueueManager::StageAndCommit(const EnqueueRequest* requests,
                                    const std::string* attrs,
                                    const Destination* dests,
                                    size_t num_dests) {
  const WallMicros now = clock_->WallNow();
  std::unique_ptr<Transaction> txn = db_->BeginTransaction();
  // Every destination's staged messages, destination after destination.
  std::vector<StagedMessage> staged;
  size_t total = 0;
  for (size_t d = 0; d < num_dests; ++d) total += dests[d].requests->size();
  staged.reserve(total);
  for (size_t d = 0; d < num_dests; ++d) {
    std::vector<MessageId>* ids = dests[d].ids;
    if (ids != nullptr) {
      ids->clear();
      ids->reserve(dests[d].requests->size());
    }
    for (const size_t i : *dests[d].requests) {
      // Crash between staged messages of a batch: the transaction never
      // commits, so the whole batch must vanish (all-or-nothing).
      if (!staged.empty()) FAILPOINT("mq.enqueue_batch.mid");
      EDADB_ASSIGN_OR_RETURN(StagedMessage message,
                             StageMessage(txn.get(), dests[d].target,
                                          requests[i], attrs[i], now));
      if (ids != nullptr) ids->push_back(message.id);
      staged.push_back(std::move(message));
    }
  }
  // Ops staged but not committed: a crash here must lose the batch
  // entirely (no body rows, no delivery rows).
  FAILPOINT("mq.enqueue.before_commit");
  Status committed;
  {
    metrics::LatencyScope commit_latency(shard_commit_latency_);
    committed = txn->Commit();
  }
  if (!CommitApplied(committed)) return committed;
  {
    MutexLock lock(&mu_);
    std::span<const StagedMessage> rest(staged);
    for (size_t d = 0; d < num_dests; ++d) {
      const size_t count = dests[d].requests->size();
      AddStagedLocked(dests[d].target, rest.first(count));
      rest = rest.subspan(count);
    }
  }
  enqueue_cv_.SignalAll();
  EDADB_RETURN_IF_ERROR(committed);
  EnqueuedCounter()->Add(total);
  if (shard_enqueues_ != nullptr) shard_enqueues_->Add(total);
  return Status::OK();
}

Result<std::vector<std::optional<MessageId>>> QueueManager::EnqueueDedupBatch(
    const std::string& queue, const std::vector<EnqueueRequest>& requests,
    const std::vector<std::string>& dedup_keys) {
  if (requests.size() != dedup_keys.size()) {
    return Status::InvalidArgument(
        "EnqueueDedupBatch needs one dedup key per request");
  }
  return DedupSpan(queue, requests.data(), dedup_keys.data(),
                   requests.size());
}

Result<std::vector<std::optional<MessageId>>> QueueManager::DedupSpan(
    const std::string& queue, const EnqueueRequest* requests,
    const std::string* keys, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    if (keys[i].empty()) {
      return Status::InvalidArgument("EnqueueDedup needs a dedup key");
    }
  }
  EDADB_ASSIGN_OR_RETURN(const StagingTarget target, ResolveStaging(queue));
  EDADB_ASSIGN_OR_RETURN(Table * ledger, db_->GetTable(kHandoffTable));
  const SchemaPtr ledger_schema = ledger->schema();
  const std::vector<std::string> attrs = EncodeAttributeLists(requests, count);
  const WallMicros now = clock_->WallNow();
  std::vector<StagedMessage> staged;
  staged.reserve(count);
  std::unique_ptr<Transaction> txn = db_->BeginTransaction();
  for (size_t i = 0; i < count; ++i) {
    EDADB_RETURN_IF_ERROR(
        txn->Insert(kHandoffTable,
                    Record(ledger_schema, {Value::String(keys[i]),
                                           Value::Timestamp(now.micros())}))
            .status());
    EDADB_ASSIGN_OR_RETURN(
        StagedMessage message,
        StageMessage(txn.get(), target, requests[i], attrs[i], now));
    staged.push_back(std::move(message));
  }
  // Key rows + message + delivery rows commit atomically: a key is
  // consumed iff its message became visible. Commit-time validation
  // happens before any WAL append, so a consumed key aborts cleanly
  // with AlreadyExists.
  FAILPOINT("mq.handoff.before_commit");
  Status committed;
  {
    metrics::LatencyScope commit_latency(shard_commit_latency_);
    committed = txn->Commit();
  }
  std::vector<std::optional<MessageId>> ids;
  ids.reserve(count);
  if (committed.IsAlreadyExists()) {
    if (count == 1) {
      // "Already delivered" holds only once that commit is durable.
      EDADB_RETURN_IF_ERROR(db_->SyncWal());
      return std::vector<std::optional<MessageId>>{std::nullopt};
    }
    // Some key was consumed already (a handoff replayed after a crash):
    // stage key by key, so only the consumed ones come back nullopt.
    for (size_t i = 0; i < count; ++i) {
      EDADB_ASSIGN_OR_RETURN(std::vector<std::optional<MessageId>> one,
                             DedupSpan(queue, &requests[i], &keys[i], 1));
      ids.push_back(one.front());
    }
    return ids;
  }
  if (!CommitApplied(committed)) return committed;
  {
    MutexLock lock(&mu_);
    AddStagedLocked(target, staged);
  }
  enqueue_cv_.SignalAll();
  EDADB_RETURN_IF_ERROR(committed);
  EnqueuedCounter()->Add(count);
  if (shard_enqueues_ != nullptr) shard_enqueues_->Add(count);
  if (shard_handoffs_ != nullptr) shard_handoffs_->Add(count);
  for (const StagedMessage& message : staged) ids.emplace_back(message.id);
  return ids;
}

Result<QueueManager::StagingTarget> QueueManager::ResolveStaging(
    const std::string& queue) {
  MutexLock lock(&mu_);
  return ResolveStagingLocked(queue);
}

Result<QueueManager::StagingTarget> QueueManager::ResolveStagingLocked(
    const std::string& queue) const {
  // Copied under mu_: DropQueue holds it across DropTable, so a
  // concurrent drop cannot free a table mid-read.
  auto it = queues_.find(queue);
  if (it == queues_.end()) return Status::NotFound("queue '" + queue + "'");
  const QueueState& state = it->second;
  return StagingTarget{queue, state.tables, EffectiveGroups(state)};
}

Result<QueueManager::StagedMessage> QueueManager::StageMessage(
    Transaction* txn, const StagingTarget& target,
    const EnqueueRequest& request, const std::string& attrs,
    WallMicros now) {
  StagedMessage staged;
  staged.priority = request.priority;
  staged.visible_at = now + request.delay_micros;
  if (request.ttl_micros > 0) staged.expires_at = now + request.ttl_micros;
  // MsgSchema() field order.
  Record msg_row(target.tables.msg_schema,
                 {Value::Timestamp(now.micros()),
                  Value::Timestamp(staged.visible_at.micros()),
                  Value::Timestamp(staged.expires_at.micros()),
                  Value::Int64(request.priority),
                  Value::String(request.correlation_id), Value::String(attrs),
                  Value::String(request.payload)});
  EDADB_ASSIGN_OR_RETURN(staged.id, txn->Insert(target.tables.msg_table,
                                                std::move(msg_row)));
  staged.deliv_rows.reserve(target.groups.size());
  for (const std::string& group : target.groups) {
    EDADB_ASSIGN_OR_RETURN(
        const RowId deliv_row,
        txn->Insert(target.tables.dlv_table,
                    DeliveryRecord(target.tables.dlv_schema, group, staged.id,
                                   staged.visible_at, WallMicros(), 0)));
    staged.deliv_rows.push_back(deliv_row);
  }
  return staged;
}

void QueueManager::AddStagedLocked(const StagingTarget& target,
                                   std::span<const StagedMessage> staged) {
  auto it = queues_.find(target.queue);
  // A re-created queue has new tables, whose schema objects are new too.
  if (it == queues_.end() ||
      it->second.tables.msg_schema != target.tables.msg_schema) {
    return;
  }
  QueueState& state = it->second;
  for (const StagedMessage& message : staged) {
    state.messages[message.id] = {message.priority, message.expires_at};
  }
  // Rows carry a wall visible_at; a delay is the remaining span mapped
  // onto the steady domain.
  const WallMicros wall_now = clock_->WallNow();
  const SteadyMicros steady_now = clock_->SteadyNow();
  for (size_t g = 0; g < target.groups.size(); ++g) {
    GroupRuntime& rt = state.runtime[target.groups[g]];
    for (const StagedMessage& message : staged) {
      rt.deliveries[message.id] = {message.deliv_rows[g], 0,
                                   message.visible_at};
      if (message.visible_at > wall_now) {
        rt.delayed.emplace(steady_now + (message.visible_at - wall_now),
                           message.id);
      } else {
        rt.ready.emplace(-message.priority, message.id);
      }
    }
  }
  BumpActivityLocked();
}

Result<MessageId> QueueManager::EnqueueInTransaction(
    Transaction* txn, const std::string& queue,
    const EnqueueRequest& request) {
  EDADB_ASSIGN_OR_RETURN(StagingTarget target, ResolveStaging(queue));
  EDADB_ASSIGN_OR_RETURN(
      StagedMessage staged,
      StageMessage(txn, target, request,
                   EncodeAttributeLists(&request, 1).front(),
                   clock_->WallNow()));
  const MessageId id = staged.id;
  txn->OnApplied(
      [this, target = std::move(target), staged = std::move(staged)] {
        {
          MutexLock lock(&mu_);
          AddStagedLocked(target, {&staged, 1});
        }
        enqueue_cv_.SignalAll();
      });
  return id;
}

int64_t QueueManager::PriorityOf(const QueueState& state, MessageId id) {
  auto meta = state.messages.find(id);
  return meta != state.messages.end() ? meta->second.priority : 0;
}

Result<Message> QueueManager::LoadMessage(const std::string& queue,
                                          const QueueTables& tables,
                                          MessageId id) const {
  EDADB_ASSIGN_OR_RETURN(Record row, db_->GetRow(tables.msg_table, id));
  Message message;
  message.id = id;
  message.queue = queue;
  message.enqueue_time = GetInt64(row, "enqueue_time");
  message.visible_at = GetInt64(row, "visible_at");
  message.expires_at = GetInt64(row, "expires_at");
  message.priority = GetInt64(row, "priority");
  message.correlation_id = GetString(row, "correlation");
  message.payload = GetString(row, "payload");
  const std::string attrs = GetString(row, "attrs");
  if (!attrs.empty()) {
    EDADB_ASSIGN_OR_RETURN(message.attributes, DecodeAttributes(attrs));
  }
  return message;
}

void QueueManager::Promote(QueueState* state, GroupRuntime* rt,
                           SteadyMicros steady_now) {
  while (!rt->delayed.empty() && rt->delayed.begin()->first <= steady_now) {
    const MessageId id = rt->delayed.begin()->second;
    rt->delayed.erase(rt->delayed.begin());
    rt->ready.emplace(-PriorityOf(*state, id), id);
  }
  for (auto it = rt->locked.begin(); it != rt->locked.end();) {
    if (it->second <= steady_now) {
      rt->ready.emplace(-PriorityOf(*state, it->first), it->first);
      it = rt->locked.erase(it);
    } else {
      ++it;
    }
  }
}

Status QueueManager::StageLocked(Transaction* txn, const std::string& name,
                                 const EnqueueRequest& request, WallMicros now,
                                 std::vector<Staging>* stagings) const {
  auto it = std::find_if(
      stagings->begin(), stagings->end(),
      [&name](const Staging& staging) { return staging.target.queue == name; });
  if (it == stagings->end()) {
    EDADB_ASSIGN_OR_RETURN(StagingTarget target, ResolveStagingLocked(name));
    it = stagings->insert(stagings->end(), {std::move(target), {}});
  }
  std::string attrs;
  EncodeAttributes(request.attributes, &attrs);
  EDADB_ASSIGN_OR_RETURN(StagedMessage staged,
                         StageMessage(txn, it->target, request, attrs, now));
  it->messages.push_back(std::move(staged));
  return Status::OK();
}

Status QueueManager::SettleLocked(const std::string& queue, QueueState* state,
                                  const std::string& group,
                                  std::span<const Outcome> outcomes,
                                  const Settlement& settlement) {
  if (outcomes.empty() && settlement.forwarded.empty()) return Status::OK();
  auto rt_it = state->runtime.find(group);
  if (rt_it == state->runtime.end()) {
    return Status::NotFound("no runtime for group '" + group + "'");
  }
  GroupRuntime& rt = rt_it->second;
  const QueueTables& tables = state->tables;
  const TimestampMicros timeout = state->options.visibility_timeout_micros;
  const TimestampMicros nack_delay_micros = settlement.redeliver_delay_micros;
  // Rows store wall-domain times (recovery converts them back); the
  // runtime schedules their steady-domain twins.
  const WallMicros wall_now = clock_->WallNow();
  const WallMicros nack_visible_at = wall_now + nack_delay_micros;
  // What each staged outcome becomes once the commit applied. `last`:
  // a finish that deletes the message row too, no other group holding
  // the message.
  struct Staged {
    Outcome::Kind kind;
    std::map<MessageId, DelivState>::iterator deliv;
    bool last = false;
  };
  std::vector<Staged> staged;
  staged.reserve(outcomes.size());
  size_t counts[Outcome::kLease + 1] = {};
  // Begun at the first row this call writes.
  std::unique_ptr<Transaction> txn = nullptr;
  const auto writes = [&txn, this] {
    if (txn == nullptr) txn = db_->BeginTransaction();
    return txn.get();
  };
  // Dead-letter copies and forwards. ShardRouter co-locates a queue
  // with its DLQ and refuses a forward to another shard, so both
  // targets live under this mu_ too.
  std::vector<Staging> stagings;
  for (const EnqueueRequest& request : settlement.forwarded) {
    EDADB_RETURN_IF_ERROR(StageLocked(writes(), settlement.forward_to, request,
                                      wall_now, &stagings));
  }
  for (const Outcome& outcome : outcomes) {
    const MessageId id = outcome.id;
    auto deliv_it = rt.deliveries.find(id);
    if (deliv_it == rt.deliveries.end()) {
      return Status::NotFound("no delivery of message " + std::to_string(id) +
                              " for group '" + group + "'");
    }
    const DelivState& deliv = deliv_it->second;
    Staged next{outcome.kind, deliv_it};
    const char* reason = outcome.reason;
    if (next.kind == Outcome::kNack &&
        deliv.delivery_count >= state->options.max_deliveries) {
      next.kind = Outcome::kDeadLetter;
      reason = "max_deliveries";
    }
    if (next.kind == Outcome::kRelease && rt.locked.count(id) == 0) {
      continue;  // Lock lapsed: already back.
    }
    if (next.kind == Outcome::kDeadLetter &&
        queues_.count(state->options.dead_letter_queue) > 0) {
      // The copy commits with the finish, so a crash leaves the message
      // in exactly one of the two queues. With no DLQ, or no message row
      // to copy, the delivery finishes without a copy.
      Result<Message> message = LoadMessage(queue, tables, id);
      if (message.ok()) {
        EnqueueRequest request;
        request.payload = std::move(message->payload);
        request.attributes = std::move(message->attributes);
        request.attributes.emplace_back("dlq_reason", Value::String(reason));
        request.attributes.emplace_back("dlq_source_queue",
                                        Value::String(queue));
        request.attributes.emplace_back(
            "dlq_source_id", Value::Int64(static_cast<int64_t>(id)));
        request.priority = message->priority;
        request.correlation_id = std::move(message->correlation_id);
        EDADB_RETURN_IF_ERROR(
            StageLocked(writes(), state->options.dead_letter_queue, request,
                        wall_now, &stagings));
      }
    }
    if (next.kind == Outcome::kFinish || next.kind == Outcome::kDeadLetter) {
      EDADB_RETURN_IF_ERROR(
          writes()->DeleteRow(tables.dlv_table, deliv.deliv_row));
      next.last = true;
      for (const auto& [name, other] : state->runtime) {
        if (name != group && other.deliveries.count(id) > 0) {
          next.last = false;
          break;
        }
      }
      if (next.last) {
        EDADB_RETURN_IF_ERROR(writes()->DeleteRow(tables.msg_table, id));
      }
    } else if (next.kind != Outcome::kLease &&
               !(next.kind == Outcome::kRelease && deliv.leased)) {
      // A lock charges the attempt, a release takes it back; a nack
      // keeps it (a lease's too) and moves the visibility time.
      int64_t count = deliv.delivery_count;
      if (next.kind == Outcome::kLock) ++count;
      if (next.kind == Outcome::kRelease) {
        count = std::max<int64_t>(0, count - 1);
      }
      EDADB_RETURN_IF_ERROR(writes()->UpdateRow(
          tables.dlv_table, deliv.deliv_row,
          DeliveryRecord(
              tables.dlv_schema, group, id,
              next.kind == Outcome::kNack ? nack_visible_at : deliv.visible_at,
              next.kind == Outcome::kLock ? wall_now + timeout : WallMicros(),
              count)));
    }
    ++counts[next.kind];
    staged.push_back(next);
  }
  if (staged.empty() && stagings.empty()) return Status::OK();
  const bool finishes =
      counts[Outcome::kFinish] + counts[Outcome::kDeadLetter] > 0;
  const bool wakes = counts[Outcome::kNack] + counts[Outcome::kRelease] > 0;
  // Nothing durable yet: a crash here loses the whole settlement. Taken
  // messages were never seen, so they are redelivered with no attempt
  // counted; settled ones come back after the visibility timeout.
  if (counts[Outcome::kNack] > 0) FAILPOINT("mq.nack.before_persist");
  if (counts[Outcome::kLock] > 0) FAILPOINT("mq.dequeue.before_lock_persist");
  if (finishes) FAILPOINT("mq.finish.before_commit");
  // A commit that applied but failed its sync wrote the rows too, so the
  // runtime follows them; it keeps its entries only if nothing applied.
  const Status committed = txn != nullptr ? txn->Commit() : Status::OK();
  if (!CommitApplied(committed)) return committed;
  // The rows are gone: a crash from here on must never redeliver.
  if (finishes) FAILPOINT_HIT("mq.finish.after_commit");
  const SteadyMicros steady_now = clock_->SteadyNow();
  for (const Staged& done : staged) {
    const MessageId id = done.deliv->first;
    DelivState& deliv = done.deliv->second;
    const bool takes =
        done.kind == Outcome::kLock || done.kind == Outcome::kLease;
    if (takes && !committed.ok()) continue;
    // A live delivery sits in exactly one of locked / ready / delayed.
    if (rt.locked.erase(id) == 0 &&
        rt.ready.erase({-PriorityOf(*state, id), id}) == 0) {
      for (auto it = rt.delayed.begin(); it != rt.delayed.end(); ++it) {
        if (it->second == id) {
          rt.delayed.erase(it);
          break;
        }
      }
    }
    switch (done.kind) {
      case Outcome::kLock:
      case Outcome::kLease:
        ++deliv.delivery_count;
        deliv.leased = done.kind == Outcome::kLease;
        rt.locked[id] = steady_now + timeout;
        break;
      case Outcome::kNack:
        deliv.visible_at = nack_visible_at;
        if (nack_delay_micros > 0) {
          rt.delayed.emplace(steady_now + nack_delay_micros, id);
        } else {
          rt.ready.emplace(-PriorityOf(*state, id), id);
        }
        break;
      case Outcome::kRelease:
        deliv.delivery_count = std::max<int64_t>(0, deliv.delivery_count - 1);
        rt.ready.emplace(-PriorityOf(*state, id), id);
        break;
      case Outcome::kFinish:
      case Outcome::kDeadLetter:
        rt.deliveries.erase(done.deliv);
        if (done.last) state->messages.erase(id);
        break;
    }
  }
  if (counts[Outcome::kNack] > 0) NackCounter()->Add(counts[Outcome::kNack]);
  if (counts[Outcome::kDeadLetter] > 0) {
    DeadLetterCounter()->Add(counts[Outcome::kDeadLetter]);
  }
  for (const Staging& staging : stagings) {
    AddStagedLocked(staging.target, staging.messages);  // Bumps activity.
    EnqueuedCounter()->Add(staging.messages.size());
    if (shard_enqueues_ != nullptr) {
      shard_enqueues_->Add(staging.messages.size());
    }
  }
  if (wakes) BumpActivityLocked();
  if (wakes || !stagings.empty()) enqueue_cv_.SignalAll();
  return committed;
}

Result<std::vector<Message>> QueueManager::DequeueBatch(
    const std::string& queue, const DequeueRequest& request,
    size_t max_messages) {
  if (request.lease && request.remove) {
    return Status::InvalidArgument("a dequeue either leases or removes");
  }
  metrics::LatencyScope latency(DequeueLatency());
  std::vector<Message> out;
  MutexLock lock(&mu_);
  auto it = queues_.find(queue);
  if (it == queues_.end()) return Status::NotFound("queue '" + queue + "'");
  QueueState& state = it->second;
  if (!IsEffectiveGroup(state, request.group)) {
    return Status::NotFound("consumer group '" + request.group +
                            "' not registered on queue '" + queue + "'");
  }
  GroupRuntime& rt = state.runtime[request.group];
  // Wall time decides data questions (TTL expiry, persisted rows);
  // steady time decides deadlines (lock promotion and new locks).
  const WallMicros wall_now = clock_->WallNow();
  Promote(&state, &rt, clock_->SteadyNow());

  // Walk the ready set in place, in dequeue order. Nothing the walk
  // decides moves until SettleLocked commits it: the taken messages and
  // every expired or spent one passed on the way, in ONE transaction.
  const Outcome::Kind take = request.remove  ? Outcome::kFinish
                             : request.lease ? Outcome::kLease
                                             : Outcome::kLock;
  std::vector<Outcome> outcomes;
  for (auto ready_it = rt.ready.begin();
       ready_it != rt.ready.end() && out.size() < max_messages;) {
    const MessageId id = ready_it->second;
    auto meta_it = state.messages.find(id);
    auto deliv_it = rt.deliveries.find(id);
    if (meta_it == state.messages.end() || deliv_it == rt.deliveries.end()) {
      ready_it = rt.ready.erase(ready_it);
      continue;
    }
    ++ready_it;
    const WallMicros expires_at = meta_it->second.expires_at;
    if (expires_at.micros() != 0 && expires_at <= wall_now) {
      outcomes.push_back({id, Outcome::kDeadLetter, "expired"});
      continue;
    }
    if (deliv_it->second.delivery_count >= state.options.max_deliveries) {
      outcomes.push_back({id, Outcome::kDeadLetter, "max_deliveries"});
      continue;
    }
    EDADB_ASSIGN_OR_RETURN(Message message,
                           LoadMessage(queue, state.tables, id));
    if (request.selector.has_value()) {
      MessageView view(message);
      if (!request.selector->MatchesOrFalse(view)) continue;
    }
    message.delivery_count = deliv_it->second.delivery_count + 1;
    outcomes.push_back({id, take});
    out.push_back(std::move(message));
  }
  // A lock commit that failed, DurabilityUnknown included, hands the
  // caller nothing: the messages stay ready, uncharged (leases too, when
  // the walk's dead-lettering failed). A REMOVE-mode commit that applied
  // consumed them, so they are returned.
  const Status settled =
      SettleLocked(queue, &state, request.group, outcomes);
  if (request.remove ? !CommitApplied(settled) : !settled.ok()) {
    return settled;
  }
  if (out.empty()) return out;
  DequeuedCounter()->Add(out.size());
  if (request.remove) AckCounter()->Add(out.size());
  if (shard_dequeues_ != nullptr) shard_dequeues_->Add(out.size());
  return out;
}

Result<std::optional<Message>> QueueManager::DequeueWait(
    const std::string& queue, const DequeueRequest& request,
    TimestampMicros timeout_micros) {
  {
    MutexLock lock(&mu_);
    if (shutdown_) return Status::Aborted("QueueManager shut down");
  }
  if (timeout_micros <= 0) {
    // Contract: exactly one non-blocking attempt, never a wait.
    return Dequeue(queue, request);
  }
  // Deadline in the clock's steady domain: real time keeps it moving
  // (SimulatedClock's steady side includes host-elapsed time) and
  // AdvanceMicros shortens it deterministically; a wall step (SetMicros)
  // does not touch it.
  const SteadyMicros deadline = clock_->SteadyNow() + timeout_micros;
  for (;;) {
    EDADB_ASSIGN_OR_RETURN(std::optional<Message> message,
                           Dequeue(queue, request));
    if (message.has_value()) return message;
    const SteadyMicros now = clock_->SteadyNow();
    if (now >= deadline) return std::optional<Message>();
    // Capped slices keep simulated-clock promotions responsive (a
    // delayed message maturing via AdvanceMicros signals no CV).
    const TimestampMicros slice =
        std::min<TimestampMicros>(deadline - now, 5 * kMicrosPerMilli);
    MutexLock lock(&mu_);
    if (shutdown_) return Status::Aborted("QueueManager shut down");
    enqueue_cv_.WaitForMicros(&mu_, slice);
  }
}

bool QueueManager::WaitForActivity(uint64_t last_seen_seq,
                                   TimestampMicros timeout_micros) {
  const SteadyMicros deadline = clock_->SteadyNow() + timeout_micros;
  MutexLock lock(&mu_);
  for (;;) {
    if (shutdown_) return true;
    if (activity_seq_.load(std::memory_order_acquire) != last_seen_seq) {
      return true;
    }
    const SteadyMicros now = clock_->SteadyNow();
    if (timeout_micros <= 0 || now >= deadline) return false;
    // One wait for the full remainder — every producer signals, so no
    // polling slices are needed here (unlike DequeueWait, nothing
    // matures silently: new activity always bumps the seq).
    enqueue_cv_.WaitForMicros(&mu_, deadline - now);
  }
}

void QueueManager::WakeWaiters() {
  {
    MutexLock lock(&mu_);
    BumpActivityLocked();
  }
  enqueue_cv_.SignalAll();
}

void QueueManager::Shutdown() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
    BumpActivityLocked();
  }
  enqueue_cv_.SignalAll();
}

Status QueueManager::Settle(const std::string& queue, const std::string& group,
                            const Settlement& settlement) {
  metrics::LatencyScope latency(settlement.acked.empty() ? nullptr
                                                         : AckLatency());
  std::vector<Outcome> outcomes;
  outcomes.reserve(settlement.acked.size() + settlement.nacked.size() +
                   settlement.released.size());
  for (const MessageId id : settlement.acked) {
    outcomes.push_back({id, Outcome::kFinish});
  }
  for (const MessageId id : settlement.nacked) {
    outcomes.push_back({id, Outcome::kNack});
  }
  for (const MessageId id : settlement.released) {
    outcomes.push_back({id, Outcome::kRelease});
  }
  // One outcome per id, so no transaction stages two ops on one row.
  std::sort(outcomes.begin(), outcomes.end(),
            [](const Outcome& a, const Outcome& b) {
              return a.id != b.id ? a.id < b.id : a.kind < b.kind;
            });
  for (size_t i = 1; i < outcomes.size(); ++i) {
    if (outcomes[i].id == outcomes[i - 1].id &&
        outcomes[i].kind != outcomes[i - 1].kind) {
      return Status::InvalidArgument("message " +
                                     std::to_string(outcomes[i].id) +
                                     " is settled two ways");
    }
  }
  outcomes.erase(std::unique(outcomes.begin(), outcomes.end(),
                             [](const Outcome& a, const Outcome& b) {
                               return a.id == b.id;
                             }),
                 outcomes.end());
  MutexLock lock(&mu_);
  auto it = queues_.find(queue);
  if (it == queues_.end()) return Status::NotFound("queue '" + queue + "'");
  // Nothing persisted yet: a crash here loses the ack, and the message
  // must be redelivered after the visibility timeout (at-least-once).
  if (!settlement.acked.empty()) FAILPOINT("mq.ack.before_finish");
  const Status settled =
      SettleLocked(queue, &it->second, group, outcomes, settlement);
  if (CommitApplied(settled)) AckCounter()->Add(settlement.acked.size());
  return settled;
}

Result<size_t> QueueManager::Depth(const std::string& queue,
                                   const std::string& group) const {
  MutexLock lock(&mu_);
  auto it = queues_.find(queue);
  if (it == queues_.end()) return Status::NotFound("queue '" + queue + "'");
  auto rt_it = it->second.runtime.find(group);
  if (rt_it == it->second.runtime.end()) return size_t{0};
  // Count ready plus delayed-now-due without mutating (Depth is const).
  const SteadyMicros steady_now = clock_->SteadyNow();
  size_t depth = rt_it->second.ready.size();
  for (const auto& [visible_at, id] : rt_it->second.delayed) {
    if (visible_at <= steady_now) ++depth;
  }
  for (const auto& [id, locked_until] : rt_it->second.locked) {
    if (locked_until <= steady_now) ++depth;
  }
  return depth;
}

Result<size_t> QueueManager::PurgeExpired(const std::string& queue) {
  MutexLock lock(&mu_);
  auto it = queues_.find(queue);
  if (it == queues_.end()) return Status::NotFound("queue '" + queue + "'");
  QueueState& state = it->second;
  const WallMicros now = clock_->WallNow();
  std::vector<MessageId> expired;
  for (const auto& [id, meta] : state.messages) {
    if (meta.expires_at.micros() != 0 && meta.expires_at <= now) {
      expired.push_back(id);
    }
  }
  // The first group holding a message dead-letters it and the others
  // finish it: one transaction per group.
  std::set<MessageId> copied;
  for (const auto& [group, rt] : state.runtime) {
    std::vector<Outcome> outcomes;
    for (const MessageId id : expired) {
      if (rt.deliveries.count(id) == 0) continue;
      outcomes.push_back({id,
                          copied.insert(id).second ? Outcome::kDeadLetter
                                                   : Outcome::kFinish,
                          "expired"});
    }
    EDADB_RETURN_IF_ERROR(SettleLocked(queue, &state, group, outcomes));
  }
  return copied.size();
}

Status QueueManager::Browse(
    const std::string& queue, const std::string& group,
    const std::function<bool(const Message&)>& fn) const {
  std::vector<Message> messages;
  {
    MutexLock lock(&mu_);
    auto it = queues_.find(queue);
    if (it == queues_.end()) return Status::NotFound("queue '" + queue + "'");
    auto rt_it = it->second.runtime.find(group);
    if (rt_it == it->second.runtime.end()) return Status::OK();
    const SteadyMicros steady_now = clock_->SteadyNow();
    // Snapshot: ready entries plus matured delayed/expired-lock entries,
    // in (priority, id) order — the order Dequeue would serve them.
    std::set<std::pair<int64_t, MessageId>> visible = rt_it->second.ready;
    for (const auto& [visible_at, id] : rt_it->second.delayed) {
      if (visible_at <= steady_now) {
        visible.emplace(-PriorityOf(it->second, id), id);
      }
    }
    for (const auto& [id, locked_until] : rt_it->second.locked) {
      if (locked_until <= steady_now) {
        visible.emplace(-PriorityOf(it->second, id), id);
      }
    }
    for (const auto& [neg_priority, id] : visible) {
      auto message = LoadMessage(queue, it->second.tables, id);
      if (message.ok()) messages.push_back(*std::move(message));
    }
  }
  // `fn` runs after mu_ is released, so it may call the manager.
  for (const Message& message : messages) {
    if (!fn(message)) break;
  }
  return Status::OK();
}

Result<Message> QueueManager::Peek(const std::string& queue,
                                   MessageId id) const {
  MutexLock lock(&mu_);
  auto it = queues_.find(queue);
  if (it == queues_.end()) return Status::NotFound("queue '" + queue + "'");
  return LoadMessage(queue, it->second.tables, id);
}

std::string Message::ToString() const {
  std::string out = StringPrintf(
      "Message{id=%llu queue=%s priority=%lld deliveries=%lld",
      static_cast<unsigned long long>(id), queue.c_str(),
      static_cast<long long>(priority),
      static_cast<long long>(delivery_count));
  for (const auto& [name, value] : attributes) {
    out += " " + name + "=" + value.ToString();
  }
  out += " payload='" + payload + "'}";
  return out;
}

}  // namespace edadb
