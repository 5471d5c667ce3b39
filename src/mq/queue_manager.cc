#include "mq/queue_manager.h"

#include <algorithm>
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
  // on every mutation: the collector takes mu_ (recursive), which is
  // safe because Registry::Snapshot invokes it without registry locks.
  QueueManager* raw = manager.get();
  manager->metrics_collector_ = metrics::Registry::Default()->RegisterCollector(
      [raw, prefix](std::vector<metrics::MetricSnapshot>* out) {
        RecursiveMutexLock lock(&raw->mu_);
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
  RecursiveMutexLock lock(&mu_);
  queues_ = std::move(loaded);
  for (auto& [name, state] : queues_) {
    EDADB_RETURN_IF_ERROR(RegisterQueueTriggers(name));
    EDADB_RETURN_IF_ERROR(RebuildRuntimeLocked(name, &state));
  }
  return Status::OK();
}

Status QueueManager::CreateQueueStorage(const std::string& name) {
  EDADB_RETURN_IF_ERROR(
      db_->CreateTable(MsgTableName(name), MsgSchema()).status());
  EDADB_RETURN_IF_ERROR(
      db_->CreateTable(DelivTableName(name), DelivSchema()).status());
  return RegisterQueueTriggers(name);
}

Status QueueManager::RegisterQueueTriggers(const std::string& name) {
  TriggerDef msg_trigger;
  msg_trigger.name = "__qt_" + name + "_msgs";
  msg_trigger.table = MsgTableName(name);
  msg_trigger.timing = TriggerTiming::kAfter;
  msg_trigger.ops = kDmlInsert;
  msg_trigger.action = [this, name](const TriggerEvent& event) {
    OnMessageInserted(name, event.row_id, *event.new_row);
    return Status::OK();
  };
  EDADB_RETURN_IF_ERROR(db_->CreateTrigger(std::move(msg_trigger)));

  TriggerDef dlv_trigger;
  dlv_trigger.name = "__qt_" + name + "_dlv";
  dlv_trigger.table = DelivTableName(name);
  dlv_trigger.timing = TriggerTiming::kAfter;
  dlv_trigger.ops = kDmlInsert;
  dlv_trigger.action = [this, name](const TriggerEvent& event) {
    OnDeliveryInserted(name, event.row_id, *event.new_row);
    return Status::OK();
  };
  return db_->CreateTrigger(std::move(dlv_trigger));
}

Status QueueManager::RebuildRuntimeLocked(const std::string& name,
                                          QueueState* state) {
  EDADB_ASSIGN_OR_RETURN(Table * msgs, db_->GetTable(MsgTableName(name)));
  msgs->ScanRows([&](RowId row_id, const Record& row) {
    state->messages[row_id] = {
        GetInt64(row, "priority"),
        WallMicros::FromMicros(GetInt64(row, "expires_at"))};
    return true;
  });
  EDADB_ASSIGN_OR_RETURN(Table * dlv, db_->GetTable(DelivTableName(name)));
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
    rt.deliveries[msg_id] = {row_id, GetInt64(row, "delivery_count")};
    const WallMicros locked_until =
        WallMicros::FromMicros(GetInt64(row, "locked_until"));
    const WallMicros visible_at =
        WallMicros::FromMicros(GetInt64(row, "visible_at"));
    auto meta = state->messages.find(msg_id);
    const int64_t priority =
        meta != state->messages.end() ? meta->second.priority : 0;
    if (locked_until > wall_now) {
      rt.locked[msg_id] = steady_now + (locked_until - wall_now);
    } else if (visible_at > wall_now) {
      rt.delayed.emplace(steady_now + (visible_at - wall_now), msg_id);
    } else {
      rt.ready.emplace(-priority, msg_id);
    }
    return true;
  });
  // GC orphaned message rows: FinishDelivery deletes the last delivery
  // row and the message row in two separate auto-commit transactions,
  // so a crash between them leaves a fully-acked message body behind.
  // Enqueue inserts message + deliveries atomically, so a message with
  // no delivery row can only be that crash leftover — delete it.
  std::vector<MessageId> orphans;
  for (const auto& [id, meta] : state->messages) {
    if (delivered_ids.count(id) == 0) orphans.push_back(id);
  }
  for (const MessageId id : orphans) {
    EDADB_LOG(Warn) << "queue '" << name << "': GC of orphaned message "
                    << id << " (crash between ack deletes)";
    state->messages.erase(id);
    EDADB_RETURN_IF_ERROR(db_->DeleteRow(MsgTableName(name), id));
  }
  return Status::OK();
}

Status QueueManager::CreateQueue(const std::string& name,
                                 QueueCreateOptions options) {
  RecursiveMutexLock lock(&mu_);
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
  queues_.emplace(name, std::move(state));
  return Status::OK();
}

Status QueueManager::DropQueue(const std::string& name) {
  RecursiveMutexLock lock(&mu_);
  auto it = queues_.find(name);
  if (it == queues_.end()) {
    return Status::NotFound("queue '" + name + "'");
  }
  // A missing trigger is fine (partially-created queue); any other
  // failure would leave a live trigger firing on a dropped table, so it
  // must abort the drop.
  for (const char* suffix : {"_msgs", "_dlv"}) {
    const Status dropped = db_->DropTrigger("__qt_" + name + suffix);
    if (!dropped.ok() && !dropped.IsNotFound()) return dropped;
  }
  EDADB_RETURN_IF_ERROR(db_->DropTable(MsgTableName(name)));
  EDADB_RETURN_IF_ERROR(db_->DropTable(DelivTableName(name)));
  EDADB_ASSIGN_OR_RETURN(Predicate by_name,
                         Predicate::Compile("name = '" + name + "'"));
  EDADB_RETURN_IF_ERROR(db_->DeleteWhere(kQueuesTable, by_name).status());
  EDADB_ASSIGN_OR_RETURN(Predicate by_queue,
                         Predicate::Compile("queue = '" + name + "'"));
  EDADB_RETURN_IF_ERROR(db_->DeleteWhere(kGroupsTable, by_queue).status());
  queues_.erase(it);
  return Status::OK();
}

bool QueueManager::HasQueue(const std::string& name) const {
  RecursiveMutexLock lock(&mu_);
  return queues_.count(name) > 0;
}

std::vector<std::string> QueueManager::ListQueues() const {
  RecursiveMutexLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(queues_.size());
  for (const auto& [name, state] : queues_) names.push_back(name);
  return names;
}

Status QueueManager::AddConsumerGroup(const std::string& queue,
                                      const std::string& group) {
  RecursiveMutexLock lock(&mu_);
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
  RecursiveMutexLock lock(&mu_);
  auto it = queues_.find(queue);
  if (it == queues_.end()) return Status::NotFound("queue '" + queue + "'");
  if (it->second.explicit_groups.erase(group) == 0) {
    return Status::NotFound("group '" + group + "'");
  }
  EDADB_ASSIGN_OR_RETURN(
      Predicate match,
      Predicate::Compile("queue = '" + queue + "' AND grp = '" + group +
                         "'"));
  EDADB_RETURN_IF_ERROR(db_->DeleteWhere(kGroupsTable, match).status());
  // Finish any outstanding deliveries so messages can be garbage
  // collected.
  auto rt_it = it->second.runtime.find(group);
  if (rt_it != it->second.runtime.end()) {
    std::vector<MessageId> ids;
    for (const auto& [id, deliv] : rt_it->second.deliveries) {
      ids.push_back(id);
    }
    for (const MessageId id : ids) {
      EDADB_RETURN_IF_ERROR(FinishDelivery(queue, &it->second, group, id));
    }
    it->second.runtime.erase(group);
  }
  return Status::OK();
}

Result<std::vector<std::string>> QueueManager::ListConsumerGroups(
    const std::string& queue) const {
  RecursiveMutexLock lock(&mu_);
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

Result<Record> QueueManager::BuildMessageRecord(
    const SchemaPtr& schema, const EnqueueRequest& request,
    WallMicros now) {
  std::string attrs;
  EncodeAttributes(request.attributes, &attrs);
  return RecordBuilder(schema)
      .SetTimestamp("enqueue_time", now.micros())
      .SetTimestamp("visible_at", (now + request.delay_micros).micros())
      .SetTimestamp("expires_at",
                    request.ttl_micros > 0 ? (now + request.ttl_micros).micros()
                                           : 0)
      .SetInt64("priority", request.priority)
      .SetString("correlation", request.correlation_id)
      .SetString("attrs", std::move(attrs))
      .SetString("payload", request.payload)
      .Build();
}

Result<MessageId> QueueManager::Enqueue(const std::string& queue,
                                        const EnqueueRequest& request) {
  EDADB_ASSIGN_OR_RETURN(std::vector<MessageId> ids,
                         EnqueueSpan(queue, &request, 1));
  return ids.front();
}

Result<std::vector<MessageId>> QueueManager::EnqueueBatch(
    const std::string& queue, const std::vector<EnqueueRequest>& requests) {
  return EnqueueSpan(queue, requests.data(), requests.size());
}

Result<std::vector<MessageId>> QueueManager::EnqueueSpan(
    const std::string& queue, const EnqueueRequest* requests, size_t count) {
  metrics::LatencyScope latency(EnqueueLatency());
  std::vector<MessageId> ids;
  if (count == 0) {
    // Validate the queue even for an empty batch so callers get the
    // same NotFound they would for a non-empty one.
    RecursiveMutexLock lock(&mu_);
    if (queues_.find(queue) == queues_.end()) {
      return Status::NotFound("queue '" + queue + "'");
    }
    return ids;
  }
  ids.reserve(count);
  auto txn = db_->BeginTransaction();
  for (size_t i = 0; i < count; ++i) {
    // Crash between staged messages of a batch: the transaction never
    // commits, so the whole batch must vanish (all-or-nothing).
    if (i > 0) FAILPOINT("mq.enqueue_batch.mid");
    EDADB_ASSIGN_OR_RETURN(
        MessageId id, EnqueueInTransaction(txn.get(), queue, requests[i]));
    ids.push_back(id);
  }
  // Ops staged but not committed: a crash here must lose the batch
  // entirely (no body rows, no delivery rows).
  FAILPOINT("mq.enqueue.before_commit");
  {
    metrics::LatencyScope commit_latency(shard_commit_latency_);
    EDADB_RETURN_IF_ERROR(txn->Commit());
  }
  EnqueuedCounter()->Add(count);
  if (shard_enqueues_ != nullptr) shard_enqueues_->Add(count);
  return ids;
}

Result<std::optional<MessageId>> QueueManager::EnqueueDedup(
    const std::string& queue, const EnqueueRequest& request,
    const std::string& dedup_key) {
  if (dedup_key.empty()) {
    return Status::InvalidArgument("EnqueueDedup needs a dedup key");
  }
  EDADB_ASSIGN_OR_RETURN(Table * ledger, db_->GetTable(kHandoffTable));
  Record key_row = *RecordBuilder(ledger->schema())
                        .SetString("key", dedup_key)
                        .SetTimestamp("consumed_at",
                                      clock_->WallNow().micros())
                        .Build();
  auto txn = db_->BeginTransaction();
  const Status claimed =
      txn->Insert(kHandoffTable, std::move(key_row)).status();
  if (claimed.IsAlreadyExists()) return std::optional<MessageId>();
  EDADB_RETURN_IF_ERROR(claimed);
  EDADB_ASSIGN_OR_RETURN(MessageId id,
                         EnqueueInTransaction(txn.get(), queue, request));
  // Key row + message + delivery rows commit atomically: the key is
  // consumed iff the message became visible. Commit-time validation
  // happens before any WAL append, so a lost race on the key aborts
  // cleanly with AlreadyExists.
  FAILPOINT("mq.handoff.before_commit");
  Status committed;
  {
    metrics::LatencyScope commit_latency(shard_commit_latency_);
    committed = txn->Commit();
  }
  if (committed.IsAlreadyExists()) return std::optional<MessageId>();
  EDADB_RETURN_IF_ERROR(committed);
  EnqueuedCounter()->Add(1);
  if (shard_enqueues_ != nullptr) shard_enqueues_->Add(1);
  if (shard_handoffs_ != nullptr) shard_handoffs_->Add(1);
  return std::optional<MessageId>(id);
}

Result<MessageId> QueueManager::EnqueueInTransaction(
    Transaction* txn, const std::string& queue,
    const EnqueueRequest& request) {
  std::vector<std::string> groups;
  SchemaPtr msg_schema;
  SchemaPtr dlv_schema;
  {
    // The schemas are copied under mu_: DropQueue holds it across
    // DropTable, so a concurrent drop cannot free a table mid-read.
    RecursiveMutexLock lock(&mu_);
    auto it = queues_.find(queue);
    if (it == queues_.end()) return Status::NotFound("queue '" + queue + "'");
    groups = EffectiveGroups(it->second);
    EDADB_ASSIGN_OR_RETURN(Table * msgs, db_->GetTable(MsgTableName(queue)));
    EDADB_ASSIGN_OR_RETURN(Table * dlv, db_->GetTable(DelivTableName(queue)));
    msg_schema = msgs->schema();
    dlv_schema = dlv->schema();
  }
  const WallMicros now = clock_->WallNow();
  EDADB_ASSIGN_OR_RETURN(Record msg_row,
                         BuildMessageRecord(msg_schema, request, now));
  EDADB_ASSIGN_OR_RETURN(MessageId id,
                         txn->Insert(MsgTableName(queue), std::move(msg_row)));
  for (const std::string& group : groups) {
    Record dlv_row = *RecordBuilder(dlv_schema)
                          .SetString("grp", group)
                          .SetInt64("msg_id", static_cast<int64_t>(id))
                          .SetTimestamp("visible_at",
                                        (now + request.delay_micros).micros())
                          .SetTimestamp("locked_until", 0)
                          .SetInt64("delivery_count", 0)
                          .Build();
    EDADB_RETURN_IF_ERROR(
        txn->Insert(DelivTableName(queue), std::move(dlv_row)).status());
  }
  return id;
}

void QueueManager::OnMessageInserted(const std::string& queue, MessageId id,
                                     const Record& row) {
  RecursiveMutexLock lock(&mu_);
  auto it = queues_.find(queue);
  if (it == queues_.end()) return;
  it->second.messages[id] = {
      GetInt64(row, "priority"),
      WallMicros::FromMicros(GetInt64(row, "expires_at"))};
}

void QueueManager::OnDeliveryInserted(const std::string& queue,
                                      RowId deliv_row, const Record& row) {
  {
    RecursiveMutexLock lock(&mu_);
    auto it = queues_.find(queue);
    if (it == queues_.end()) return;
    QueueState& state = it->second;
    const std::string group = GetString(row, "grp");
    const MessageId msg_id = static_cast<MessageId>(GetInt64(row, "msg_id"));
    GroupRuntime& rt = state.runtime[group];
    rt.deliveries[msg_id] = {deliv_row, GetInt64(row, "delivery_count")};
    // Row carries a wall visible_at; the runtime delay is the remaining
    // span mapped onto the steady domain.
    const WallMicros visible_at =
        WallMicros::FromMicros(GetInt64(row, "visible_at"));
    const WallMicros wall_now = clock_->WallNow();
    auto meta = state.messages.find(msg_id);
    const int64_t priority =
        meta != state.messages.end() ? meta->second.priority : 0;
    if (visible_at > wall_now) {
      rt.delayed.emplace(clock_->SteadyNow() + (visible_at - wall_now),
                         msg_id);
    } else {
      rt.ready.emplace(-priority, msg_id);
    }
    BumpActivityLocked();
  }
  enqueue_cv_.SignalAll();
}

Result<Message> QueueManager::LoadMessage(const std::string& queue,
                                          MessageId id) const {
  EDADB_ASSIGN_OR_RETURN(Record row, db_->GetRow(MsgTableName(queue), id));
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
    auto meta = state->messages.find(id);
    const int64_t priority =
        meta != state->messages.end() ? meta->second.priority : 0;
    rt->ready.emplace(-priority, id);
  }
  for (auto it = rt->locked.begin(); it != rt->locked.end();) {
    if (it->second <= steady_now) {
      auto meta = state->messages.find(it->first);
      const int64_t priority =
          meta != state->messages.end() ? meta->second.priority : 0;
      rt->ready.emplace(-priority, it->first);
      it = rt->locked.erase(it);
    } else {
      ++it;
    }
  }
}

Status QueueManager::FinishDelivery(const std::string& queue,
                                    QueueState* state,
                                    const std::string& group, MessageId id) {
  auto rt_it = state->runtime.find(group);
  if (rt_it == state->runtime.end()) {
    return Status::NotFound("no runtime for group '" + group + "'");
  }
  GroupRuntime& rt = rt_it->second;
  auto deliv_it = rt.deliveries.find(id);
  if (deliv_it == rt.deliveries.end()) {
    return Status::NotFound("no delivery of message " + std::to_string(id) +
                            " for group '" + group + "'");
  }
  FAILPOINT("mq.finish.before_dlv_delete");
  const RowId deliv_row = deliv_it->second.deliv_row;
  rt.deliveries.erase(deliv_it);
  rt.locked.erase(id);
  auto meta = state->messages.find(id);
  const int64_t priority =
      meta != state->messages.end() ? meta->second.priority : 0;
  rt.ready.erase({-priority, id});
  for (auto it = rt.delayed.begin(); it != rt.delayed.end(); ++it) {
    if (it->second == id) {
      rt.delayed.erase(it);
      break;
    }
  }
  EDADB_RETURN_IF_ERROR(db_->DeleteRow(DelivTableName(queue), deliv_row));
  // The delivery row is gone but the message row still exists: a crash
  // here is the orphaned-message window RebuildRuntimeLocked GCs.
  FAILPOINT("mq.finish.after_dlv_delete");

  // GC the message when no group still holds a delivery.
  bool live = false;
  for (const auto& [name, other_rt] : state->runtime) {
    if (other_rt.deliveries.count(id) > 0) {
      live = true;
      break;
    }
  }
  if (!live) {
    state->messages.erase(id);
    // A failed delete must surface: the caller's ack is not complete
    // until the message row is gone (recovery would reattach it).
    EDADB_RETURN_IF_ERROR(db_->DeleteRow(MsgTableName(queue), id));
  }
  return Status::OK();
}

Status QueueManager::DeadLetter(const std::string& queue, QueueState* state,
                                const std::string& group, MessageId id,
                                const std::string& reason) {
  if (!state->options.dead_letter_queue.empty() &&
      queues_.count(state->options.dead_letter_queue) > 0) {
    auto message = LoadMessage(queue, id);
    if (message.ok()) {
      EnqueueRequest request;
      request.payload = message->payload;
      request.attributes = message->attributes;
      request.attributes.emplace_back("dlq_reason", Value::String(reason));
      request.attributes.emplace_back("dlq_source_queue",
                                      Value::String(queue));
      request.attributes.emplace_back(
          "dlq_source_id", Value::Int64(static_cast<int64_t>(id)));
      request.priority = message->priority;
      request.correlation_id = message->correlation_id;
      const auto dlq_result =
          Enqueue(state->options.dead_letter_queue, request);
      if (!dlq_result.ok()) {
        EDADB_LOG(Warn) << "dead-letter enqueue failed: "
                        << dlq_result.status();
      }
    }
  }
  DeadLetterCounter()->Add(1);
  return FinishDelivery(queue, state, group, id);
}

Result<std::optional<Message>> QueueManager::Dequeue(
    const std::string& queue, const DequeueRequest& request) {
  EDADB_ASSIGN_OR_RETURN(std::vector<Message> messages,
                         DequeueBatch(queue, request, 1));
  if (messages.empty()) return std::optional<Message>();
  return std::optional<Message>(std::move(messages.front()));
}

Result<std::vector<Message>> QueueManager::DequeueBatch(
    const std::string& queue, const DequeueRequest& request,
    size_t max_messages) {
  metrics::LatencyScope latency(DequeueLatency());
  std::vector<Message> out;
  RecursiveMutexLock lock(&mu_);
  auto it = queues_.find(queue);
  if (it == queues_.end()) return Status::NotFound("queue '" + queue + "'");
  QueueState& state = it->second;
  const std::vector<std::string> groups = EffectiveGroups(state);
  if (std::find(groups.begin(), groups.end(), request.group) ==
      groups.end()) {
    return Status::NotFound("consumer group '" + request.group +
                            "' not registered on queue '" + queue + "'");
  }
  GroupRuntime& rt = state.runtime[request.group];
  // Wall time decides data questions (TTL expiry, persisted rows);
  // steady time decides deadlines (lock promotion and new locks).
  const WallMicros wall_now = clock_->WallNow();
  const SteadyMicros steady_now = clock_->SteadyNow();
  Promote(&state, &rt, steady_now);
  if (max_messages == 0) return out;

  // Snapshot the ready order; dead-lettering below mutates the set.
  std::vector<std::pair<int64_t, MessageId>> candidates(rt.ready.begin(),
                                                        rt.ready.end());
  for (const auto& [neg_priority, id] : candidates) {
    auto meta_it = state.messages.find(id);
    if (meta_it == state.messages.end()) {
      rt.ready.erase({neg_priority, id});
      continue;
    }
    const MsgMeta meta = meta_it->second;
    if (meta.expires_at.micros() != 0 && meta.expires_at <= wall_now) {
      EDADB_RETURN_IF_ERROR(
          DeadLetter(queue, &state, request.group, id, "expired"));
      continue;
    }
    auto deliv_it = rt.deliveries.find(id);
    if (deliv_it == rt.deliveries.end()) {
      rt.ready.erase({neg_priority, id});
      continue;
    }
    if (deliv_it->second.delivery_count >= state.options.max_deliveries) {
      EDADB_RETURN_IF_ERROR(
          DeadLetter(queue, &state, request.group, id, "max_deliveries"));
      continue;
    }
    EDADB_ASSIGN_OR_RETURN(Message message, LoadMessage(queue, id));
    if (request.selector.has_value()) {
      MessageView view(message);
      if (!request.selector->MatchesOrFalse(view)) continue;
    }
    // Lock it for this group. A crash before the lock persists means
    // the consumer never saw the message: it must be redelivered.
    FAILPOINT("mq.dequeue.before_lock_persist");
    DelivState& deliv = deliv_it->second;
    deliv.delivery_count += 1;
    // The row stores the wall-domain deadline (recovery converts it
    // back); the runtime lock is its steady-domain twin.
    const WallMicros locked_until_wall =
        wall_now + state.options.visibility_timeout_micros;
    EDADB_ASSIGN_OR_RETURN(Record dlv_row,
                           db_->GetRow(DelivTableName(queue),
                                       deliv.deliv_row));
    EDADB_RETURN_IF_ERROR(dlv_row.Set(
        "locked_until", Value::Timestamp(locked_until_wall.micros())));
    EDADB_RETURN_IF_ERROR(dlv_row.Set("delivery_count",
                                      Value::Int64(deliv.delivery_count)));
    EDADB_RETURN_IF_ERROR(db_->UpdateRow(DelivTableName(queue),
                                         deliv.deliv_row,
                                         std::move(dlv_row)));
    rt.ready.erase({neg_priority, id});
    rt.locked[id] = steady_now + state.options.visibility_timeout_micros;
    message.delivery_count = deliv.delivery_count;
    out.push_back(std::move(message));
    if (out.size() >= max_messages) break;
  }
  DequeuedCounter()->Add(out.size());
  if (shard_dequeues_ != nullptr) shard_dequeues_->Add(out.size());
  return out;
}

Result<std::optional<Message>> QueueManager::DequeueWait(
    const std::string& queue, const DequeueRequest& request,
    TimestampMicros timeout_micros) {
  {
    RecursiveMutexLock lock(&mu_);
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
    RecursiveMutexLock lock(&mu_);
    if (shutdown_) return Status::Aborted("QueueManager shut down");
    enqueue_cv_.WaitForMicros(&mu_, slice);
  }
}

bool QueueManager::WaitForActivity(uint64_t last_seen_seq,
                                   TimestampMicros timeout_micros) {
  const SteadyMicros deadline = clock_->SteadyNow() + timeout_micros;
  RecursiveMutexLock lock(&mu_);
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
    RecursiveMutexLock lock(&mu_);
    BumpActivityLocked();
  }
  enqueue_cv_.SignalAll();
}

void QueueManager::Shutdown() {
  {
    RecursiveMutexLock lock(&mu_);
    shutdown_ = true;
    BumpActivityLocked();
  }
  enqueue_cv_.SignalAll();
}

Status QueueManager::Ack(const std::string& queue, const std::string& group,
                         MessageId id) {
  metrics::LatencyScope latency(AckLatency());
  RecursiveMutexLock lock(&mu_);
  auto it = queues_.find(queue);
  if (it == queues_.end()) return Status::NotFound("queue '" + queue + "'");
  // Nothing persisted yet: a crash here loses the ack, and the message
  // must be redelivered after the visibility timeout (at-least-once).
  FAILPOINT("mq.ack.before_finish");
  EDADB_RETURN_IF_ERROR(FinishDelivery(queue, &it->second, group, id));
  AckCounter()->Add(1);
  return Status::OK();
}

Status QueueManager::Nack(const std::string& queue, const std::string& group,
                          MessageId id,
                          TimestampMicros redeliver_delay_micros) {
  RecursiveMutexLock lock(&mu_);
  auto it = queues_.find(queue);
  if (it == queues_.end()) return Status::NotFound("queue '" + queue + "'");
  QueueState& state = it->second;
  auto rt_it = state.runtime.find(group);
  if (rt_it == state.runtime.end()) {
    return Status::NotFound("no runtime for group '" + group + "'");
  }
  GroupRuntime& rt = rt_it->second;
  auto deliv_it = rt.deliveries.find(id);
  if (deliv_it == rt.deliveries.end()) {
    return Status::NotFound("no delivery of message " + std::to_string(id));
  }
  if (deliv_it->second.delivery_count >= state.options.max_deliveries) {
    return DeadLetter(queue, &state, group, id, "max_deliveries");
  }
  FAILPOINT("mq.nack.before_persist");
  // Persist the redelivery time as wall; schedule it in steady.
  const WallMicros wall_now = clock_->WallNow();
  const WallMicros visible_at_wall = wall_now + redeliver_delay_micros;
  EDADB_ASSIGN_OR_RETURN(
      Record dlv_row,
      db_->GetRow(DelivTableName(queue), deliv_it->second.deliv_row));
  EDADB_RETURN_IF_ERROR(dlv_row.Set("locked_until", Value::Timestamp(0)));
  EDADB_RETURN_IF_ERROR(
      dlv_row.Set("visible_at", Value::Timestamp(visible_at_wall.micros())));
  EDADB_RETURN_IF_ERROR(db_->UpdateRow(
      DelivTableName(queue), deliv_it->second.deliv_row, std::move(dlv_row)));
  rt.locked.erase(id);
  auto meta = state.messages.find(id);
  const int64_t priority =
      meta != state.messages.end() ? meta->second.priority : 0;
  if (redeliver_delay_micros > 0) {
    rt.delayed.emplace(clock_->SteadyNow() + redeliver_delay_micros, id);
  } else {
    rt.ready.emplace(-priority, id);
  }
  NackCounter()->Add(1);
  BumpActivityLocked();
  enqueue_cv_.SignalAll();
  return Status::OK();
}

Result<size_t> QueueManager::Depth(const std::string& queue,
                                   const std::string& group) const {
  RecursiveMutexLock lock(&mu_);
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
  RecursiveMutexLock lock(&mu_);
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
  size_t purged = 0;
  for (const MessageId id : expired) {
    // Dead-letter once, then drop every group's delivery.
    bool first = true;
    std::vector<std::string> holding;
    for (const auto& [group, rt] : state.runtime) {
      if (rt.deliveries.count(id) > 0) holding.push_back(group);
    }
    for (const std::string& group : holding) {
      if (first) {
        EDADB_RETURN_IF_ERROR(
            DeadLetter(queue, &state, group, id, "expired"));
        first = false;
      } else {
        EDADB_RETURN_IF_ERROR(FinishDelivery(queue, &state, group, id));
      }
    }
    if (!holding.empty()) ++purged;
  }
  return purged;
}

Status QueueManager::Browse(
    const std::string& queue, const std::string& group,
    const std::function<bool(const Message&)>& fn) const {
  RecursiveMutexLock lock(&mu_);
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
      auto meta = it->second.messages.find(id);
      visible.emplace(
          meta != it->second.messages.end() ? -meta->second.priority : 0,
          id);
    }
  }
  for (const auto& [id, locked_until] : rt_it->second.locked) {
    if (locked_until <= steady_now) {
      auto meta = it->second.messages.find(id);
      visible.emplace(
          meta != it->second.messages.end() ? -meta->second.priority : 0,
          id);
    }
  }
  for (const auto& [neg_priority, id] : visible) {
    auto message = LoadMessage(queue, id);
    if (!message.ok()) continue;
    if (!fn(*message)) break;
  }
  return Status::OK();
}

Result<Message> QueueManager::Peek(const std::string& queue,
                                   MessageId id) const {
  RecursiveMutexLock lock(&mu_);
  if (queues_.count(queue) == 0) {
    return Status::NotFound("queue '" + queue + "'");
  }
  return LoadMessage(queue, id);
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
