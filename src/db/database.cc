#include "db/database.h"

#include <algorithm>
#include <cinttypes>
#include <set>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "db/snapshot.h"
#include "storage/file.h"
#include "value/row_codec.h"

namespace edadb {

namespace {

constexpr char kCheckpointFileName[] = "CHECKPOINT";

metrics::Counter* CommitsCounter() {
  static metrics::Counter* const c =
      metrics::Registry::Default()->GetCounter("db.commits");
  return c;
}

metrics::Histogram* CommitLatency() {
  static metrics::Histogram* const h =
      metrics::Registry::Default()->GetHistogram("db.commit.latency_us");
  return h;
}

metrics::Histogram* CommitOpsHistogram() {
  static metrics::Histogram* const h =
      metrics::Registry::Default()->GetHistogram("db.commit.ops");
  return h;
}

DmlOp LogTypeToDmlOp(LogRecordType type) {
  switch (type) {
    case LogRecordType::kInsert: return kDmlInsert;
    case LogRecordType::kUpdate: return kDmlUpdate;
    default: return kDmlDelete;
  }
}

}  // namespace

std::string_view DmlOpToString(DmlOp op) {
  switch (op) {
    case kDmlInsert: return "INSERT";
    case kDmlUpdate: return "UPDATE";
    case kDmlDelete: return "DELETE";
  }
  return "?";
}

Database::Database(DatabaseOptions options)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock
                                       : SystemClock::Default()) {}

Database::~Database() = default;

Result<std::unique_ptr<Database>> Database::Open(DatabaseOptions options) {
  EDADB_RETURN_IF_ERROR(CreateDirIfMissing(options.dir));
  auto db = std::unique_ptr<Database>(new Database(std::move(options)));

  WalOptions wal_options;
  wal_options.dir = db->wal_dir();
  wal_options.segment_size_bytes = db->options_.wal_segment_size_bytes;
  wal_options.sync_policy = db->options_.wal_sync_policy;
  EDADB_ASSIGN_OR_RETURN(db->wal_, WalWriter::Open(std::move(wal_options)));

  EDADB_RETURN_IF_ERROR(db->Recover());
  return db;
}

// ---------------------------------------------------------------------------
// Recovery

Status Database::Recover() {
  recovering_ = true;
  Lsn replay_from = 0;
  const std::string meta_path = options_.dir + "/" + kCheckpointFileName;
  if (FileExists(meta_path)) {
    EDADB_ASSIGN_OR_RETURN(std::string data, ReadFileToString(meta_path));
    EDADB_ASSIGN_OR_RETURN(CheckpointMeta meta, DecodeCheckpointMeta(data));
    EDADB_RETURN_IF_ERROR(LoadSnapshot(options_.dir + "/" +
                                       meta.snapshot_file));
    replay_from = meta.replay_from_lsn;
  }
  const Status s = ReplayWal(replay_from);
  recovering_ = false;
  return s;
}

Status Database::LoadSnapshot(const std::string& path) {
  EDADB_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  EDADB_ASSIGN_OR_RETURN(Snapshot snap, DecodeSnapshot(data));
  next_table_id_ = snap.next_table_id;
  next_txn_id_ = snap.next_txn_id;
  for (TableSnapshot& ts : snap.tables) {
    auto table = std::make_unique<Table>(ts.id, ts.name,
                                         Schema::Make(std::move(ts.fields)));
    for (auto& [row_id, bytes] : ts.rows) {
      EDADB_RETURN_IF_ERROR(
          table->mutable_heap()->InsertWithId(row_id, std::move(bytes)));
    }
    table->mutable_heap()->set_next_row_id(ts.next_row_id);
    for (const IndexDef& def : ts.indexes) {
      EDADB_RETURN_IF_ERROR(table->CreateIndex(def));
    }
    tables_by_id_.emplace(ts.id, table.get());
    tables_.emplace(ts.name, std::move(table));
  }
  return Status::OK();
}

Status Database::ReplayWal(Lsn from_lsn) {
  WalCursor cursor(wal_dir(), from_lsn);
  std::map<TxnId, std::vector<LogRecord>> pending;
  WalEntry entry;
  for (;;) {
    EDADB_ASSIGN_OR_RETURN(bool more, cursor.Next(&entry));
    if (!more) break;
    EDADB_ASSIGN_OR_RETURN(LogRecord rec,
                           LogRecord::Decode(entry.type, entry.payload));
    if (rec.txn_id >= next_txn_id_) next_txn_id_ = rec.txn_id + 1;
    switch (rec.type) {
      case LogRecordType::kBeginTxn:
        pending[rec.txn_id];
        break;
      case LogRecordType::kCommitTxn: {
        auto it = pending.find(rec.txn_id);
        if (it != pending.end()) {
          for (LogRecord& op : it->second) {
            EDADB_RETURN_IF_ERROR(ApplyLogRecord(std::move(op)));
          }
          pending.erase(it);
        }
        break;
      }
      case LogRecordType::kAbortTxn:
        pending.erase(rec.txn_id);
        break;
      case LogRecordType::kInsert:
      case LogRecordType::kUpdate:
      case LogRecordType::kDelete:
        pending[rec.txn_id].push_back(std::move(rec));
        break;
      case LogRecordType::kCreateTable:
      case LogRecordType::kDropTable:
      case LogRecordType::kCreateIndex:
        EDADB_RETURN_IF_ERROR(ApplyLogRecord(std::move(rec)));
        break;
      case LogRecordType::kCheckpoint:
        break;  // Informational; recovery starts from the meta file.
    }
  }
  // Transactions without a commit record are discarded (crash mid-txn).
  return Status::OK();
}

Status Database::ApplyLogRecord(LogRecord rec) {
  switch (rec.type) {
    case LogRecordType::kCreateTable: {
      if (tables_.count(rec.table_name) > 0) {
        return Status::Corruption("replay: table '" + rec.table_name +
                                  "' already exists");
      }
      auto table = std::make_unique<Table>(rec.table_id, rec.table_name,
                                           Schema::Make(rec.schema_fields));
      tables_by_id_.emplace(rec.table_id, table.get());
      tables_.emplace(rec.table_name, std::move(table));
      if (rec.table_id >= next_table_id_) next_table_id_ = rec.table_id + 1;
      return Status::OK();
    }
    case LogRecordType::kDropTable: {
      auto it = tables_.find(rec.table_name);
      if (it == tables_.end()) return Status::OK();  // Already gone.
      tables_by_id_.erase(it->second->id());
      tables_.erase(it);
      return Status::OK();
    }
    case LogRecordType::kCreateIndex: {
      auto it = tables_by_id_.find(rec.table_id);
      if (it == tables_by_id_.end()) {
        return Status::Corruption("replay: create index on unknown table");
      }
      if (it->second->HasIndex(rec.index_column)) return Status::OK();
      return it->second->CreateIndex({rec.index_column, rec.index_unique});
    }
    case LogRecordType::kInsert: {
      auto it = tables_by_id_.find(rec.table_id);
      if (it == tables_by_id_.end()) return Status::OK();  // Table dropped.
      EDADB_ASSIGN_OR_RETURN(
          Record record, DecodeRow(it->second->schema(), rec.new_row));
      return it->second
          ->ApplyInsert(rec.row_id, record, std::move(rec.new_row))
          .status();
    }
    case LogRecordType::kUpdate: {
      auto it = tables_by_id_.find(rec.table_id);
      if (it == tables_by_id_.end()) return Status::OK();
      EDADB_ASSIGN_OR_RETURN(
          Record record, DecodeRow(it->second->schema(), rec.new_row));
      return it->second->ApplyUpdate(rec.row_id, record,
                                     std::move(rec.new_row));
    }
    case LogRecordType::kDelete: {
      auto it = tables_by_id_.find(rec.table_id);
      if (it == tables_by_id_.end()) return Status::OK();
      return it->second->ApplyDelete(rec.row_id);
    }
    default:
      return Status::Internal("unexpected log record in apply");
  }
}

// ---------------------------------------------------------------------------
// DDL

Result<Table*> Database::CreateTable(const std::string& name,
                                     SchemaPtr schema) {
  std::unique_lock lock(mu_);
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  if (schema == nullptr || schema->num_fields() == 0) {
    return Status::InvalidArgument("table '" + name + "' needs fields");
  }
  const TableId id = next_table_id_++;
  LogRecord rec;
  rec.type = LogRecordType::kCreateTable;
  rec.table_id = id;
  rec.table_name = name;
  rec.schema_fields = schema->fields();
  EDADB_RETURN_IF_ERROR(
      wal_->Append(static_cast<uint8_t>(rec.type), rec.EncodePayload())
          .status());
  EDADB_RETURN_IF_ERROR(wal_->Sync());
  auto table = std::make_unique<Table>(id, name, std::move(schema));
  Table* raw = table.get();
  tables_by_id_.emplace(id, raw);
  tables_.emplace(name, std::move(table));
  return raw;
}

Status Database::DropTable(const std::string& name) {
  std::unique_lock lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "'");
  }
  LogRecord rec;
  rec.type = LogRecordType::kDropTable;
  rec.table_id = it->second->id();
  rec.table_name = name;
  EDADB_RETURN_IF_ERROR(
      wal_->Append(static_cast<uint8_t>(rec.type), rec.EncodePayload())
          .status());
  EDADB_RETURN_IF_ERROR(wal_->Sync());
  tables_by_id_.erase(it->second->id());
  tables_.erase(it);
  // Drop triggers bound to the table.
  for (auto t = triggers_.begin(); t != triggers_.end();) {
    if (t->second->table == name) {
      t = triggers_.erase(t);
    } else {
      ++t;
    }
  }
  return Status::OK();
}

Result<Table*> Database::GetTable(const std::string& name) {
  std::shared_lock lock(mu_);
  return GetTableLocked(name);
}

Result<Table*> Database::GetTableLocked(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "'");
  }
  return it->second.get();
}

std::vector<std::string> Database::ListTables() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

const Table* Database::GetTableById(TableId id) const {
  std::shared_lock lock(mu_);
  auto it = tables_by_id_.find(id);
  return it == tables_by_id_.end() ? nullptr : it->second;
}

Status Database::CreateIndex(const std::string& table,
                             const std::string& column, bool unique) {
  std::unique_lock lock(mu_);
  EDADB_ASSIGN_OR_RETURN(Table * t, GetTableLocked(table));
  LogRecord rec;
  rec.type = LogRecordType::kCreateIndex;
  rec.table_id = t->id();
  rec.index_column = column;
  rec.index_unique = unique;
  EDADB_RETURN_IF_ERROR(t->CreateIndex({column, unique}));
  // The in-memory index is built first so backfill failures (e.g. a
  // unique violation in existing rows) never reach the WAL — but then a
  // failed append/sync must tear it back down, or the index would serve
  // queries now and silently vanish on the next reopen.
  Status logged =
      wal_->Append(static_cast<uint8_t>(rec.type), rec.EncodePayload())
          .status();
  if (logged.ok()) logged = wal_->Sync();
  if (!logged.ok()) {
    t->DropIndex(column);
    return logged;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Trigger firing

Status Database::FireTriggers(TriggerTiming timing, TriggerEvent* event) {
  // Snapshot matching triggers under the lock, fire without it so
  // actions may call back into this Database. The snapshot shares
  // ownership, so a trigger dropped meanwhile stays alive until fired.
  std::vector<std::shared_ptr<const TriggerDef>> to_fire;
  {
    std::shared_lock lock(mu_);
    for (const auto& [name, def] : triggers_) {
      if (!def->enabled || def->timing != timing ||
          def->table != event->table_name || (def->ops & event->op) == 0) {
        continue;
      }
      to_fire.push_back(def);
    }
  }
  for (const std::shared_ptr<const TriggerDef>& def : to_fire) {
    if (def->when.has_value()) {
      TriggerRowView view(*event);
      auto matches = def->when->Matches(view);
      if (!matches.ok()) {
        EDADB_LOG(Warn) << "trigger '" << def->name
                        << "' WHEN error: " << matches.status();
        continue;
      }
      if (!*matches) continue;
    }
    const Status s = def->action != nullptr ? def->action(*event)
                                            : Status::OK();
    if (!s.ok()) {
      if (timing == TriggerTiming::kBefore) {
        return Status::Aborted("trigger '" + def->name +
                               "' vetoed: " + s.ToString());
      }
      EDADB_LOG(Warn) << "AFTER trigger '" << def->name
                      << "' failed: " << s;
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Op preparation

Result<Database::PendingOp> Database::PrepareInsert(const std::string& table,
                                                    Record record) {
  PendingOp op;
  op.type = LogRecordType::kInsert;
  op.table_name = table;
  bool fire_before = false;
  {
    std::unique_lock lock(mu_);
    EDADB_ASSIGN_OR_RETURN(Table * t, GetTableLocked(table));
    EDADB_RETURN_IF_ERROR(t->CheckRecord(record));
    op.table_id = t->id();
    op.row_id = t->mutable_heap()->AllocateRowId();
    fire_before = (t->trigger_mask() &
                   TriggerMaskBit(TriggerTiming::kBefore, kDmlInsert)) != 0;
  }
  op.new_record = std::move(record);
  if (fire_before) {
    TriggerEvent event;
    event.op = kDmlInsert;
    event.table_name = table;
    event.table_id = op.table_id;
    event.row_id = op.row_id;
    event.timestamp = clock_->NowMicros();
    event.new_row = &op.new_record;
    EDADB_RETURN_IF_ERROR(FireTriggers(TriggerTiming::kBefore, &event));
  }
  return op;
}

Result<Database::PendingOp> Database::PrepareUpdate(const std::string& table,
                                                    RowId row_id,
                                                    Record record) {
  PendingOp op;
  op.type = LogRecordType::kUpdate;
  op.table_name = table;
  op.row_id = row_id;
  Record old_record;
  bool fire_before = false;
  {
    std::shared_lock lock(mu_);
    EDADB_ASSIGN_OR_RETURN(const Table* t,
                           FindRowLocked(table, row_id, kDmlUpdate,
                                         &old_record, &fire_before));
    EDADB_RETURN_IF_ERROR(t->CheckRecord(record));
    op.table_id = t->id();
  }
  op.new_record = std::move(record);
  if (fire_before) {
    TriggerEvent event;
    event.op = kDmlUpdate;
    event.table_name = table;
    event.table_id = op.table_id;
    event.row_id = row_id;
    event.timestamp = clock_->NowMicros();
    event.old_row = &old_record;
    event.new_row = &op.new_record;
    EDADB_RETURN_IF_ERROR(FireTriggers(TriggerTiming::kBefore, &event));
  }
  return op;
}

Result<Database::PendingOp> Database::PrepareDelete(const std::string& table,
                                                    RowId row_id) {
  PendingOp op;
  op.type = LogRecordType::kDelete;
  op.table_name = table;
  op.row_id = row_id;
  Record old_record;
  bool fire_before = false;
  {
    std::shared_lock lock(mu_);
    EDADB_ASSIGN_OR_RETURN(const Table* t,
                           FindRowLocked(table, row_id, kDmlDelete,
                                         &old_record, &fire_before));
    op.table_id = t->id();
  }
  if (fire_before) {
    TriggerEvent event;
    event.op = kDmlDelete;
    event.table_name = table;
    event.table_id = op.table_id;
    event.row_id = row_id;
    event.timestamp = clock_->NowMicros();
    event.old_row = &old_record;
    EDADB_RETURN_IF_ERROR(FireTriggers(TriggerTiming::kBefore, &event));
  }
  return op;
}

Result<const Table*> Database::FindRowLocked(const std::string& table,
                                             RowId row_id, DmlOp op,
                                             Record* old_record,
                                             bool* fire_before) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("table '" + table + "'");
  const Table* t = it->second.get();
  *fire_before =
      (t->trigger_mask() & TriggerMaskBit(TriggerTiming::kBefore, op)) != 0;
  if (*fire_before) {
    EDADB_ASSIGN_OR_RETURN(*old_record, t->GetRow(row_id));
  } else if (t->heap().Get(row_id) == nullptr) {
    return Status::NotFound("row " + std::to_string(row_id) + " in table " +
                            table);
  }
  return t;
}

// ---------------------------------------------------------------------------
// Commit path

Status Database::ValidateOps(const std::vector<PendingOp>& ops) {
  // Per unique index, keys already claimed by earlier ops in this txn.
  std::map<std::pair<TableId, std::string>, std::set<std::string>> claimed;
  for (const PendingOp& op : ops) {
    auto it = tables_by_id_.find(op.table_id);
    if (it == tables_by_id_.end()) {
      return Status::NotFound("table id " + std::to_string(op.table_id) +
                              " (dropped mid-transaction?)");
    }
    Table* t = it->second;
    if (op.type == LogRecordType::kUpdate ||
        op.type == LogRecordType::kDelete) {
      if (t->heap().Get(op.row_id) == nullptr) {
        return Status::NotFound("row " + std::to_string(op.row_id) +
                                " vanished before commit");
      }
    }
    if (op.type == LogRecordType::kInsert ||
        op.type == LogRecordType::kUpdate) {
      EDADB_RETURN_IF_ERROR(t->CheckRecord(op.new_record));
      for (const IndexDef& def : t->index_defs()) {
        if (!def.unique) continue;
        auto v = op.new_record.Get(def.column);
        if (!v.ok() || v->is_null()) continue;
        const BTreeIndex* index = t->GetIndex(def.column);
        for (const RowId other : index->Lookup(*v)) {
          if (other != op.row_id) {
            return Status::AlreadyExists("unique index violation on '" +
                                         def.column + "'");
          }
        }
        std::string key;
        v->EncodeTo(&key);
        auto [slot, inserted] =
            claimed[{op.table_id, def.column}].insert(key);
        if (!inserted) {
          return Status::AlreadyExists(
              "unique index violation on '" + def.column +
              "' within one transaction");
        }
      }
    }
  }
  return Status::OK();
}

Status Database::CommitOps(std::vector<PendingOp> ops) {
  if (ops.empty()) return Status::OK();
  metrics::LatencyScope latency(CommitLatency());
  CommitOpsHistogram()->Record(ops.size());

  // One per op whose table has an enabled AFTER trigger for that kind
  // of op; the rest cost nothing here. `op` indexes `ops`, whose
  // new_record the trigger sees.
  struct AfterEvent {
    size_t op;
    Record old_record;
    bool has_old = false;
  };
  std::vector<AfterEvent> after_events;

  TxnId txn = kInvalidTxnId;
  Lsn commit_end_lsn = 0;
  Status synced;
  {
    std::unique_lock lock(mu_);
    EDADB_RETURN_IF_ERROR(ValidateOps(ops));
    FAILPOINT("db.commit.before_wal");
    txn = next_txn_id_++;

    // Frame Begin plus every op as ONE WAL batch — one writer lock
    // round-trip and one file write for the whole transaction. The
    // commit record goes separately so the crash window "ops logged,
    // commit missing" (which recovery must discard) still exists.
    // Each row is encoded once: `rows[i]` is logged here and moved
    // into the heap at apply. Payloads share one buffer; `ends[i]` is
    // where record i's payload stops.
    LogRecord begin;
    begin.type = LogRecordType::kBeginTxn;
    begin.txn_id = txn;
    std::string payloads = begin.EncodePayload();
    std::vector<size_t> ends;
    ends.reserve(ops.size() + 1);
    ends.push_back(payloads.size());
    std::vector<std::string> rows(ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      const PendingOp& op = ops[i];
      std::string_view old_row;
      if (op.type != LogRecordType::kInsert) {
        old_row = *tables_by_id_.at(op.table_id)->heap().Get(op.row_id);
      }
      if (op.type != LogRecordType::kDelete) EncodeRow(op.new_record, &rows[i]);
      EncodeDmlPayload(op.type, txn, op.table_id, op.row_id, old_row, rows[i],
                       &payloads);
      ends.push_back(payloads.size());
    }
    std::vector<WalRecordRef> wal_batch;
    wal_batch.reserve(ends.size());
    size_t payload_start = 0;
    for (size_t i = 0; i < ends.size(); ++i) {
      const LogRecordType type = i == 0 ? begin.type : ops[i - 1].type;
      wal_batch.push_back(
          {static_cast<uint8_t>(type),
           std::string_view(payloads).substr(payload_start,
                                             ends[i] - payload_start)});
      payload_start = ends[i];
    }
    EDADB_RETURN_IF_ERROR(wal_->AppendBatch(wal_batch).status());

    // A crash before the commit record leaves Begin+ops without Commit:
    // recovery must discard the whole transaction.
    FAILPOINT("db.commit.after_ops");
    LogRecord commit;
    commit.type = LogRecordType::kCommitTxn;
    commit.txn_id = txn;
    const std::string commit_payload = commit.EncodePayload();
    const std::vector<WalRecordRef> commit_rec = {
        {static_cast<uint8_t>(commit.type), commit_payload}};
    // An append error after the record landed (the log grew past it, as
    // when kEveryAppend's own sync fails) leaves a commit recovery keeps:
    // apply it and report DurabilityUnknown below.
    const Lsn commit_start = wal_->next_lsn();
    const Result<WalBatchResult> commit_written =
        wal_->AppendBatch(commit_rec);
    if (!commit_written.ok()) {
      if (wal_->next_lsn() == commit_start) return commit_written.status();
      synced = commit_written.status();
    }
    commit_end_lsn = wal_->next_lsn();
    // Crash-only sites from here on: past the commit record an early
    // return would read as a rollback of a transaction recovery keeps.
    FAILPOINT_HIT("db.commit.before_sync");

    // Apply. ValidateOps vetted everything; failures here indicate a
    // programming error and poison the database state.
    for (size_t i = 0; i < ops.size(); ++i) {
      const PendingOp& op = ops[i];
      Table* t = tables_by_id_.at(op.table_id);
      if ((t->trigger_mask() & TriggerMaskBit(TriggerTiming::kAfter,
                                              LogTypeToDmlOp(op.type))) != 0) {
        AfterEvent ev;
        ev.op = i;
        if (op.type != LogRecordType::kInsert) {
          auto old_rec = t->GetRow(op.row_id);
          if (old_rec.ok()) {
            ev.old_record = *std::move(old_rec);
            ev.has_old = true;
          }
        }
        after_events.push_back(std::move(ev));
      }
      Status s;
      switch (op.type) {
        case LogRecordType::kInsert:
          s = t->ApplyInsert(op.row_id, op.new_record, std::move(rows[i]))
                  .status();
          break;
        case LogRecordType::kUpdate:
          s = t->ApplyUpdate(op.row_id, op.new_record, std::move(rows[i]));
          break;
        case LogRecordType::kDelete:
          s = t->ApplyDelete(op.row_id);
          break;
        default:
          s = Status::Internal("unexpected op type");
      }
      if (!s.ok()) {
        return Status::Internal("commit apply failed after WAL write: " +
                                s.ToString());
      }
    }
  }

  // Group commit: the durability barrier runs OUTSIDE the database
  // lock, so concurrent committers rendezvous in WalWriter::SyncTo and
  // share one fdatasync instead of paying one each (DESIGN.md §10).
  // Applied state is visible to readers a beat before it is durable,
  // so a sync error is reported as DurabilityUnknown: the commit may or
  // may not survive a crash, but it was not rolled back.
  if (synced.ok()) synced = wal_->SyncTo(commit_end_lsn);
  if (synced.ok()) {
    // The commit record is on disk: a crash from here on must still
    // surface the transaction after recovery.
    FAILPOINT_HIT("db.commit.after_sync");
    CommitsCounter()->Add(1);
  }

  // AFTER triggers observe applied state, so what they capture matches
  // the tables even when the sync failed. Their errors are logged, not
  // propagated: the change is applied.
  for (AfterEvent& ev : after_events) {
    PendingOp& op = ops[ev.op];
    TriggerEvent event;
    event.op = LogTypeToDmlOp(op.type);
    event.table_name = op.table_name;
    event.table_id = op.table_id;
    event.row_id = op.row_id;
    event.txn_id = txn;
    event.timestamp = clock_->NowMicros();
    event.old_row = ev.has_old ? &ev.old_record : nullptr;
    event.new_row =
        op.type != LogRecordType::kDelete ? &op.new_record : nullptr;
    EDADB_IGNORE_STATUS(FireTriggers(TriggerTiming::kAfter, &event),
                        "AFTER-trigger failures are logged inside "
                        "FireTriggers; the commit is already applied");
  }
  if (!synced.ok()) {
    return Status::DurabilityUnknown("commit applied, WAL sync failed: " +
                                     synced.ToString());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Auto-commit DML

Result<RowId> Database::Insert(const std::string& table, Record record) {
  EDADB_ASSIGN_OR_RETURN(PendingOp op, PrepareInsert(table, std::move(record)));
  const RowId row_id = op.row_id;
  std::vector<PendingOp> ops;
  ops.push_back(std::move(op));
  EDADB_RETURN_IF_ERROR(CommitOps(std::move(ops)));
  return row_id;
}

Status Database::UpdateRow(const std::string& table, RowId row_id,
                           Record record) {
  EDADB_ASSIGN_OR_RETURN(PendingOp op,
                         PrepareUpdate(table, row_id, std::move(record)));
  std::vector<PendingOp> ops;
  ops.push_back(std::move(op));
  return CommitOps(std::move(ops));
}

Status Database::DeleteRow(const std::string& table, RowId row_id) {
  EDADB_ASSIGN_OR_RETURN(PendingOp op, PrepareDelete(table, row_id));
  std::vector<PendingOp> ops;
  ops.push_back(std::move(op));
  return CommitOps(std::move(ops));
}

Result<size_t> Database::UpdateWhere(
    const std::string& table, const Predicate& where,
    const std::function<Status(Record*)>& mutator) {
  if (!where.valid()) {
    return Status::FailedPrecondition("predicate not compiled");
  }
  std::vector<std::pair<RowId, Record>> matches;
  EDADB_RETURN_IF_ERROR(FindRows(table, where.expr(),
                                 [&](RowId row_id, const Record& row) {
                                   matches.emplace_back(row_id, row);
                                 })
                            .status());
  std::vector<PendingOp> ops;
  for (auto& [row_id, record] : matches) {
    EDADB_RETURN_IF_ERROR(mutator(&record));
    auto op = PrepareUpdate(table, row_id, std::move(record));
    if (op.status().IsNotFound()) continue;  // Deleted since it was found.
    EDADB_RETURN_IF_ERROR(op.status());
    ops.push_back(*std::move(op));
  }
  const size_t updated = ops.size();
  EDADB_RETURN_IF_ERROR(CommitOps(std::move(ops)));
  return updated;
}

Result<size_t> Database::DeleteWhere(const std::string& table,
                                     const Predicate& where) {
  if (!where.valid()) {
    return Status::FailedPrecondition("predicate not compiled");
  }
  std::vector<RowId> matches;
  EDADB_RETURN_IF_ERROR(
      FindRows(table, where.expr(),
               [&](RowId row_id, const Record&) { matches.push_back(row_id); })
          .status());
  std::vector<PendingOp> ops;
  for (const RowId row_id : matches) {
    auto op = PrepareDelete(table, row_id);
    if (op.status().IsNotFound()) continue;  // Deleted since it was found.
    EDADB_RETURN_IF_ERROR(op.status());
    ops.push_back(*std::move(op));
  }
  const size_t deleted = ops.size();
  EDADB_RETURN_IF_ERROR(CommitOps(std::move(ops)));
  return deleted;
}

// ---------------------------------------------------------------------------
// Transactions

std::unique_ptr<Transaction> Database::BeginTransaction() {
  return std::unique_ptr<Transaction>(new Transaction(this));
}

Transaction::~Transaction() {
  if (!finished_) {
    EDADB_IGNORE_STATUS(Rollback(),
                        "destructor abandon; rollback only mutates in-memory "
                        "txn state and recovery discards unlogged writes");
  }
}

Result<RowId> Transaction::Insert(const std::string& table, Record record) {
  if (finished_) return Status::FailedPrecondition("transaction finished");
  EDADB_ASSIGN_OR_RETURN(Database::PendingOp op,
                         db_->PrepareInsert(table, std::move(record)));
  const RowId row_id = op.row_id;
  ops_.push_back(std::move(op));
  return row_id;
}

Status Transaction::UpdateRow(const std::string& table, RowId row_id,
                              Record record) {
  if (finished_) return Status::FailedPrecondition("transaction finished");
  EDADB_ASSIGN_OR_RETURN(Database::PendingOp op,
                         db_->PrepareUpdate(table, row_id, std::move(record)));
  ops_.push_back(std::move(op));
  return Status::OK();
}

Status Transaction::DeleteRow(const std::string& table, RowId row_id) {
  if (finished_) return Status::FailedPrecondition("transaction finished");
  EDADB_ASSIGN_OR_RETURN(Database::PendingOp op,
                         db_->PrepareDelete(table, row_id));
  ops_.push_back(std::move(op));
  return Status::OK();
}

Status Transaction::Commit() {
  if (finished_) return Status::FailedPrecondition("transaction finished");
  finished_ = true;
  const Status committed = db_->CommitOps(std::move(ops_));
  if (CommitApplied(committed)) {
    for (const std::function<void()>& hook : on_applied_) hook();
  }
  on_applied_.clear();
  return committed;
}

Status Transaction::Rollback() {
  if (finished_) return Status::FailedPrecondition("transaction finished");
  finished_ = true;
  ops_.clear();
  on_applied_.clear();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Queries

Result<Record> Database::GetRow(const std::string& table,
                                RowId row_id) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("table '" + table + "'");
  return it->second->GetRow(row_id);
}

Result<size_t> Database::CountRows(const std::string& table) const {
  std::shared_lock lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("table '" + table + "'");
  return it->second->num_rows();
}

// ---------------------------------------------------------------------------
// Trigger admin

Status Database::CreateTrigger(TriggerDef def) {
  std::unique_lock lock(mu_);
  if (def.name.empty()) {
    return Status::InvalidArgument("trigger needs a name");
  }
  if (triggers_.count(def.name) > 0) {
    return Status::AlreadyExists("trigger '" + def.name + "' already exists");
  }
  if (tables_.count(def.table) == 0) {
    return Status::NotFound("table '" + def.table + "'");
  }
  if ((def.ops & (kDmlInsert | kDmlUpdate | kDmlDelete)) == 0) {
    return Status::InvalidArgument("trigger subscribes to no operations");
  }
  std::string name = def.name;
  const std::string table = def.table;
  triggers_.emplace(std::move(name),
                    std::make_shared<const TriggerDef>(std::move(def)));
  RefreshTriggerMaskLocked(table);
  return Status::OK();
}

Status Database::DropTrigger(const std::string& name) {
  std::unique_lock lock(mu_);
  auto it = triggers_.find(name);
  if (it == triggers_.end()) {
    return Status::NotFound("trigger '" + name + "'");
  }
  const std::string table = it->second->table;
  triggers_.erase(it);
  RefreshTriggerMaskLocked(table);
  return Status::OK();
}

Status Database::SetTriggerEnabled(const std::string& name, bool enabled) {
  std::unique_lock lock(mu_);
  auto it = triggers_.find(name);
  if (it == triggers_.end()) {
    return Status::NotFound("trigger '" + name + "'");
  }
  // Swap in a modified copy: the old def may be mid-fire in a snapshot.
  auto updated = std::make_shared<TriggerDef>(*it->second);
  updated->enabled = enabled;
  it->second = std::move(updated);
  RefreshTriggerMaskLocked(it->second->table);
  return Status::OK();
}

void Database::RefreshTriggerMaskLocked(const std::string& table) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return;
  uint8_t mask = 0;
  for (const auto& [name, def] : triggers_) {
    if (def->enabled && def->table == table) {
      mask |= TriggerMaskBit(def->timing, def->ops);
    }
  }
  it->second->set_trigger_mask(mask);
}

std::vector<std::string> Database::ListTriggers() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> names;
  names.reserve(triggers_.size());
  for (const auto& [name, def] : triggers_) names.push_back(name);
  return names;
}

// ---------------------------------------------------------------------------
// Checkpoint

Status Database::Checkpoint(Lsn retain_lsn) {
  std::unique_lock lock(mu_);
  Snapshot snap;
  snap.next_table_id = next_table_id_;
  snap.next_txn_id = next_txn_id_;
  for (const auto& [name, table] : tables_) {
    TableSnapshot ts;
    ts.id = table->id();
    ts.name = name;
    ts.fields = table->schema()->fields();
    ts.next_row_id = table->heap().next_row_id();
    ts.indexes = table->index_defs();
    table->heap().Scan([&](RowId row_id, const std::string& bytes) {
      ts.rows.emplace_back(row_id, bytes);
      return true;
    });
    snap.tables.push_back(std::move(ts));
  }
  const Lsn checkpoint_lsn = wal_->next_lsn();
  const std::string snapshot_file =
      StringPrintf("snapshot-%06" PRIu64 ".ckpt", ++checkpoint_seq_);
  FAILPOINT("db.checkpoint.before_snapshot");
  EDADB_RETURN_IF_ERROR(WriteStringToFile(
      options_.dir + "/" + snapshot_file, EncodeSnapshot(snap),
      /*sync=*/true));

  // Snapshot written but CHECKPOINT meta not yet switched: a crash here
  // must leave recovery on the previous snapshot + full WAL replay.
  FAILPOINT("db.checkpoint.before_meta");
  CheckpointMeta meta;
  meta.snapshot_file = snapshot_file;
  meta.replay_from_lsn = checkpoint_lsn;
  EDADB_RETURN_IF_ERROR(WriteStringToFile(
      options_.dir + "/" + kCheckpointFileName, EncodeCheckpointMeta(meta),
      /*sync=*/true));

  // Note the checkpoint in the journal, then prune old segments up to
  // the reader-safe point.
  LogRecord rec;
  rec.type = LogRecordType::kCheckpoint;
  rec.checkpoint_lsn = checkpoint_lsn;
  rec.snapshot_file = snapshot_file;
  EDADB_RETURN_IF_ERROR(
      wal_->Append(static_cast<uint8_t>(rec.type), rec.EncodePayload())
          .status());
  EDADB_RETURN_IF_ERROR(wal_->Sync());
  return wal_->TruncateBefore(std::min(retain_lsn, checkpoint_lsn));
}

Status Database::SyncWal() { return wal_->Sync(); }

Lsn Database::wal_end_lsn() const {
  std::shared_lock lock(mu_);
  return wal_->next_lsn();
}

std::string Database::wal_dir() const {
  return options_.wal_dir.empty() ? options_.dir + "/wal" : options_.wal_dir;
}

}  // namespace edadb
