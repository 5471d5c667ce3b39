#ifndef EDADB_DB_DATABASE_H_
#define EDADB_DB_DATABASE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/clock.h"
#include "common/result.h"
#include "db/query.h"
#include "db/table.h"
#include "db/trigger.h"
#include "expr/predicate.h"
#include "storage/log_record.h"
#include "storage/wal.h"

namespace edadb {

class Transaction;

/// True when a commit's ops reached the tables: it succeeded, or only
/// its WAL sync failed (DurabilityUnknown). Retrying such a commit
/// would apply it twice.
inline bool CommitApplied(const Status& commit) {
  return commit.ok() || commit.IsDurabilityUnknown();
}

struct DatabaseOptions {
  std::string dir;
  WalSyncPolicy wal_sync_policy = WalSyncPolicy::kOnCommit;
  uint64_t wal_segment_size_bytes = 16 * 1024 * 1024;
  /// Time source for trigger timestamps and NOW(); defaults to the
  /// system clock.
  Clock* clock = nullptr;
  /// Directory for WAL segments; empty means "<dir>/wal". Sharded
  /// deployments point each shard's database at its own stream (e.g.
  /// "<data_dir>/wal/shard-3") so group commits never serialize across
  /// shards.
  std::string wal_dir;
};

/// The embedded database: catalog + tables + WAL + triggers + query
/// execution. This is the substrate the tutorial assumes — the
/// "commercial database with its complementary software stack" — on
/// which event capture (triggers/journal/queries), message staging and
/// rules evaluation are built.
///
/// Concurrency model: a single writer lock serializes DML and DDL;
/// queries take a shared lock. Transactions buffer their operations and
/// atomically log + apply at Commit() (redo-only logging). Readers never
/// see uncommitted data; a transaction does not read its own writes.
///
/// Durability: every commit appends Begin/op.../Commit records to the
/// WAL before touching memory, with fdatasync per
/// DatabaseOptions::wal_sync_policy. Open() recovers by loading the
/// newest checkpoint snapshot and replaying committed transactions from
/// the WAL.
class Database {
 public:
  /// Opens (and recovers) a database rooted at options.dir.
  EDADB_NODISCARD static Result<std::unique_ptr<Database>> Open(DatabaseOptions options);

  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // -------------------------------------------------------------------
  // DDL

  EDADB_NODISCARD Result<Table*> CreateTable(const std::string& name, SchemaPtr schema);
  EDADB_NODISCARD Status DropTable(const std::string& name);
  EDADB_NODISCARD Result<Table*> GetTable(const std::string& name);
  std::vector<std::string> ListTables() const;
  EDADB_NODISCARD Status CreateIndex(const std::string& table, const std::string& column,
                     bool unique);

  // -------------------------------------------------------------------
  // Auto-commit DML (each call is its own transaction)

  /// Inserts a record; fires BEFORE/AFTER INSERT triggers.
  EDADB_NODISCARD Result<RowId> Insert(const std::string& table, Record record);

  /// Replaces the row at `row_id`.
  EDADB_NODISCARD Status UpdateRow(const std::string& table, RowId row_id, Record record);

  /// Deletes the row at `row_id`.
  EDADB_NODISCARD Status DeleteRow(const std::string& table, RowId row_id);

  /// Updates all rows matching `where` by calling `mutator` on each;
  /// returns the number updated. `where` selects rows as a SELECT's
  /// WHERE does (see Execute), and the statement is one transaction: a
  /// WHERE or mutator error, or a BEFORE-trigger veto, leaves the table
  /// as it was. A matched row deleted before its update is staged is
  /// skipped; one deleted after that fails the commit with NotFound,
  /// and nothing applies.
  EDADB_NODISCARD Result<size_t> UpdateWhere(const std::string& table,
                             const Predicate& where,
                             const std::function<Status(Record*)>& mutator);

  /// Deletes all rows matching `where` in one transaction, as
  /// UpdateWhere updates them; returns the number deleted.
  EDADB_NODISCARD Result<size_t> DeleteWhere(const std::string& table,
                             const Predicate& where);

  // -------------------------------------------------------------------
  // Transactions

  /// Starts a buffered transaction. The returned object must outlive its
  /// Commit()/Rollback() call and must not outlive this Database.
  std::unique_ptr<Transaction> BeginTransaction();

  // -------------------------------------------------------------------
  // Queries

  /// Runs `query`. WHERE columns must exist in the table (NotFound
  /// otherwise), NOW() reads the database clock, and an evaluation
  /// error on a row the access path reads fails the query.
  EDADB_NODISCARD Result<QueryResult> Execute(const Query& query) const;

  /// One-line description of the access path Execute would use, e.g.
  /// "index scan on orders.amount [3, 7)" or "full scan of orders
  /// (1200 rows)" — the observability hook behind the planner.
  EDADB_NODISCARD Result<std::string> Explain(const Query& query) const;

  /// Point read.
  EDADB_NODISCARD Result<Record> GetRow(const std::string& table, RowId row_id) const;

  /// Number of rows in `table`.
  EDADB_NODISCARD Result<size_t> CountRows(const std::string& table) const;

  // -------------------------------------------------------------------
  // Triggers (§2.2.a.i: database as message source)

  EDADB_NODISCARD Status CreateTrigger(TriggerDef def);
  EDADB_NODISCARD Status DropTrigger(const std::string& name);
  EDADB_NODISCARD Status SetTriggerEnabled(const std::string& name, bool enabled);
  std::vector<std::string> ListTriggers() const;

  // -------------------------------------------------------------------
  // Checkpoint / journal

  /// Writes a snapshot of all tables and records a checkpoint; recovery
  /// replays the WAL only from the checkpoint LSN. Old WAL segments at
  /// or before `retain_lsn` (often a journal miner's watermark) are
  /// deleted.
  EDADB_NODISCARD Status Checkpoint(Lsn retain_lsn);

  /// Makes every applied commit durable, one whose own sync failed
  /// (DurabilityUnknown) included. A no-op under WalSyncPolicy::kNever.
  EDADB_NODISCARD Status SyncWal();

  /// Current end of the WAL.
  Lsn wal_end_lsn() const;

  /// Directory containing WAL segments (for journal miners).
  std::string wal_dir() const;

  const DatabaseOptions& options() const { return options_; }
  Clock* clock() const { return clock_; }

  /// Looks up a table by id (journal miners map change records back to
  /// schemas). Returns nullptr when unknown.
  const Table* GetTableById(TableId id) const;

 private:
  friend class Transaction;

  explicit Database(DatabaseOptions options);

  /// One buffered operation inside a transaction.
  struct PendingOp {
    LogRecordType type;
    TableId table_id = 0;
    std::string table_name;
    RowId row_id = 0;
    Record new_record;  // kInsert/kUpdate
  };

  /// Op preparation shared by auto-commit DML and Transaction: validates
  /// against the schema, fires BEFORE triggers (which may rewrite the
  /// record or veto), and allocates the row id for inserts.
  EDADB_NODISCARD Result<PendingOp> PrepareInsert(const std::string& table, Record record);
  EDADB_NODISCARD Result<PendingOp> PrepareUpdate(const std::string& table, RowId row_id,
                                  Record record);
  EDADB_NODISCARD Result<PendingOp> PrepareDelete(const std::string& table, RowId row_id);

  using RowVisitor = std::function<void(RowId, const Record&)>;

  /// The one row finder, behind Execute, DeleteWhere and UpdateWhere:
  /// under a shared mu_, hands `visit` each row of `table` that `where`
  /// (null: every row) selects, over the access path Explain reports.
  /// WHERE columns are checked before any row is read, NOW() reads
  /// clock_, and an evaluation error fails the call. Returns the
  /// table's schema.
  EDADB_NODISCARD Result<SchemaPtr> FindRows(const std::string& table,
                                             const ExprPtr& where,
                                             const RowVisitor& visit) const;

  /// Shared by PrepareUpdate/PrepareDelete under a shared lock: the
  /// table holding `row_id` (NotFound when either is missing). Sets
  /// `*fire_before` when an enabled BEFORE trigger exists for `op`, and
  /// only then decodes the old row into `*old_record`.
  EDADB_NODISCARD Result<const Table*> FindRowLocked(const std::string& table,
                                                     RowId row_id, DmlOp op,
                                                     Record* old_record,
                                                     bool* fire_before) const;

  EDADB_NODISCARD Status Recover();
  EDADB_NODISCARD Status LoadSnapshot(const std::string& path);
  EDADB_NODISCARD Status ReplayWal(Lsn from_lsn);
  EDADB_NODISCARD Status ApplyLogRecord(LogRecord rec);

  /// Fires matching triggers for `event`; BEFORE trigger errors abort
  /// the operation.
  EDADB_NODISCARD Status FireTriggers(TriggerTiming timing, TriggerEvent* event);

  /// Commit path shared by Transaction and auto-commit DML. Caller does
  /// NOT hold mu_. DurabilityUnknown means the ops were applied but the
  /// WAL sync failed; any other error, bar an Internal apply failure,
  /// means nothing was applied.
  EDADB_NODISCARD Status CommitOps(std::vector<PendingOp> ops);

  /// Validates ops under mu_ before logging (row existence, uniques).
  EDADB_NODISCARD Status ValidateOps(const std::vector<PendingOp>& ops);

  EDADB_NODISCARD Result<Table*> GetTableLocked(const std::string& name);

  /// Recomputes `table`'s trigger mask from triggers_ (caller holds mu_
  /// exclusively).
  void RefreshTriggerMaskLocked(const std::string& table);

  DatabaseOptions options_;
  Clock* clock_;

  mutable std::shared_mutex mu_;
  std::unique_ptr<WalWriter> wal_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::map<TableId, Table*> tables_by_id_;
  TableId next_table_id_ = 1;
  TxnId next_txn_id_ = 1;
  /// shared_ptr so FireTriggers can snapshot the defs it fires: a
  /// concurrent DropTrigger/DropTable frees only the map's reference.
  std::map<std::string, std::shared_ptr<const TriggerDef>> triggers_;
  uint64_t checkpoint_seq_ = 0;
  bool recovering_ = false;
};

/// A buffered transaction. Operations are validated eagerly (BEFORE
/// triggers fire at call time and may rewrite the row) but logged and
/// applied atomically at Commit(); AFTER triggers fire post-commit, then
/// the OnApplied hooks run. Not thread-safe; use from one thread.
class Transaction {
 public:
  ~Transaction();

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  EDADB_NODISCARD Result<RowId> Insert(const std::string& table, Record record);
  EDADB_NODISCARD Status UpdateRow(const std::string& table, RowId row_id, Record record);
  EDADB_NODISCARD Status DeleteRow(const std::string& table, RowId row_id);

  /// Logs and applies all buffered operations. After Commit the object
  /// is finished; further operations fail. DurabilityUnknown: applied,
  /// but the WAL sync failed (not a rollback).
  EDADB_NODISCARD Status Commit();

  /// Discards buffered operations and OnApplied hooks.
  EDADB_NODISCARD Status Rollback();

  /// Runs `hook` on the committing thread once Commit() applied this
  /// transaction (CommitApplied) and its AFTER triggers fired. A
  /// rollback, or a commit that applied nothing, drops it. What `hook`
  /// captures must outlive the transaction.
  void OnApplied(std::function<void()> hook) {
    on_applied_.push_back(std::move(hook));
  }

  size_t num_pending() const { return ops_.size(); }

 private:
  friend class Database;
  explicit Transaction(Database* db) : db_(db) {}

  Database* db_;
  std::vector<Database::PendingOp> ops_;
  std::vector<std::function<void()>> on_applied_;
  bool finished_ = false;
};

}  // namespace edadb

#endif  // EDADB_DB_DATABASE_H_
