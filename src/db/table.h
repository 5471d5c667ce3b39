#ifndef EDADB_DB_TABLE_H_
#define EDADB_DB_TABLE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "storage/btree.h"
#include "storage/heap.h"
#include "storage/log_record.h"
#include "value/record.h"
#include "value/schema.h"

namespace edadb {

/// One secondary index over a single column.
struct IndexDef {
  std::string column;
  bool unique = false;
};

/// A table: schema + heap + secondary indexes. Tables do not write the
/// WAL themselves — the owning Database logs first and then calls the
/// Apply* methods, which are also what recovery replays. Thread-
/// compatible; the Database's lock serializes access.
class Table {
 public:
  Table(TableId id, std::string name, SchemaPtr schema);

  TableId id() const { return id_; }
  const std::string& name() const { return name_; }
  const SchemaPtr& schema() const { return schema_; }
  size_t num_rows() const { return heap_.size(); }

  /// Registers and backfills an index on `column`.
  EDADB_NODISCARD Status CreateIndex(const IndexDef& def);
  /// Removes the index on `column` if present (used to roll back a
  /// CreateIndex whose WAL record failed to persist).
  void DropIndex(const std::string& column);
  bool HasIndex(const std::string& column) const;
  const BTreeIndex* GetIndex(const std::string& column) const;
  std::vector<IndexDef> index_defs() const;

  // Physical mutations (post-WAL apply path and recovery replay).
  // `record` passed CheckRecord when its commit was validated; `bytes`
  // is its EncodeRow form, which the heap keeps as is, so a commit
  // encodes each row once for both the WAL and the heap. Old rows are
  // decoded only to maintain indexes. ApplyInsert assigns the id when
  // `row_id` is 0.
  EDADB_NODISCARD Result<RowId> ApplyInsert(RowId row_id, const Record& record,
                                            std::string bytes);
  EDADB_NODISCARD Status ApplyUpdate(RowId row_id, const Record& record,
                                     std::string bytes);
  EDADB_NODISCARD Status ApplyDelete(RowId row_id);

  /// Decoded row by id; NotFound when absent or deleted.
  EDADB_NODISCARD Result<Record> GetRow(RowId row_id) const;

  /// Visits all rows in row-id order; return false to stop.
  void ScanRows(
      const std::function<bool(RowId, const Record&)>& fn) const;

  /// Raw heap access for checkpointing.
  const TableHeap& heap() const { return heap_; }
  TableHeap* mutable_heap() { return &heap_; }

  /// Validates a record against the schema (arity, types, NOT NULL).
  EDADB_NODISCARD Status CheckRecord(const Record& record) const;

  /// Which (timing, op) pairs have an enabled trigger on this table, as
  /// TriggerMaskBit bits (db/trigger.h). The Database keeps it current
  /// so the commit path skips trigger work for tables without any.
  uint8_t trigger_mask() const { return trigger_mask_; }
  void set_trigger_mask(uint8_t mask) { trigger_mask_ = mask; }

 private:
  /// Index maintenance around heap mutations.
  EDADB_NODISCARD Status IndexInsert(RowId row_id, const Record& record);
  void IndexErase(RowId row_id, const Record& record);

  TableId id_;
  std::string name_;
  SchemaPtr schema_;
  TableHeap heap_;
  std::map<std::string, std::unique_ptr<BTreeIndex>> indexes_;
  uint8_t trigger_mask_ = 0;
};

}  // namespace edadb

#endif  // EDADB_DB_TABLE_H_
