#ifndef EDADB_STORAGE_LOG_RECORD_H_
#define EDADB_STORAGE_LOG_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "value/schema.h"

namespace edadb {

using TxnId = uint64_t;
using TableId = uint32_t;
using RowId = uint64_t;

constexpr TxnId kInvalidTxnId = 0;

/// WAL record types written by the database layer. These are the
/// "journal" the tutorial's §2.2.a.ii mines for events.
enum class LogRecordType : uint8_t {
  kBeginTxn = 1,
  kCommitTxn = 2,
  kAbortTxn = 3,
  kInsert = 4,
  kUpdate = 5,
  kDelete = 6,
  kCreateTable = 7,
  kDropTable = 8,
  kCheckpoint = 9,
  kCreateIndex = 10,
};

std::string_view LogRecordTypeToString(LogRecordType type);

/// A decoded WAL record. Which fields are meaningful depends on `type`:
///   Begin/Commit/Abort: txn_id
///   Insert:             txn_id, table_id, row_id, new_row
///   Update:             txn_id, table_id, row_id, old_row, new_row
///   Delete:             txn_id, table_id, row_id, old_row
///   CreateTable:        table_id, table_name, schema_fields
///   DropTable:          table_id, table_name
///   CreateIndex:        table_id, index_column, index_unique
///   Checkpoint:         checkpoint_lsn (start LSN for replay),
///                       snapshot_file
struct LogRecord {
  LogRecordType type = LogRecordType::kBeginTxn;
  TxnId txn_id = kInvalidTxnId;
  TableId table_id = 0;
  RowId row_id = 0;
  std::string old_row;  // Encoded with EncodeRow.
  std::string new_row;
  std::string table_name;
  std::vector<Field> schema_fields;
  uint64_t checkpoint_lsn = 0;
  std::string snapshot_file;
  std::string index_column;
  bool index_unique = false;

  /// Serializes the payload (the WAL frame's type byte carries `type`).
  std::string EncodePayload() const;

  /// Inverse of EncodePayload.
  EDADB_NODISCARD static Result<LogRecord> Decode(uint8_t type, std::string_view payload);
};

/// Appends the payload of an Insert/Update/Delete record to `dst` —
/// the format LogRecord::EncodePayload writes — straight from borrowed
/// row bytes, so the commit path copies each encoded row once. Which
/// of `old_row`/`new_row` is written depends on `type` (see LogRecord).
void EncodeDmlPayload(LogRecordType type, TxnId txn_id, TableId table_id,
                      RowId row_id, std::string_view old_row,
                      std::string_view new_row, std::string* dst);

/// Schema field list codec shared with checkpoints.
void EncodeSchemaFields(const std::vector<Field>& fields, std::string* dst);
EDADB_NODISCARD Result<std::vector<Field>> DecodeSchemaFields(std::string_view* input);

}  // namespace edadb

#endif  // EDADB_STORAGE_LOG_RECORD_H_
