#include "storage/log_record.h"

#include "common/coding.h"

namespace edadb {

std::string_view LogRecordTypeToString(LogRecordType type) {
  switch (type) {
    case LogRecordType::kBeginTxn: return "BEGIN";
    case LogRecordType::kCommitTxn: return "COMMIT";
    case LogRecordType::kAbortTxn: return "ABORT";
    case LogRecordType::kInsert: return "INSERT";
    case LogRecordType::kUpdate: return "UPDATE";
    case LogRecordType::kDelete: return "DELETE";
    case LogRecordType::kCreateTable: return "CREATE_TABLE";
    case LogRecordType::kDropTable: return "DROP_TABLE";
    case LogRecordType::kCheckpoint: return "CHECKPOINT";
    case LogRecordType::kCreateIndex: return "CREATE_INDEX";
  }
  return "?";
}

void EncodeSchemaFields(const std::vector<Field>& fields, std::string* dst) {
  PutVarint32(dst, static_cast<uint32_t>(fields.size()));
  for (const Field& f : fields) {
    PutLengthPrefixed(dst, f.name);
    dst->push_back(static_cast<char>(f.type));
    dst->push_back(f.nullable ? 1 : 0);
  }
}

Result<std::vector<Field>> DecodeSchemaFields(std::string_view* input) {
  uint32_t count;
  if (!GetVarint32(input, &count)) {
    return Status::Corruption("schema: truncated field count");
  }
  std::vector<Field> fields;
  fields.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string_view name;
    if (!GetLengthPrefixed(input, &name) || input->size() < 2) {
      return Status::Corruption("schema: truncated field");
    }
    const auto type = static_cast<ValueType>((*input)[0]);
    const bool nullable = (*input)[1] != 0;
    input->remove_prefix(2);
    fields.emplace_back(std::string(name), type, nullable);
  }
  return fields;
}

void EncodeDmlPayload(LogRecordType type, TxnId txn_id, TableId table_id,
                      RowId row_id, std::string_view old_row,
                      std::string_view new_row, std::string* dst) {
  PutVarint64(dst, txn_id);
  PutVarint32(dst, table_id);
  PutVarint64(dst, row_id);
  if (type != LogRecordType::kInsert) PutLengthPrefixed(dst, old_row);
  if (type != LogRecordType::kDelete) PutLengthPrefixed(dst, new_row);
}

std::string LogRecord::EncodePayload() const {
  std::string out;
  switch (type) {
    case LogRecordType::kBeginTxn:
    case LogRecordType::kCommitTxn:
    case LogRecordType::kAbortTxn:
      PutVarint64(&out, txn_id);
      break;
    case LogRecordType::kInsert:
    case LogRecordType::kUpdate:
    case LogRecordType::kDelete:
      EncodeDmlPayload(type, txn_id, table_id, row_id, old_row, new_row, &out);
      break;
    case LogRecordType::kCreateTable:
      PutVarint32(&out, table_id);
      PutLengthPrefixed(&out, table_name);
      EncodeSchemaFields(schema_fields, &out);
      break;
    case LogRecordType::kDropTable:
      PutVarint32(&out, table_id);
      PutLengthPrefixed(&out, table_name);
      break;
    case LogRecordType::kCheckpoint:
      PutVarint64(&out, checkpoint_lsn);
      PutLengthPrefixed(&out, snapshot_file);
      break;
    case LogRecordType::kCreateIndex:
      PutVarint32(&out, table_id);
      PutLengthPrefixed(&out, index_column);
      out.push_back(index_unique ? 1 : 0);
      break;
  }
  return out;
}

Result<LogRecord> LogRecord::Decode(uint8_t type, std::string_view payload) {
  LogRecord rec;
  rec.type = static_cast<LogRecordType>(type);
  auto corrupt = [&](const char* what) {
    return Status::Corruption(std::string("log record: truncated ") + what);
  };
  std::string_view in = payload;
  std::string_view piece;
  switch (rec.type) {
    case LogRecordType::kBeginTxn:
    case LogRecordType::kCommitTxn:
    case LogRecordType::kAbortTxn:
      if (!GetVarint64(&in, &rec.txn_id)) return corrupt("txn id");
      break;
    case LogRecordType::kInsert:
      if (!GetVarint64(&in, &rec.txn_id) ||
          !GetVarint32(&in, &rec.table_id) ||
          !GetVarint64(&in, &rec.row_id) || !GetLengthPrefixed(&in, &piece)) {
        return corrupt("insert");
      }
      rec.new_row = std::string(piece);
      break;
    case LogRecordType::kUpdate: {
      std::string_view old_piece, new_piece;
      if (!GetVarint64(&in, &rec.txn_id) ||
          !GetVarint32(&in, &rec.table_id) ||
          !GetVarint64(&in, &rec.row_id) ||
          !GetLengthPrefixed(&in, &old_piece) ||
          !GetLengthPrefixed(&in, &new_piece)) {
        return corrupt("update");
      }
      rec.old_row = std::string(old_piece);
      rec.new_row = std::string(new_piece);
      break;
    }
    case LogRecordType::kDelete:
      if (!GetVarint64(&in, &rec.txn_id) ||
          !GetVarint32(&in, &rec.table_id) ||
          !GetVarint64(&in, &rec.row_id) || !GetLengthPrefixed(&in, &piece)) {
        return corrupt("delete");
      }
      rec.old_row = std::string(piece);
      break;
    case LogRecordType::kCreateTable: {
      if (!GetVarint32(&in, &rec.table_id) || !GetLengthPrefixed(&in, &piece)) {
        return corrupt("create table");
      }
      rec.table_name = std::string(piece);
      EDADB_ASSIGN_OR_RETURN(rec.schema_fields, DecodeSchemaFields(&in));
      break;
    }
    case LogRecordType::kDropTable:
      if (!GetVarint32(&in, &rec.table_id) || !GetLengthPrefixed(&in, &piece)) {
        return corrupt("drop table");
      }
      rec.table_name = std::string(piece);
      break;
    case LogRecordType::kCheckpoint:
      if (!GetVarint64(&in, &rec.checkpoint_lsn) ||
          !GetLengthPrefixed(&in, &piece)) {
        return corrupt("checkpoint");
      }
      rec.snapshot_file = std::string(piece);
      break;
    case LogRecordType::kCreateIndex:
      if (!GetVarint32(&in, &rec.table_id) ||
          !GetLengthPrefixed(&in, &piece) || in.size() < 1) {
        return corrupt("create index");
      }
      rec.index_column = std::string(piece);
      rec.index_unique = in[0] != 0;
      in.remove_prefix(1);
      break;
    default:
      return Status::Corruption("unknown log record type " +
                                std::to_string(type));
  }
  if (!in.empty()) return corrupt("trailing bytes");
  return rec;
}

}  // namespace edadb
