#include "db/table.h"

#include "value/row_codec.h"

namespace edadb {

Table::Table(TableId id, std::string name, SchemaPtr schema)
    : id_(id), name_(std::move(name)), schema_(std::move(schema)) {}

Status Table::CreateIndex(const IndexDef& def) {
  if (schema_->FieldIndex(def.column) < 0) {
    return Status::NotFound("no column named '" + def.column + "' in table " +
                            name_);
  }
  if (indexes_.count(def.column) > 0) {
    return Status::AlreadyExists("index on '" + def.column +
                                 "' already exists");
  }
  auto index = std::make_unique<BTreeIndex>(def.unique);
  // Backfill from existing rows.
  Status status;
  ScanRows([&](RowId row_id, const Record& record) {
    auto v = record.Get(def.column);
    if (v.ok() && !v->is_null()) {
      status = index->Insert(*v, row_id);
      if (!status.ok()) return false;
    }
    return true;
  });
  EDADB_RETURN_IF_ERROR(status);
  indexes_.emplace(def.column, std::move(index));
  return Status::OK();
}

void Table::DropIndex(const std::string& column) { indexes_.erase(column); }

bool Table::HasIndex(const std::string& column) const {
  return indexes_.count(column) > 0;
}

const BTreeIndex* Table::GetIndex(const std::string& column) const {
  auto it = indexes_.find(column);
  return it == indexes_.end() ? nullptr : it->second.get();
}

std::vector<IndexDef> Table::index_defs() const {
  std::vector<IndexDef> defs;
  defs.reserve(indexes_.size());
  for (const auto& [column, index] : indexes_) {
    defs.push_back({column, index->unique()});
  }
  return defs;
}

Status Table::CheckRecord(const Record& record) const {
  if (record.schema() != schema_ &&
      (record.schema() == nullptr || !(*record.schema() == *schema_))) {
    // Allow records built against an identical schema instance.
    if (record.schema() == nullptr ||
        record.num_values() != schema_->num_fields()) {
      return Status::InvalidArgument("record schema does not match table " +
                                     name_);
    }
  }
  return record.Validate();
}

Status Table::IndexInsert(RowId row_id, const Record& record) {
  for (auto& [column, index] : indexes_) {
    auto v = record.Get(column);
    if (v.ok() && !v->is_null()) {
      EDADB_RETURN_IF_ERROR(index->Insert(*v, row_id));
    }
  }
  return Status::OK();
}

void Table::IndexErase(RowId row_id, const Record& record) {
  for (auto& [column, index] : indexes_) {
    auto v = record.Get(column);
    if (v.ok() && !v->is_null()) {
      index->Erase(*v, row_id);
    }
  }
}

Result<RowId> Table::ApplyInsert(RowId row_id, const Record& record,
                                 std::string bytes) {
  // Enforce unique indexes before touching the heap.
  for (auto& [column, index] : indexes_) {
    if (!index->unique()) continue;
    auto v = record.Get(column);
    if (v.ok() && !v->is_null() && !index->Lookup(*v).empty()) {
      return Status::AlreadyExists("unique index violation on '" + column +
                                   "' in table " + name_);
    }
  }
  RowId id = row_id;
  if (id == 0) {
    id = heap_.Insert(std::move(bytes));
  } else {
    EDADB_RETURN_IF_ERROR(heap_.InsertWithId(id, std::move(bytes)));
  }
  EDADB_RETURN_IF_ERROR(IndexInsert(id, record));
  return id;
}

Status Table::ApplyUpdate(RowId row_id, const Record& record,
                          std::string bytes) {
  if (indexes_.empty()) return heap_.Update(row_id, std::move(bytes));
  EDADB_ASSIGN_OR_RETURN(Record old_record, GetRow(row_id));
  // Unique check, excluding this row itself.
  for (auto& [column, index] : indexes_) {
    if (!index->unique()) continue;
    auto v = record.Get(column);
    if (v.ok() && !v->is_null()) {
      for (const RowId other : index->Lookup(*v)) {
        if (other != row_id) {
          return Status::AlreadyExists("unique index violation on '" +
                                       column + "' in table " + name_);
        }
      }
    }
  }
  IndexErase(row_id, old_record);
  EDADB_RETURN_IF_ERROR(heap_.Update(row_id, std::move(bytes)));
  return IndexInsert(row_id, record);
}

Status Table::ApplyDelete(RowId row_id) {
  if (!indexes_.empty()) {
    EDADB_ASSIGN_OR_RETURN(Record old_record, GetRow(row_id));
    IndexErase(row_id, old_record);
  }
  return heap_.Delete(row_id);
}

Result<Record> Table::GetRow(RowId row_id) const {
  const std::string* bytes = heap_.Get(row_id);
  if (bytes == nullptr) {
    return Status::NotFound("row " + std::to_string(row_id) + " in table " +
                            name_);
  }
  return DecodeRow(schema_, *bytes);
}

void Table::ScanRows(
    const std::function<bool(RowId, const Record&)>& fn) const {
  heap_.Scan([&](RowId row_id, const std::string& bytes) {
    auto record = DecodeRow(schema_, bytes);
    if (!record.ok()) return true;  // Skip undecodable rows (corrupt).
    return fn(row_id, *record);
  });
}

}  // namespace edadb
