#ifndef EDADB_DB_TRIGGER_H_
#define EDADB_DB_TRIGGER_H_

#include <functional>
#include <optional>
#include <string>

#include "common/clock.h"
#include "common/status.h"
#include "expr/predicate.h"
#include "storage/log_record.h"
#include "value/record.h"

namespace edadb {

/// When a trigger fires relative to the data change. BEFORE triggers may
/// veto (return a non-OK Status) or rewrite the new row; AFTER triggers
/// observe committed changes, including one whose WAL sync failed
/// (DurabilityUnknown) — they are the tutorial's §2.2.a.i "capturing
/// events using database triggers" hook.
enum class TriggerTiming { kBefore, kAfter };

/// DML operations a trigger subscribes to; combinable as a bitmask.
enum DmlOp : uint32_t {
  kDmlInsert = 1u << 0,
  kDmlUpdate = 1u << 1,
  kDmlDelete = 1u << 2,
};

std::string_view DmlOpToString(DmlOp op);

/// Bit for (timing, op) in a table's trigger mask (Table::trigger_mask):
/// BEFORE ops in bits 0-2, AFTER ops in bits 3-5.
constexpr uint8_t TriggerMaskBit(TriggerTiming timing, uint32_t ops) {
  return static_cast<uint8_t>((ops & 7u)
                              << (timing == TriggerTiming::kAfter ? 3 : 0));
}

/// What a firing trigger sees. `new_row` is mutable for BEFORE
/// INSERT/UPDATE triggers; `old_row` is set for UPDATE/DELETE.
struct TriggerEvent {
  DmlOp op = kDmlInsert;
  std::string table_name;
  TableId table_id = 0;
  RowId row_id = 0;
  TxnId txn_id = kInvalidTxnId;
  TimestampMicros timestamp = 0;
  const Record* old_row = nullptr;
  Record* new_row = nullptr;
};

using TriggerAction = std::function<Status(const TriggerEvent&)>;

/// A trigger definition. The WHEN predicate is an expression-as-data
/// evaluated against a combined view of the rows: plain column names
/// resolve to the new row (old row for DELETE), and the prefixed forms
/// `new.col` / `old.col` address each side explicitly.
struct TriggerDef {
  std::string name;
  std::string table;
  TriggerTiming timing = TriggerTiming::kAfter;
  uint32_t ops = kDmlInsert | kDmlUpdate | kDmlDelete;
  std::optional<Predicate> when;  // Absent = always fire.
  TriggerAction action;
  bool enabled = true;
};

/// RowAccessor exposing a trigger event's old/new rows to the WHEN
/// predicate.
class TriggerRowView : public RowAccessor {
 public:
  explicit TriggerRowView(const TriggerEvent& event) : event_(event) {}

  std::optional<Value> GetAttribute(std::string_view name) const override {
    constexpr std::string_view kNewPrefix = "new.";
    constexpr std::string_view kOldPrefix = "old.";
    if (name.substr(0, kNewPrefix.size()) == kNewPrefix) {
      return FromRow(event_.new_row, name.substr(kNewPrefix.size()));
    }
    if (name.substr(0, kOldPrefix.size()) == kOldPrefix) {
      return FromRow(event_.old_row, name.substr(kOldPrefix.size()));
    }
    // Unprefixed: the row that "is" the event.
    const Record* primary =
        event_.op == kDmlDelete ? event_.old_row : event_.new_row;
    return FromRow(primary, name);
  }

 private:
  static std::optional<Value> FromRow(const Record* row,
                                      std::string_view name) {
    if (row == nullptr) return std::nullopt;
    return row->GetAttribute(name);
  }

  const TriggerEvent& event_;
};

}  // namespace edadb

#endif  // EDADB_DB_TRIGGER_H_
