#include "cq/join.h"

#include "common/metrics.h"

namespace edadb {

// ---------------------------------------------------------------------------
// StreamTableJoin

Result<std::unique_ptr<StreamTableJoin>> StreamTableJoin::Create(
    Database* db, SchemaPtr stream_schema, Options options,
    OutputCallback callback) {
  if (stream_schema == nullptr ||
      stream_schema->FieldIndex(options.stream_key) < 0) {
    return Status::InvalidArgument("stream key '" + options.stream_key +
                                   "' not in stream schema");
  }
  EDADB_ASSIGN_OR_RETURN(Table * table, db->GetTable(options.table));
  if (table->schema()->FieldIndex(options.table_key) < 0) {
    return Status::NotFound("no column '" + options.table_key +
                            "' in table " + options.table);
  }
  auto join = std::unique_ptr<StreamTableJoin>(
      new StreamTableJoin(db, std::move(stream_schema), std::move(options),
                          std::move(callback)));
  // Output schema: stream fields, then table fields (qualified on
  // collision). Table columns are nullable in the output (outer join).
  std::vector<Field> fields = join->stream_schema_->fields();
  for (const Field& field : table->schema()->fields()) {
    std::string name = field.name;
    if (join->stream_schema_->HasField(name)) {
      name = join->options_.table + "." + name;
    }
    fields.emplace_back(std::move(name), field.type, /*nullable=*/true);
  }
  join->output_schema_ = Schema::Make(std::move(fields));
  return join;
}

Record StreamTableJoin::Merge(const Record& event,
                              const Record* table_row) const {
  std::vector<Value> values;
  values.reserve(output_schema_->num_fields());
  for (size_t i = 0; i < event.num_values(); ++i) {
    values.push_back(event.value(i));
  }
  const size_t table_fields =
      output_schema_->num_fields() - event.num_values();
  for (size_t i = 0; i < table_fields; ++i) {
    values.push_back(table_row != nullptr ? table_row->value(i)
                                          : Value::Null());
  }
  return Record(output_schema_, std::move(values));
}

Status StreamTableJoin::Push(const Record& event) {
  EDADB_ASSIGN_OR_RETURN(Value key, event.Get(options_.stream_key));
  std::vector<Record> matches;
  if (!key.is_null()) {
    // SELECT * FROM <table> WHERE <table_key> = <key>: read under the
    // database's lock, through the index on table_key when there is one.
    const Predicate match =
        Predicate::ColumnsEqual({{options_.table_key, std::move(key)}});
    EDADB_ASSIGN_OR_RETURN(
        QueryResult rows,
        db_->Execute(QueryBuilder(options_.table).Where(match.expr()).Build()));
    matches = std::move(rows.rows);
  }

  if (matches.empty()) {
    if (options_.left_outer) {
      ++emitted_;
      callback_(Merge(event, nullptr));
    }
    return Status::OK();
  }
  for (const Record& row : matches) {
    ++emitted_;
    callback_(Merge(event, &row));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// IntervalJoin

namespace {

metrics::Counter* JoinLateDroppedCounter() {
  static metrics::Counter* const c =
      metrics::Registry::Default()->GetCounter("cq.join_late_dropped");
  return c;
}

}  // namespace

IntervalJoin::IntervalJoin(Options options, OutputCallback callback)
    : options_(std::move(options)),
      callback_(std::move(callback)),
      tracker_(options_.consistency == ConsistencyLevel::kFast
                   ? 0
                   : options_.allowed_lateness_micros) {}

TimestampMicros IntervalJoin::EvictionWatermark() const {
  if (options_.consistency == ConsistencyLevel::kFast) {
    return tracker_.frontier();
  }
  // A join has exactly two sides; until both have reported (event or
  // punctuation) the merge would be one-sided and could evict buffers
  // the silent side still needs.
  if (tracker_.num_sources() < 2) return WatermarkTracker::kUnset;
  return tracker_.low_watermark();
}

void IntervalJoin::Evict(Side* side) {
  const TimestampMicros wm = EvictionWatermark();
  if (wm == WatermarkTracker::kUnset) return;
  const TimestampMicros horizon = wm - options_.window_micros;
  // The heap pops the globally oldest buffered entry no matter the
  // arrival order; a multimap erase keeps the per-key buffer exact.
  while (!side->expiry.empty() && side->expiry.top().first < horizon) {
    const auto [ts, key] = side->expiry.top();
    side->expiry.pop();
    auto it = side->by_key.find(key);
    if (it == side->by_key.end()) continue;
    auto entry = it->second.find(ts);
    if (entry == it->second.end()) continue;
    it->second.erase(entry);
    --side->buffered;
    if (it->second.empty()) side->by_key.erase(it);
  }
}

Status IntervalJoin::Push(bool left, const Record& event,
                          TimestampMicros ts) {
  const std::string& key_column =
      left ? options_.left_key : options_.right_key;
  EDADB_ASSIGN_OR_RETURN(Value key, event.Get(key_column));
  tracker_.Observe(left ? "left" : "right", ts);
  Evict(&left_);
  Evict(&right_);
  if (key.is_null()) return Status::OK();  // NULL keys never join.
  std::string key_bytes;
  key.EncodeTo(&key_bytes);

  // Pair with the other side's live buffer: the [ts - window,
  // ts + window] slice of the key's time-sorted entries.
  Side& other = left ? right_ : left_;
  auto it = other.by_key.find(key_bytes);
  if (it != other.by_key.end()) {
    const auto lo = it->second.lower_bound(ts - options_.window_micros);
    const auto hi = it->second.upper_bound(ts + options_.window_micros);
    for (auto candidate = lo; candidate != hi; ++candidate) {
      ++emitted_;
      if (left) {
        callback_(event, candidate->second,
                  std::max(ts, candidate->first));
      } else {
        callback_(candidate->second, event,
                  std::max(ts, candidate->first));
      }
    }
  }
  // Buffer for future arrivals of the other side — unless the event is
  // already behind the eviction horizon (it paired with what survived;
  // buffering it would be popped straight back out).
  const TimestampMicros wm = EvictionWatermark();
  if (wm != WatermarkTracker::kUnset &&
      ts < wm - options_.window_micros) {
    ++late_dropped_;
    JoinLateDroppedCounter()->Add();
    return Status::OK();
  }
  Side& mine = left ? left_ : right_;
  mine.by_key[key_bytes].emplace(ts, event);
  mine.expiry.emplace(ts, key_bytes);
  ++mine.buffered;
  return Status::OK();
}

Status IntervalJoin::PushLeft(const Record& event, TimestampMicros ts) {
  return Push(true, event, ts);
}

Status IntervalJoin::PushRight(const Record& event, TimestampMicros ts) {
  return Push(false, event, ts);
}

void IntervalJoin::PunctuateLeft(TimestampMicros mark) {
  tracker_.Punctuate("left", mark);
  Evict(&left_);
  Evict(&right_);
}

void IntervalJoin::PunctuateRight(TimestampMicros mark) {
  tracker_.Punctuate("right", mark);
  Evict(&left_);
  Evict(&right_);
}

}  // namespace edadb
