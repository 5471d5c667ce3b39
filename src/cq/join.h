#ifndef EDADB_CQ_JOIN_H_
#define EDADB_CQ_JOIN_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/clock.h"
#include "common/result.h"
#include "cq/watermark.h"
#include "db/database.h"
#include "value/record.h"

namespace edadb {

/// Stream-table join (enrichment): each stream event is joined with the
/// current rows of a database table whose `table_key` equals the
/// event's `stream_key` — the standard pattern for decorating events
/// with reference data (sensor → location, account → tier). Each lookup
/// is `SELECT * FROM table WHERE table_key = <event key>` through
/// Database::Execute, so it uses the index on `table_key` when one
/// exists and reads the table under the database's lock.
///
/// Emits one output per matching row; in left-outer mode an event with
/// no match emits once with NULL table columns. Output schema =
/// stream schema ++ table schema (table columns renamed
/// "<table>.<col>" on name collisions).
class StreamTableJoin {
 public:
  using OutputCallback = std::function<void(const Record&)>;

  struct Options {
    std::string stream_key;
    std::string table;
    std::string table_key;
    bool left_outer = false;
  };

  /// Validates the table and builds the output schema. `db` must
  /// outlive the join. The stream schema is fixed per join instance.
  EDADB_NODISCARD static Result<std::unique_ptr<StreamTableJoin>> Create(
      Database* db, SchemaPtr stream_schema, Options options,
      OutputCallback callback);

  /// Joins one event against the table's current contents.
  EDADB_NODISCARD Status Push(const Record& event);

  const SchemaPtr& output_schema() const { return output_schema_; }
  uint64_t emitted() const { return emitted_; }

 private:
  StreamTableJoin(Database* db, SchemaPtr stream_schema, Options options,
                  OutputCallback callback)
      : db_(db),
        stream_schema_(std::move(stream_schema)),
        options_(std::move(options)),
        callback_(std::move(callback)) {}

  Record Merge(const Record& event, const Record* table_row) const;

  Database* db_;
  SchemaPtr stream_schema_;
  Options options_;
  OutputCallback callback_;
  SchemaPtr output_schema_;
  uint64_t emitted_ = 0;
};

/// Interval stream-stream equi-join: events from the left and right
/// streams pair up when their join keys are equal and their event times
/// are within `window_micros` of each other (|tl - tr| <= window).
/// Each side buffers its recent events per key, sorted by event time,
/// so out-of-order arrivals pair correctly; a min-heap over buffered
/// timestamps evicts expired entries as the watermark advances, so
/// memory is bounded by rate × window even under disorder. (The seed's
/// arrival-order eviction deque let one out-of-order event strand
/// buffered entries forever.)
///
/// The consistency knob picks the eviction watermark:
///   kFast                  the event-time frontier (max ts on either
///                          side) — the pre-event-time behaviour, and
///                          the default. An event later than
///                          frontier - window pairs with what is still
///                          buffered but is not buffered itself
///                          (counted in late_dropped()).
///   kSpeculative/kCorrect  the merged per-side low watermark minus
///                          allowed lateness — one slow side holds
///                          eviction back, so a straggler on it still
///                          finds its partners. Join output is
///                          append-only (a late pairing is a new
///                          result, never a revision), so both levels
///                          evict identically and nothing retracts.
///
/// The canonical CEP use: correlate an order event with its payment
/// event within 5 minutes.
class IntervalJoin {
 public:
  /// Receives (left event, right event, pairing time = max of the two).
  using OutputCallback =
      std::function<void(const Record&, const Record&, TimestampMicros)>;

  struct Options {
    std::string left_key;
    std::string right_key;
    TimestampMicros window_micros = kMicrosPerMinute;
    TimestampMicros allowed_lateness_micros = 0;
    ConsistencyLevel consistency = ConsistencyLevel::kFast;
  };

  IntervalJoin(Options options, OutputCallback callback);

  /// Feeds one event to a side; event time may arrive out of order.
  /// Emits every pairing with buffered events of the other side.
  EDADB_NODISCARD Status PushLeft(const Record& event, TimestampMicros ts);
  EDADB_NODISCARD Status PushRight(const Record& event, TimestampMicros ts);

  /// Punctuation for one side: it promises no events with ts < mark.
  /// Advances the eviction watermark (kSpeculative/kCorrect care).
  void PunctuateLeft(TimestampMicros mark);
  void PunctuateRight(TimestampMicros mark);

  size_t buffered_left() const { return left_.buffered; }
  size_t buffered_right() const { return right_.buffered; }
  uint64_t emitted() const { return emitted_; }
  /// Events too old to buffer (older than watermark - window); they
  /// still paired against the surviving buffer before being dropped.
  uint64_t late_dropped() const { return late_dropped_; }
  const WatermarkTracker& watermarks() const { return tracker_; }

 private:
  struct Side {
    /// Encoded key -> buffered events sorted by event time.
    std::map<std::string, std::multimap<TimestampMicros, Record>> by_key;
    /// Min-heap of (ts, key) mirroring by_key, so eviction pops the
    /// globally oldest entry regardless of arrival order.
    std::priority_queue<std::pair<TimestampMicros, std::string>,
                        std::vector<std::pair<TimestampMicros, std::string>>,
                        std::greater<>>
        expiry;
    size_t buffered = 0;
  };

  /// The watermark whose trailing edge (minus window) evicts buffers.
  TimestampMicros EvictionWatermark() const;

  EDADB_NODISCARD Status Push(bool left, const Record& event, TimestampMicros ts);
  void Evict(Side* side);

  Options options_;
  OutputCallback callback_;
  Side left_;
  Side right_;
  WatermarkTracker tracker_;
  uint64_t emitted_ = 0;
  uint64_t late_dropped_ = 0;
};

}  // namespace edadb

#endif  // EDADB_CQ_JOIN_H_
