#ifndef EDADB_CORE_SOURCES_H_
#define EDADB_CORE_SOURCES_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/event.h"
#include "cq/continuous_query.h"
#include "db/database.h"
#include "journal/journal_miner.h"
#include "common/macros.h"

namespace edadb {

/// The three database capture paths of §2.2.a, plus external push, all
/// normalized into Events handed to an EventSink — typically
/// EventProcessor::Ingest. bench_capture (E1) drives the three against
/// the same writes and measures throughput and staleness.

/// Where captured events go.
using EventSink = std::function<void(const Event&)>;

/// §2.2.a.i — synchronous capture via an AFTER trigger. Zero staleness;
/// capture work runs inside the writer's commit path.
class TriggerEventSource {
 public:
  /// Registers an AFTER trigger named `trigger_name` on `table`; every
  /// committed change becomes an Event of type `event_type` handed to
  /// `sink`, with the new (or, for deletes, old) row's fields as
  /// attributes.
  EDADB_NODISCARD static Result<std::unique_ptr<TriggerEventSource>> Create(
      Database* db, EventSink sink, const std::string& table,
      const std::string& trigger_name, const std::string& event_type);

  ~TriggerEventSource();

  uint64_t captured() const { return captured_; }

 private:
  TriggerEventSource(Database* db, std::string trigger_name)
      : db_(db), trigger_name_(std::move(trigger_name)) {}

  Database* db_;
  std::string trigger_name_;
  uint64_t captured_ = 0;
};

/// §2.2.a.ii — asynchronous capture by mining the journal. Never slows
/// writers; staleness is the poll interval.
class JournalEventSource {
 public:
  JournalEventSource(Database* db, EventSink sink, const std::string& table,
                     const std::string& event_type, Lsn start_lsn = 0);

  /// Pumps newly committed changes into the sink; returns events emitted.
  EDADB_NODISCARD Result<size_t> Poll();

  Lsn watermark() const { return miner_.watermark(); }
  uint64_t captured() const { return captured_; }

 private:
  Clock* clock_;
  EventSink sink_;
  std::string event_type_;
  JournalMiner miner_;
  uint64_t captured_ = 0;
};

/// §2.2.a.iii — capture via continuous query: result-set change is the
/// event. Most decoupled, most expensive per poll (re-evaluation).
class QueryEventSource {
 public:
  QueryEventSource(Database* db, EventSink sink, Query query,
                   std::vector<std::string> key_columns,
                   const std::string& event_type);

  EDADB_NODISCARD Result<size_t> Poll();

  uint64_t captured() const { return captured_; }

 private:
  std::unique_ptr<ContinuousQueryWatcher> watcher_;
  uint64_t captured_ = 0;
};

/// Foreign systems deliver straight into the sink ("acquisition of
/// streams of data by push").
class PushEventSource {
 public:
  PushEventSource(EventSink sink, std::string source_name)
      : sink_(std::move(sink)), source_name_(std::move(source_name)) {}

  /// Stamps id/source/timestamp (when unset) and publishes.
  void Push(Event event, Clock* clock = nullptr);

  uint64_t captured() const { return captured_; }

 private:
  EventSink sink_;
  std::string source_name_;
  uint64_t captured_ = 0;
};

/// Shared helper: flattens a Record into event attributes.
void RecordToAttributes(const Record& record, AttributeList* out);

}  // namespace edadb

#endif  // EDADB_CORE_SOURCES_H_
