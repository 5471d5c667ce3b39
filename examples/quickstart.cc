// Quickstart: the smallest end-to-end event-driven application on
// edadb. It walks the tutorial's loop once:
//
//   1. a table stores raw measurements (the database as event source),
//   2. an AFTER trigger turns committed rows into events,
//   3. a rule — an "expression as data" — spots the critical condition,
//   4. the matched event is staged on a persistent queue,
//   5. a consumer dequeues and acknowledges it.
//
// Build & run:  ./build/examples/quickstart [data_dir]
// With no data_dir the app wipes and uses /tmp/edadb_quickstart; a
// data_dir it is given must be new or empty.

#include <cstdio>
#include <optional>
#include <string>

#include "core/processor.h"
#include "core/sources.h"
#include "common/macros.h"
#include "data_dir.h"

using namespace edadb;  // Example code; library code never does this.

int main(int argc, char** argv) {
  // Fresh scratch directory per run; the optional argument picks it.
  const std::optional<std::string> dir =
      examples::FreshDataDir(argc, argv, "/tmp/edadb_quickstart");
  if (!dir.has_value()) return 2;

  // 1. Open the assembled stack: database + queues + rules + broker.
  EventProcessorOptions options;
  options.data_dir = *dir;
  auto processor = EventProcessor::Open(std::move(options));
  if (!processor.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 processor.status().ToString().c_str());
    return 1;
  }
  Database* db = (*processor)->db();

  // 2. A table of sensor readings...
  auto schema = Schema::Make({
      {"sensor", ValueType::kString, /*nullable=*/false},
      {"temp_c", ValueType::kDouble, false},
  });
  if (auto created = db->CreateTable("readings", schema); !created.ok()) {
    std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
    return 1;
  }
  // ...captured by trigger into the processing pipeline.
  if (auto attached = (*processor)->AttachTriggerCapture("readings",
                                                         "reading");
      !attached.ok()) {
    std::fprintf(stderr, "%s\n", attached.ToString().c_str());
    return 1;
  }

  // 3. The critical condition, stored as data, routed to a queue.
  if (auto added = (*processor)->rules()->AddRule(
          "overheating", "event_type = 'reading' AND temp_c > 80",
          "queue:alerts");
      !added.ok()) {
    std::fprintf(stderr, "%s\n", added.ToString().c_str());
    return 1;
  }

  // 4. Insert measurements; capture and evaluation happen on commit.
  auto insert = [&](const char* sensor, double temp) {
    auto row = RecordBuilder(schema)
                   .SetString("sensor", sensor)
                   .SetDouble("temp_c", temp)
                   .Build();
    if (auto id = db->Insert("readings", *std::move(row)); !id.ok()) {
      std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
    }
  };
  insert("boiler-1", 65.0);  // Normal.
  insert("boiler-2", 91.5);  // Critical.
  insert("boiler-1", 72.0);  // Normal.
  insert("boiler-2", 95.0);  // Critical.

  // 5. Consume staged alerts.
  std::printf("draining the alerts queue:\n");
  size_t alerts = 0;
  for (;;) {
    DequeueRequest dq;
    auto message = (*processor)->queues()->Dequeue("alerts", dq);
    if (!message.ok() || !message->has_value()) break;
    std::printf("  alert #%llu:",
                static_cast<unsigned long long>((*message)->id));
    for (const auto& [name, value] : (*message)->attributes) {
      if (name == "sensor" || name == "temp_c") {
        std::printf(" %s=%s", name.c_str(), value.ToString().c_str());
      }
    }
    std::printf("\n");
    EDADB_IGNORE_STATUS((*processor)->queues()->Ack("alerts", "", (*message)->id),
                      "demo drain loop; a failed ack only redelivers and re-prints the alert");
    ++alerts;
  }

  const auto stats = (*processor)->GetStats();
  std::printf(
      "\ningested %llu events, %llu rule matches, %llu staged, "
      "%zu consumed\n",
      static_cast<unsigned long long>(stats.ingested),
      static_cast<unsigned long long>(stats.rules_matched),
      static_cast<unsigned long long>(stats.routed_to_queues), alerts);
  if (alerts != 2) {
    std::fprintf(stderr, "expected 2 alerts!\n");
    return 1;
  }
  std::printf("quickstart done.\n");
  return 0;
}
