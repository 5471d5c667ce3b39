// Utilities use case (§2.2.e.ii): "utilities use event processing for
// monitoring current usage and usage patterns."
//
// Smart-meter readings land in a `readings` table. Capture runs through
// the journal miner (asynchronous, zero overhead on the ingest path,
// like a production metering pipeline). Each meter gets an expectation
// model of its usage; deviations (leak? theft? outage?) raise alerts
// that a continuous query over the alert table then distributes.
//
// Build & run:  ./build/examples/utility_monitoring [data_dir]
// With no data_dir the app wipes and uses /tmp/edadb_utility; a
// data_dir it is given must be new or empty.

#include <cstdio>
#include <optional>
#include <string>

#include "common/random.h"
#include "core/monitor.h"
#include "core/sources.h"
#include "cq/continuous_query.h"
#include "db/database.h"
#include "common/macros.h"
#include "data_dir.h"

using namespace edadb;

int main(int argc, char** argv) {
  const std::optional<std::string> dir =
      examples::FreshDataDir(argc, argv, "/tmp/edadb_utility");
  if (!dir.has_value()) return 2;
  DatabaseOptions options;
  options.dir = *dir;
  auto db_or = Database::Open(std::move(options));
  if (!db_or.ok()) {
    std::fprintf(stderr, "%s\n", db_or.status().ToString().c_str());
    return 1;
  }
  auto db = *std::move(db_or);

  SchemaPtr readings_schema = Schema::Make({
      {"meter", ValueType::kString, false},
      {"kwh", ValueType::kDouble, false},
      {"hour", ValueType::kInt64, false},
  });
  SchemaPtr alerts_schema = Schema::Make({
      {"meter", ValueType::kString, false},
      {"kwh", ValueType::kDouble, false},
      {"expected", ValueType::kDouble, false},
      {"sigmas", ValueType::kDouble, false},
  });
  EDADB_IGNORE_STATUS(db->CreateTable("readings", readings_schema),
                      "demo setup; the schema is a checked-in literal");
  EDADB_IGNORE_STATUS(db->CreateTable("usage_alerts", alerts_schema),
                      "demo setup; the schema is a checked-in literal");

  // Expectation models per meter: Holt handles the daily ramp.
  DeviationDetector::Options detector_options;
  detector_options.threshold_sigmas = 8.0;
  detector_options.min_uncertainty = 0.3;
  ExpectationMonitor monitor(
      [] { return std::make_unique<HoltForecaster>(0.4, 0.2); },
      detector_options,
      [&](const std::string& meter, TimestampMicros, double kwh,
          const DetectionResult& result) {
        auto row = RecordBuilder(alerts_schema)
                       .SetString("meter", meter)
                       .SetDouble("kwh", kwh)
                       .SetDouble("expected", result.expected)
                       .SetDouble("sigmas", result.score)
                       .Build();
        EDADB_IGNORE_STATUS(db->Insert("usage_alerts", *std::move(row)),
                      "demo sink; a failed insert only drops the sample alert row");
      });

  // Asynchronous capture from the journal feeds the monitor.
  JournalEventSource capture(
      db.get(),
      [&](const Event& event) {
        const auto meter = event.Get("meter");
        const auto kwh = event.Get("kwh");
        if (meter.has_value() && kwh.has_value()) {
          EDADB_IGNORE_STATUS(monitor.Process(meter->string_value(), event.timestamp,
                                kwh->double_value()),
                      "demo feed loop; a per-reading failure only thins the printed output");
        }
      },
      "readings", "meter_reading");

  // A continuous query watches per-meter alert counts: result-set
  // changes are the notifications (§2.2.a.iii) — a meter appearing or
  // its count rising means "look at this meter now".
  size_t notified = 0;
  ContinuousQueryWatcher alert_watch(
      db.get(),
      QueryBuilder("usage_alerts").GroupBy({"meter"}).Count("alerts").Build(),
      {"meter"}, [&](const RowChange& change) {
        if (change.kind != RowChangeKind::kRemoved) {
          ++notified;
          if (notified <= 5) {
            std::printf("  notify dispatch: %s\n",
                        change.after->ToString().c_str());
          }
        }
      });
  EDADB_IGNORE_STATUS(alert_watch.Poll(),
                      "demo poll; a failed poll only delays the printed alerts");

  // --- Simulate two days of hourly readings for 20 meters, with one
  // meter developing a fault on day 2.
  Random rng(777);
  for (int hour = 0; hour < 48; ++hour) {
    for (int m = 0; m < 20; ++m) {
      const std::string meter = "meter-" + std::to_string(m);
      // Diurnal pattern: base + peak in the evening + noise.
      const int hod = hour % 24;
      double kwh = 0.6 + (hod >= 18 && hod <= 22 ? 1.8 : 0.0) +
                   0.05 * m + rng.Normal(0, 0.05);
      if (m == 7 && hour >= 30) kwh += 6.0;  // Fault: constant heavy draw.
      auto row = RecordBuilder(readings_schema)
                     .SetString("meter", meter)
                     .SetDouble("kwh", kwh)
                     .SetInt64("hour", hour)
                     .Build();
      EDADB_IGNORE_STATUS(db->Insert("readings", *std::move(row)),
                      "demo feed loop; a failed insert only drops the sample reading");
    }
    // Periodic mining + alert distribution, as a scheduler would.
    EDADB_IGNORE_STATUS(capture.Poll(),
                      "demo poll; a failed poll only delays the printed output");
    EDADB_IGNORE_STATUS(alert_watch.Poll(),
                      "demo poll; a failed poll only delays the printed alerts");
  }

  // Usage-pattern reporting straight from the database: per-meter totals.
  Query report = QueryBuilder("readings")
                     .GroupBy({"meter"})
                     .Sum("kwh", "total_kwh")
                     .OrderByDesc("total_kwh")
                     .Limit(3)
                     .Build();
  auto top = db->Execute(report);
  std::printf("\ntop consumers (48h):\n");
  if (top.ok()) {
    for (const Record& row : top->rows) {
      std::printf("  %s\n", row.ToString().c_str());
    }
  }

  const auto alert_count = db->CountRows("usage_alerts");
  std::printf("\nreadings captured: %llu, alerts raised: %zu, "
              "notifications: %zu\n",
              static_cast<unsigned long long>(capture.captured()),
              alert_count.ok() ? *alert_count : 0, notified);
  if (notified == 0) {
    std::fprintf(stderr, "expected the faulty meter to be flagged!\n");
    return 1;
  }
  std::printf("utility_monitoring done.\n");
  return 0;
}
