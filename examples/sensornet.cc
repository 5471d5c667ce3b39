// SensorNet use case (§2.2.e.iv): "a US government project to capture a
// wide variety of data and deliver them to first responders who are
// authorized, available and able to respond most efficiently."
//
// A field of heterogeneous sensors produces an event storm. The VIRT
// filter ("Valuable Information at the Right Time") keeps first
// responders from drowning: relevance, value, novelty and rate gates
// each consumer. What passes is distributed via durable pub/sub.
//
// Build & run:  ./build/examples/sensornet [data_dir]
// With no data_dir the app wipes and uses /tmp/edadb_sensornet; a
// data_dir it is given must be new or empty.

#include <cstdio>
#include <optional>
#include <string>

#include "common/random.h"
#include "core/processor.h"
#include "common/macros.h"
#include "data_dir.h"

using namespace edadb;

int main(int argc, char** argv) {
  const std::optional<std::string> dir =
      examples::FreshDataDir(argc, argv, "/tmp/edadb_sensornet");
  if (!dir.has_value()) return 2;
  EventProcessorOptions options;
  options.data_dir = *dir;
  auto processor_or = EventProcessor::Open(std::move(options));
  if (!processor_or.ok()) {
    std::fprintf(stderr, "%s\n", processor_or.status().ToString().c_str());
    return 1;
  }
  auto processor = *std::move(processor_or);
  VirtFilter* virt = processor->virt();

  // --- Three consumers with very different information needs.
  // A field medic: only medical events in their sector, no repeats.
  {
    VirtFilter::ConsumerOptions consumer;
    consumer.interest =
        *Predicate::Compile("kind = 'casualty' AND sector = 'north'");
    consumer.dedup_window_micros = 5 * kMicrosPerMinute;
    EDADB_IGNORE_STATUS(virt->RegisterConsumer("medic-north", consumer),
                      "demo setup; consumer names are checked-in literals");
  }
  // An incident commander: everything important, but at most ~10
  // notifications per simulated minute.
  {
    VirtFilter::ConsumerOptions consumer;
    consumer.min_value_score = 0.6;
    consumer.rate_limit_per_second = 10.0 / 60.0;
    consumer.rate_burst = 5;
    EDADB_IGNORE_STATUS(virt->RegisterConsumer("commander", consumer),
                      "demo setup; consumer names are checked-in literals");
  }
  // An analyst archive: everything, unfiltered.
  EDADB_IGNORE_STATUS(virt->RegisterConsumer("archive", {}),
                      "demo setup; consumer names are checked-in literals");

  // Durable delivery queues per consumer.
  for (const char* consumer : {"medic-north", "commander", "archive"}) {
    EDADB_IGNORE_STATUS(processor->queues()->CreateQueue(std::string("inbox_") + consumer),
                      "demo setup; an existing queue is fine to reuse");
  }

  // --- The storm: 5000 sensor events over a simulated half hour.
  SimulatedClock* clock = nullptr;
  SimulatedClock sim_clock(0);
  clock = &sim_clock;
  Random rng(1169);
  const char* kinds[] = {"smoke", "casualty", "structural", "chemical",
                         "comms"};
  const char* sectors[] = {"north", "south", "east", "west"};
  uint64_t delivered_total = 0;
  for (int i = 0; i < 5000; ++i) {
    clock->AdvanceMicros(30 * kMicrosPerHour / 5000 / 2);
    Event event;
    event.id = NextEventId();
    event.type = "sensor";
    const char* kind = kinds[rng.Uniform(5)];
    const char* sector = sectors[rng.Uniform(4)];
    event.source = std::string("sensor-") +
                   std::to_string(rng.Uniform(200));
    event.timestamp = clock->NowMicros();
    event.Set("kind", Value::String(kind));
    event.Set("sector", Value::String(sector));
    // Mostly low-value chatter; occasional critical events.
    const int64_t severity =
        rng.OneIn(40) ? 8 + static_cast<int64_t>(rng.Uniform(3))
                      : 1 + static_cast<int64_t>(rng.Uniform(4));
    event.Set("severity", Value::Int64(severity));
    // Repeated detections of the same incident share a dedup key.
    event.Set("dedup_key",
              Value::String(std::string(kind) + "@" + sector));

    for (const char* consumer : {"medic-north", "commander", "archive"}) {
      auto decision = virt->Evaluate(consumer, event);
      if (decision.ok() &&
          decision->verdict == VirtFilter::Verdict::kDeliver) {
        ++delivered_total;
        EnqueueRequest request;
        request.payload = event.ToString();
        request.attributes = event.attributes;
        EDADB_IGNORE_STATUS(processor->queues()->Enqueue(
            std::string("inbox_") + consumer, request),
                      "demo fan-out; a failed enqueue only drops the sample notification");
      }
    }
  }

  // --- Report: the information-overload numbers.
  std::printf("event storm: 5000 events x 3 consumers\n\n");
  uint64_t suppressed_total = 0;
  for (const char* consumer : {"medic-north", "commander", "archive"}) {
    const auto stats = *virt->GetStats(consumer);
    suppressed_total += stats.suppressed();
    std::printf(
        "%-12s delivered=%-5llu suppressed=%llu "
        "(irrelevant=%llu low-value=%llu duplicate=%llu rate=%llu)\n",
        consumer, static_cast<unsigned long long>(stats.delivered),
        static_cast<unsigned long long>(stats.suppressed()),
        static_cast<unsigned long long>(stats.not_relevant),
        static_cast<unsigned long long>(stats.below_value),
        static_cast<unsigned long long>(stats.duplicate),
        static_cast<unsigned long long>(stats.rate_limited));
  }
  const double reduction =
      100.0 * static_cast<double>(suppressed_total) /
      static_cast<double>(suppressed_total + delivered_total);
  std::printf("\noverall suppression: %.1f%% of candidate deliveries\n",
              reduction);

  const auto medic = *virt->GetStats("medic-north");
  const auto archive = *virt->GetStats("archive");
  if (archive.delivered != 5000 || medic.delivered == 0 ||
      medic.delivered > 200) {
    std::fprintf(stderr, "unexpected filtering behaviour\n");
    return 1;
  }
  std::printf("sensornet done.\n");
  return 0;
}
