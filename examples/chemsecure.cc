// ChemSecure use case (§2.2.e.iii): "a NASA project to manage hazardous
// material. Any threat has to be known to the people who are authorized
// and able to respond most efficiently."
//
// Tank sensors push readings; rules stored in the database classify
// threats; the responder registry routes each threat to the closest
// available responder who is both AUTHORIZED (role) and ABLE
// (capability); every step is audited in database tables.
//
// Build & run:  ./build/examples/chemsecure [data_dir]
// With no data_dir the app wipes and uses /tmp/edadb_chemsecure; a
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
      examples::FreshDataDir(argc, argv, "/tmp/edadb_chemsecure");
  if (!dir.has_value()) return 2;
  EventProcessorOptions options;
  options.data_dir = *dir;
  auto processor_or = EventProcessor::Open(std::move(options));
  if (!processor_or.ok()) {
    std::fprintf(stderr, "%s\n", processor_or.status().ToString().c_str());
    return 1;
  }
  auto processor = *std::move(processor_or);

  // --- The response teams: authorization = roles, ability =
  // capabilities, efficiency = region proximity.
  auto add_responder = [&](const char* id, const char* role,
                           const char* capability, const char* region) {
    Responder r;
    r.id = id;
    r.roles = {role};
    r.capabilities = {capability};
    r.region = region;
    if (auto s = processor->responders()->RegisterResponder(std::move(r));
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
    }
  };
  add_responder("hazmat-east", "hazmat", "chemical", "east-wing");
  add_responder("hazmat-west", "hazmat", "chemical", "west-wing");
  add_responder("fire-east", "fire", "suppression", "east-wing");
  add_responder("security-1", "security", "escort", "gate");

  // --- Threat classification rules, stored as data in the database.
  RulesEngine* rules = processor->rules();
  EDADB_IGNORE_STATUS(rules->AddRule(
      "chemical_leak",
      "event_type = 'tank_reading' AND vapor_ppm > 400 AND "
      "substance IN ('hydrazine', 'ammonia')",
      "respond:hazmat:chemical", /*priority=*/10),
                      "demo setup; the rule predicate is a checked-in literal");
  EDADB_IGNORE_STATUS(rules->AddRule(
      "fire_risk",
      "event_type = 'tank_reading' AND temp_c > 60",
      "respond:fire:suppression", 9),
                      "demo setup; the rule predicate is a checked-in literal");
  EDADB_IGNORE_STATUS(rules->AddRule(
      "log_everything", "event_type = 'tank_reading'",
      "queue:audit_trail", 0),
                      "demo setup; the rule predicate is a checked-in literal");

  // --- Tank telemetry: mostly nominal, two injected incidents.
  Random rng(42);
  auto reading = [&](const char* tank, const char* substance,
                     const char* region, double ppm, double temp) {
    Event event;
    event.type = "tank_reading";
    event.source = tank;
    event.Set("substance", Value::String(substance));
    event.Set("region", Value::String(region));
    event.Set("vapor_ppm", Value::Double(ppm));
    event.Set("temp_c", Value::Double(temp));
    event.Set("severity",
              Value::Int64(ppm > 400 || temp > 60 ? 9 : 2));
    if (auto s = processor->Ingest(std::move(event)); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
    }
  };

  for (int i = 0; i < 200; ++i) {
    reading("tank-A1", "hydrazine", "east-wing",
            rng.Normal(50, 10), rng.Normal(20, 2));
    reading("tank-B2", "ammonia", "west-wing",
            rng.Normal(80, 15), rng.Normal(22, 2));
  }
  // Incident 1: hydrazine vapor spike in the east wing. The east hazmat
  // crew must get it (authorized + able + closest).
  reading("tank-A1", "hydrazine", "east-wing", 950.0, 25.0);
  // Incident 2: overheating tank — fire crew's problem.
  reading("tank-B2", "ammonia", "west-wing", 90.0, 75.0);

  // --- Who got notified?
  auto drain = [&](const std::string& queue) {
    size_t count = 0;
    for (;;) {
      DequeueRequest dq;
      auto message = processor->queues()->Dequeue(queue, dq);
      if (!message.ok() || !message->has_value()) break;
      ++count;
      std::printf("  %s received:", queue.c_str());
      for (const auto& [name, value] : (*message)->attributes) {
        if (name == "event_source" || name == "substance" ||
            name == "vapor_ppm" || name == "temp_c") {
          std::printf(" %s=%s", name.c_str(), value.ToString().c_str());
        }
      }
      std::printf("\n");
      EDADB_IGNORE_STATUS(processor->queues()->Ack(queue, "", (*message)->id),
                      "demo drain loop; a failed ack only redelivers and re-prints the alert");
    }
    return count;
  };
  std::printf("incident notifications:\n");
  const size_t east = drain("__responder_hazmat-east");
  const size_t west = drain("__responder_hazmat-west");
  const size_t fire = drain("__responder_fire-east");

  const auto stats = processor->GetStats();
  const auto audit_depth =
      processor->queues()->Depth("audit_trail", "");
  std::printf("\ningested=%llu matched=%llu dispatched=%llu "
              "audit_backlog=%zu\n",
              static_cast<unsigned long long>(stats.ingested),
              static_cast<unsigned long long>(stats.rules_matched),
              static_cast<unsigned long long>(
                  stats.dispatched_to_responders),
              audit_depth.ok() ? *audit_depth : 0);

  // The east crew (closest authorized+able) must have the leak; the
  // west crew must NOT have been paged for it.
  if (east != 1 || west != 0 || fire != 1) {
    std::fprintf(stderr,
                 "routing wrong: east=%zu west=%zu fire=%zu\n", east,
                 west, fire);
    return 1;
  }
  std::printf("chemsecure done.\n");
  return 0;
}
