// rule_churn: a large, frequently changing rule set (§2.2.c.iv). 10k
// E4/E5-style rules over 8 integer attributes; events go in through
// IngestBatch(64), matched rules call a handler the benchmark owns, and
// every 500 events the oldest rule is replaced (RemoveRule + AddRule)
// while events keep flowing. Nothing is staged.

#include <algorithm>
#include <deque>

#include "common/random.h"
#include "common/string_util.h"
#include "harness.h"

namespace edabench {
namespace {

using edadb::Event;
using edadb::Status;
using edadb::Value;

constexpr const char* kRegions[] = {"north", "south", "east", "west"};
constexpr int kNumRegions = 4;
constexpr int kAttrs = 8;
constexpr int64_t kCardinality = 1000;  // ≈1.25 matches per event.
constexpr size_t kRules = 10000;
constexpr size_t kBatch = 64;
constexpr size_t kEvents = 16000;
constexpr size_t kReplaceEvery = 500;
constexpr size_t kReplacements = kEvents / kReplaceEvery;
constexpr size_t kProbes = 32;
constexpr const char* kAttrNames[kAttrs] = {"attr0", "attr1", "attr2", "attr3",
                                            "attr4", "attr5", "attr6", "attr7"};

struct Spec {
  std::array<int16_t, kAttrs> attrs;
  uint8_t region;
};

Event MakeEvent(const Spec& spec, uint64_t id) {
  Event event;
  event.id = id;
  event.type = "reading";
  event.source = "feed";
  event.attributes.reserve(kAttrs + 1);
  for (int a = 0; a < kAttrs; ++a) {
    event.Set(kAttrNames[a], Value::Int64(spec.attrs[static_cast<size_t>(a)]));
  }
  event.Set("region", Value::String(kRegions[spec.region]));
  return event;
}

/// `attrA = v AND region = r AND attrB BETWEEN lo AND hi`.
std::string RuleCondition(edadb::Random* rng) {
  const int a1 = static_cast<int>(rng->Uniform(kAttrs));
  int a2 = static_cast<int>(rng->Uniform(kAttrs));
  if (a2 == a1) a2 = (a2 + 1) % kAttrs;
  const auto v = static_cast<long long>(rng->UniformInt(0, kCardinality - 1));
  const char* region = kRegions[rng->Uniform(kNumRegions)];
  const auto lo = static_cast<long long>(rng->UniformInt(0, kCardinality / 2));
  const auto hi = static_cast<long long>(
      rng->UniformInt(kCardinality / 2, kCardinality - 1));
  return edadb::StringPrintf(
      "attr%d = %lld AND region = '%s' AND attr%d BETWEEN %lld AND %lld", a1,
      v, region, a2, lo, hi);
}

std::vector<Spec> MakeSpecs(edadb::Random* rng, size_t n) {
  std::vector<Spec> specs(n);
  for (Spec& spec : specs) {
    for (int16_t& a : spec.attrs) {
      a = static_cast<int16_t>(rng->UniformInt(0, kCardinality - 1));
    }
    spec.region = static_cast<uint8_t>(rng->Uniform(kNumRegions));
  }
  return specs;
}

/// Checks RulesEngine::Evaluate against each live rule's own Predicate
/// on the probe events. Returns the first mismatch, or "".
std::string CheckProbes(edadb::RulesEngine* rules,
                        const std::deque<std::pair<std::string, std::string>>& live,
                        const std::vector<Spec>& probes) {
  std::vector<std::pair<std::string, edadb::Predicate>> compiled;
  compiled.reserve(live.size());
  for (const auto& [id, condition] : live) {
    auto predicate = edadb::Predicate::Compile(condition);
    if (!predicate.ok()) return "rule " + id + ": " + predicate.status().ToString();
    compiled.emplace_back(id, *std::move(predicate));
  }
  for (size_t i = 0; i < probes.size(); ++i) {
    const Event event = MakeEvent(probes[i], i + 1);
    const edadb::EventView view(event);
    auto got = rules->Evaluate(view);
    if (!got.ok()) return "evaluate: " + got.status().ToString();
    std::vector<std::string> want;
    for (const auto& [id, predicate] : compiled) {
      if (predicate.MatchesOrFalse(view)) want.push_back(id);
    }
    std::sort(got->begin(), got->end());
    std::sort(want.begin(), want.end());
    if (*got != want) {
      return "probe " + std::to_string(i) + " matched " +
             std::to_string(got->size()) + " rules, predicates say " +
             std::to_string(want.size());
    }
  }
  return "";
}

}  // namespace

RunResult RunRuleChurn(const Options& options) {
  RunResult result;
  Tracer tracer(options.trace);
  RoundFigures figures;
  std::vector<double> update_us, add_us, remove_us;
  PhaseTotals trace_totals;
  uint64_t handled = 0;

  RunRounds(options, [&](int round, bool traced) {
    edadb::Random rng(options.seed * 1000003 + static_cast<uint64_t>(round));
    std::deque<std::pair<std::string, std::string>> live;
    for (size_t r = 0; r < kRules; ++r) {
      live.emplace_back(edadb::StringPrintf("r%zu", r), RuleCondition(&rng));
    }
    std::vector<std::string> replacements(kReplacements);
    for (std::string& condition : replacements) condition = RuleCondition(&rng);
    const std::vector<Spec> specs = MakeSpecs(&rng, kEvents);
    const std::vector<Spec> probes = MakeSpecs(&rng, kProbes);
    std::vector<Event> batch;
    std::vector<double> round_updates;
    round_updates.reserve(kReplacements);

    Stack stack(RoundDir(options, round));
    const Nanos setup_start = NowNs();
    Status status = stack.Open();
    edadb::RulesEngine* rules =
        status.ok() ? stack.processor()->rules() : nullptr;
    for (size_t r = 0; status.ok() && r < live.size(); ++r) {
      status = rules->AddRule(live[r].first, live[r].second, "notify");
    }
    if (status.ok()) {
      rules->RegisterActionHandler(
          "notify", [&](const edadb::Rule&, const edadb::RowAccessor&) {
            Tracer::Scope span(&tracer, kHandler, 0);
            ++handled;
          });
    }
    const Nanos setup_end = NowNs();
    if (!status.ok()) {
      result.Count(status, kEvents + kReplacements);
      return;
    }
    edadb::EventProcessor* p = stack.processor();

    const RegistrySnapshot before = TakeRegistrySnapshot();
    const uint64_t handled_before = handled;
    tracer.BeginPhase(traced);
    size_t next_replace = kReplaceEvery;
    size_t next_rule = kRules;
    const Nanos phase_start = NowNs();
    for (size_t b = 0; b < kEvents; b += kBatch) {
      const size_t n = std::min(kBatch, kEvents - b);
      batch.clear();
      batch.reserve(n);
      for (size_t i = b; i < b + n; ++i) {
        batch.push_back(MakeEvent(specs[i], i + 1));
      }
      const auto request = static_cast<int64_t>(b / kBatch);
      Tracer::Scope ingest_span(&tracer, kIngestBatch, request);
      const Status ingested = p->IngestBatch(std::move(batch));
      ingest_span.Finish();
      result.Count(ingested, n);
      // Replace the oldest rule each time the event count passes a
      // multiple of kReplaceEvery.
      while (b + n >= next_replace) {
        const size_t k = next_replace / kReplaceEvery - 1;
        std::string id = edadb::StringPrintf("r%zu", next_rule++);
        Tracer::Scope remove_span(&tracer, kRemoveRule, request);
        const Status removed = rules->RemoveRule(live.front().first);
        const Nanos remove_ns = remove_span.Finish();
        Tracer::Scope add_span(&tracer, kAddRule, request);
        const Status added = rules->AddRule(id, replacements[k], "notify");
        const Nanos add_ns = add_span.Finish();
        result.Count(removed.ok() ? added : removed);
        live.pop_front();
        live.emplace_back(std::move(id), replacements[k]);
        round_updates.push_back(static_cast<double>(remove_ns + add_ns) / 1000.0);
        if (traced) {
          remove_us.push_back(static_cast<double>(remove_ns) / 1000.0);
          add_us.push_back(static_cast<double>(add_ns) / 1000.0);
        }
        next_replace += kReplaceEvery;
      }
    }
    const Nanos phase_wall = NowNs() - phase_start;
    tracer.EndPhase();
    const Nanos call_ns = tracer.TopLevelTotal();
    const RegistrySnapshot delta = Diff(TakeRegistrySnapshot(), before);
    if (traced) trace_totals.Add(tracer, phase_wall, kEvents, delta);

    // Checks: every match ran the handler, the live rule count is
    // constant, and the engine's matches on the probe events equal each
    // live rule's Predicate.
    if (handled - handled_before !=
        static_cast<uint64_t>(RegistryCount(delta, "rules.matched"))) {
      result.Fail("handler calls differ from rules.matched");
    }
    if (rules->num_rules() != kRules) {
      result.Fail("live rule count " + std::to_string(rules->num_rules()) +
                  ", want " + std::to_string(kRules));
    }
    if (const std::string mismatch = CheckProbes(rules, live, probes);
        !mismatch.empty()) {
      result.Fail(mismatch);
    }
    if (p->GetStats().ingest_failures != 0) result.Fail("ingest failures");

    if (figures.AddRound(round, traced, setup_end - setup_start, kEvents,
                         call_ns)) {
      update_us.insert(update_us.end(), round_updates.begin(),
                       round_updates.end());
    }
  });

  if (!options.trace) {
    figures.Report(&result.metrics);
    result.metrics["latency_p50_us"] = Percentile(update_us, 0.5);
    result.metrics["latency_p80_us"] = Percentile(update_us, 0.8);
    return result;
  }
  auto& m = result.metrics;
  AddLayerMetrics(trace_totals, &m);
  m["rules.remove_us_p50"] = Percentile(remove_us, 0.5);
  m["rules.add_us_p50"] = Percentile(add_us, 0.5);
  m["trace.overhead_pct"] = figures.TraceOverheadPct();
  if (!options.trace_out.empty() && !tracer.WriteSpans(options.trace_out)) {
    result.Fail("could not write " + options.trace_out);
  }
  return result;
}

}  // namespace edabench
