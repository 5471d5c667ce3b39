#ifndef EDADB_BENCH_BENCH_UTIL_H_
#define EDADB_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/metrics.h"
#include "common/random.h"
#include "common/string_util.h"
#include "value/record.h"

namespace edadb {
namespace bench {

/// Scratch directory removed on destruction.
class BenchDir {
 public:
  BenchDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "edadb_bench_XXXXXX")
                           .string();
    char* made = mkdtemp(tmpl.data());
    path_ = made != nullptr ? tmpl : "/tmp/edadb_bench_fallback";
  }
  ~BenchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Simple attribute-map event for matcher benchmarks.
class BenchEvent : public RowAccessor {
 public:
  std::map<std::string, Value> values;
  std::optional<Value> GetAttribute(std::string_view name) const override {
    auto it = values.find(std::string(name));
    if (it == values.end()) return std::nullopt;
    return it->second;
  }
};

/// The standard event population for rule benchmarks: `num_attrs`
/// integer attributes in [0, cardinality) plus a region string.
inline BenchEvent RandomRuleEvent(Random* rng, int num_attrs,
                                  int64_t cardinality) {
  BenchEvent event;
  for (int a = 0; a < num_attrs; ++a) {
    event.values["attr" + std::to_string(a)] =
        Value::Int64(rng->UniformInt(0, cardinality - 1));
  }
  static const char* const kRegions[] = {"north", "south", "east", "west"};
  event.values["region"] = Value::String(kRegions[rng->Uniform(4)]);
  return event;
}

/// A selective conjunctive rule condition over the population above:
/// two equality conjuncts plus one range, so most rules don't match
/// most events (the realistic pub/sub regime).
inline std::string RandomRuleCondition(Random* rng, int num_attrs,
                                       int64_t cardinality) {
  const int a1 = static_cast<int>(rng->Uniform(num_attrs));
  int a2 = static_cast<int>(rng->Uniform(num_attrs));
  if (a2 == a1) a2 = (a2 + 1) % num_attrs;
  static const char* const kRegions[] = {"north", "south", "east", "west"};
  return StringPrintf(
      "attr%d = %lld AND region = '%s' AND attr%d BETWEEN %lld AND %lld",
      a1, static_cast<long long>(rng->UniformInt(0, cardinality - 1)),
      kRegions[rng->Uniform(4)], a2,
      static_cast<long long>(rng->UniformInt(0, cardinality / 2)),
      static_cast<long long>(
          rng->UniformInt(cardinality / 2, cardinality - 1)));
}

// ---------------------------------------------------------------------
// --json output mode.
//
// Every bench binary routes through BenchMain() below, which accepts a
// `--json[=path]` flag (default path "bench.json") in addition to the
// standard --benchmark_* flags. With --json, per-benchmark results are
// ALSO written as a JSON array — one object per benchmark run with
// name, iterations, ops/sec, mean latency and p50/p99 latency (null
// unless the bench records percentiles) — so scripts/bench.sh and the
// CI bench-smoke stage can consume results without scraping console
// output.

inline std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Console reporter that additionally collects every iteration run and
/// writes the JSON array to `path` in Finalize(). `mean_us` is the mean
/// per-iteration wall time. `p50_us`/`p99_us` come from the user
/// counters of those names when the benchmark records them (see
/// BM_PipelineLatency) and are `null` otherwise: a mean is not a
/// percentile.
class JsonFileReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonFileReporter(std::string path) : path_(std::move(path)) {}

  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      Entry entry;
      entry.name = run.benchmark_name();
      entry.iterations = run.iterations;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      const double per_iter_us = run.real_accumulated_time / iters * 1e6;
      entry.ops_per_sec = Counter(run, "items_per_second")
                              .value_or(per_iter_us > 0 ? 1e6 / per_iter_us
                                                        : 0.0);
      entry.mean_us = per_iter_us;
      entry.p50_us = Counter(run, "p50_us");
      entry.p99_us = Counter(run, "p99_us");
      // Preserve every user counter verbatim (sorted map iteration →
      // stable output) so benchmarks can export extra dimensions —
      // e.g. bench_pubsub's subscribers/miss_rate — without schema
      // changes here.
      for (const auto& [name, counter] : run.counters) {
        entry.counters.emplace_back(name, static_cast<double>(counter));
      }
      entries_.push_back(std::move(entry));
    }
    ConsoleReporter::ReportRuns(report);
  }

  void Finalize() override {
    std::ofstream out(path_);
    if (out) {
      out << "[\n";
      for (size_t i = 0; i < entries_.size(); ++i) {
        const Entry& e = entries_[i];
        out << "  {\"name\": \"" << JsonEscape(e.name) << "\""
            << ", \"iterations\": " << e.iterations
            << ", \"ops_per_sec\": " << Num(e.ops_per_sec)
            << ", \"mean_us\": " << Num(e.mean_us)
            << ", \"p50_us\": " << OptionalNum(e.p50_us)
            << ", \"p99_us\": " << OptionalNum(e.p99_us);
        if (!e.counters.empty()) {
          out << ", \"counters\": {";
          for (size_t c = 0; c < e.counters.size(); ++c) {
            out << "\"" << JsonEscape(e.counters[c].first)
                << "\": " << Num(e.counters[c].second)
                << (c + 1 < e.counters.size() ? ", " : "");
          }
          out << "}";
        }
        out << "}" << (i + 1 < entries_.size() ? "," : "") << "\n";
      }
      out << "]\n";
    }
    ConsoleReporter::Finalize();
  }

 private:
  struct Entry {
    std::string name;
    int64_t iterations = 0;
    double ops_per_sec = 0;
    double mean_us = 0;
    std::optional<double> p50_us;
    std::optional<double> p99_us;
    std::vector<std::pair<std::string, double>> counters;
  };

  /// The run's user counter `key`, when it recorded one.
  static std::optional<double> Counter(const Run& run, const char* key) {
    auto it = run.counters.find(key);
    if (it == run.counters.end()) return std::nullopt;
    return static_cast<double>(it->second);
  }

  /// JSON has no NaN/Infinity; clamp non-finite values to 0.
  static double Num(double v) { return std::isfinite(v) ? v : 0.0; }

  /// `v` as a JSON number, or null when absent.
  static std::string OptionalNum(const std::optional<double>& v) {
    if (!v.has_value()) return "null";
    std::ostringstream out;
    out << Num(*v);
    return out.str();
  }

  std::string path_;
  std::vector<Entry> entries_;
};

/// Shared main() for every bench binary: strips `--json[=path]`, then
/// hands the rest to google/benchmark.
inline int BenchMain(int argc, char** argv) {
  std::string json_path;
  bool json = false;
  std::vector<char*> args;
  args.reserve(static_cast<size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json = true;
      json_path.assign(arg.substr(7));
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  args.push_back(nullptr);
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  if (json) {
    if (json_path.empty()) json_path = "bench.json";
    JsonFileReporter reporter(json_path);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    // Drop the process metrics snapshot next to the timings: what the
    // system did (WAL syncs, group-commit sizes, queue latencies) to
    // produce them. <path>.metrics.json so bench.sh can pair the files.
    std::ofstream metrics_out(json_path + ".metrics.json");
    if (metrics_out) {
      metrics_out << metrics::Registry::Default()->DumpJson() << "\n";
    }
  } else {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return 0;
}

}  // namespace bench
}  // namespace edadb

#endif  // EDADB_BENCH_BENCH_UTIL_H_
