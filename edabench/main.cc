// edabench: one command that runs an edadb workload for a time budget,
// checks its outputs and prints its metrics as the last line of stdout.
//
//   edabench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --data-root <dir> [--trace-out <file>]
//            [--git-sha <sha>] [--src-digest <hex>]
//
// run.py builds this binary and passes the checkout-relative paths.

#include <sys/vfs.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.h"

namespace edabench {
namespace {

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlay";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

/// JSON number with every digit a double round-trips with.
std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Escape(const std::string& in) {
  std::string out;
  for (char c : in) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "edabench: %s\nusage: edabench --workload "
               "<alert_pipeline|rule_churn|capture_fanout> --seed <n> "
               "--seconds <s> --trace <0|1> --data-root <dir> "
               "[--trace-out <file>] [--git-sha <sha>] [--src-digest <hex>]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace edabench

int main(int argc, char** argv) {
  using namespace edabench;
  Options options;
  std::string git_sha = "none", src_digest = "none";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      const auto parsed = std::from_chars(
          value.data(), value.data() + value.size(), options.seed);
      if (parsed.ec != std::errc() || parsed.ptr != value.data() + value.size()) {
        return Usage("--seed takes a whole number");
      }
    } else if (flag == "--seconds") {
      char* end = nullptr;
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        return Usage("--seconds takes a number");
      }
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--data-root") {
      options.data_root = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--src-digest") {
      src_digest = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (options.data_root.empty()) return Usage("--data-root is required");
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  RunResult (*run)(const Options&) = nullptr;
  if (options.workload == "alert_pipeline") run = RunAlertPipeline;
  if (options.workload == "rule_churn") run = RunRuleChurn;
  if (options.workload == "capture_fanout") run = RunCaptureFanout;
  if (run == nullptr) return Usage("unknown workload");

  std::error_code ec;
  std::filesystem::create_directories(options.data_root, ec);
  if (ec) return Usage(("cannot create " + options.data_root).c_str());

  // Host header. The WAL never syncs (the data dir is wherever the
  // checkout is), so the filesystem type is recorded, not enforced.
  std::printf(
      "host {\"nproc\": %u, \"build_type\": \"%s\", \"git_sha\": \"%s\", "
      "\"src_digest\": \"%s\", \"compiler\": \"%s\", \"data_dir_fs\": "
      "\"%s\", \"wal_sync\": \"never\", \"shards\": 2, \"metrics\": %s}\n",
      std::thread::hardware_concurrency(), EDABENCH_BUILD_TYPE,
      Escape(git_sha).c_str(), Escape(src_digest).c_str(),
      Escape("gcc " __VERSION__).c_str(),
      FilesystemType(options.data_root).c_str(),
      edadb::metrics::Enabled() ? "true" : "false");
  std::fflush(stdout);

  RunResult result = run(options);
  std::filesystem::remove_all(options.data_root, ec);
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "edabench: %s\n", error.c_str());
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "edabench: no work attempted\n");
    return 1;
  }

  const std::vector<MetricDef>& defs =
      options.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string metrics;
  for (const MetricDef& def : defs) {
    auto it = result.metrics.find(def.name);
    const double value = it == result.metrics.end() ? 0 : it->second;
    if (!metrics.empty()) metrics += ", ";
    metrics.append("\"").append(def.name).append("\": {\"value\": ");
    metrics.append(Number(value)).append(", \"unit\": \"");
    metrics.append(def.unit).append("\"}");
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
