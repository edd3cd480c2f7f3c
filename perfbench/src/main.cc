// perfbench: the sqlcheck benchmark harness.
//
//   perfbench --workload <batch_repos|serve_stream|scan_tree|audit_db>
//             --seed <n> --seconds <s> --trace <0|1> [--tiny]
//             [--inject-mismatch] [--work-dir <dir>]
//
// Prints a stamp line ({"stamp": {...}}) and, as its last line, the result
// object {"correct", "attempted", "failed", "metrics"}. A failed correctness
// check prints no result and exits 1; a non-Release build refuses to record
// and exits 3. perfbench/run.py builds this binary and is the entry point.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include <unistd.h>

#include "sql/block_scan.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--tiny] [--inject-mismatch] [--work-dir <dir>]\n",
               argv0);
  return 2;
}

/// JSON number with every digit the double carries.
std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--inject-mismatch") {
      config.inject_mismatch = true;
    } else if (arg == "--workload") {
      const char* v = value();
      if (v == nullptr) return Usage(argv[0]);
      config.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      const char* v = value();
      if (v == nullptr) return Usage(argv[0]);
      config.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      const char* v = value();
      if (v == nullptr || std::atof(v) <= 0.0) return Usage(argv[0]);
      config.seconds = std::atof(v);
      have_seconds = true;
    } else if (arg == "--trace") {
      const char* v = value();
      if (v == nullptr || (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)) {
        return Usage(argv[0]);
      }
      config.trace = std::strcmp(v, "1") == 0;
      have_trace = true;
    } else if (arg == "--work-dir") {
      const char* v = value();
      if (v == nullptr) return Usage(argv[0]);
      config.work_dir = v;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) return Usage(argv[0]);

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::fprintf(stderr, "perfbench: refusing to record from a %s build (Release only)\n",
                 build_type.c_str());
    return 3;
  }

  RunResult (*run)(const Config&) = nullptr;
  if (config.workload == "batch_repos") run = RunBatchRepos;
  if (config.workload == "serve_stream") run = RunServeStream;
  if (config.workload == "scan_tree") run = RunScanTree;
  if (config.workload == "audit_db") run = RunAuditDb;
  if (run == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", config.workload.c_str());
    return 2;
  }

  config.work_dir += "/" + config.workload + "-" + std::to_string(::getpid());
  RunResult result;
  try {
    ResetDir(config.work_dir);
    result = run(config);
  } catch (const CheckFailure& e) {
    std::error_code ec;
    std::filesystem::remove_all(config.work_dir, ec);
    std::fprintf(stderr, "perfbench: FAIL: %s\n", e.what());
    return 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);

  std::string notes;
  for (const auto& [name, value] : result.notes) {
    if (!notes.empty()) notes += ", ";
    notes += JsonString(name) + ": " + Number(value);
  }
  std::printf(
      "{\"stamp\": {\"build_type\": %s, \"compiler\": %s, \"block_scan_tier\": %s, "
      "\"nproc\": %u, \"threads\": %d, \"seed\": %llu, \"workload\": %s, \"trace\": %d, "
      "\"tiny\": %s, \"notes\": {%s}}}\n",
      JsonString(build_type).c_str(), JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(sqlcheck::sql::blockscan::FastTierName()).c_str(),
      std::thread::hardware_concurrency(), result.threads,
      static_cast<unsigned long long>(config.seed), JsonString(config.workload).c_str(),
      config.trace ? 1 : 0, config.tiny ? "true" : "false", notes.c_str());

  std::string metrics;
  for (const Metric& m : result.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + Number(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
