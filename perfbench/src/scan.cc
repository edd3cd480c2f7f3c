// scan_tree: the corpus auditor's use. The seeded multi-repo tree is laid
// out on disk (one SQL dump per repository, plus an embedded-SQL source file
// in every fourth) and scanned by CorpusScanner, alternately cold (store
// deleted first) and warm (store kept).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <thread>

#include "scan/scanner.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using namespace sqlcheck;
namespace fs = std::filesystem;

namespace {

constexpr int kRepos = 48;
constexpr int kVariants = 24;
/// Scan shards: half the 4-thread host, so a neighbour's load on one core
/// does not stall a shard of every scan.
constexpr unsigned kJobs = 2;

void WriteFile(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  Check(static_cast<bool>(out), "scan_tree: cannot write " + path.string());
}

void WriteTree(const std::vector<RepoInput>& repos, const fs::path& root) {
  ResetDir(root.string());
  for (size_t r = 0; r < repos.size(); ++r) {
    fs::path dir = root / repos[r].name;
    fs::create_directories(dir);
    WriteFile(dir / "queries.sql", repos[r].script);
    if (r % 4 == 0) WriteFile(dir / "app.py", repos[r].source);
  }
}

struct ScanRun {
  double seconds = 0.0;
  uint64_t digest = 0;
  scan::ScanReport report;
  scan::ScanSummary summary;
};

ScanRun Scan(const std::string& root, const std::string& store, int jobs) {
  scan::ScanOptions options;
  options.store_path = store;
  options.jobs = jobs;
  scan::CorpusScanner scanner(options);
  auto start = Clock::now();
  sqlcheck::Result<scan::ScanReport> result = scanner.Scan(root);
  ScanRun run;
  run.seconds = SecondsSince(start);
  Check(result.ok(), "scan_tree: scan failed: " + result.message());
  run.report = std::move(result.value());
  run.digest = scan::DigestScanReport(run.report);
  run.summary = scanner.summary();
  Check(run.summary.store.warning.empty(),
        "scan_tree: store degraded: " + run.summary.store.warning);
  return run;
}

}  // namespace

RunResult RunScanTree(const Config& config) {
  const int repos = config.tiny ? 4 : kRepos;
  const int variants = config.tiny ? 2 : kVariants;
  const fs::path root = fs::path(config.work_dir) / "tree";
  const std::string store = (fs::path(config.work_dir) / "scan.fps").string();
  const int jobs = static_cast<int>(std::min(std::thread::hardware_concurrency(), kJobs));

  // Set-up writes the tree and takes the reference: the same tree scanned
  // with the store disabled.
  std::vector<RepoInput> inputs;
  uint64_t expected = 0;
  const double setup_s = TimeSetup(kSetupReps, [&] {
    inputs = MakeRepos(config.seed, repos, variants);
    WriteTree(inputs, root);
    if (!config.trace) expected = Scan(root.string(), "", jobs).digest;
  });

  RunResult result;
  result.threads = jobs;
  if (config.trace) {
    std::vector<Unit> units;
    for (size_t r = 0; r < inputs.size(); ++r) {
      Unit unit{inputs[r].name, {inputs[r].script}, {}, {}, nullptr};
      if (r % 4 == 0) unit.sources.push_back(inputs[r].source);
      units.push_back(std::move(unit));
    }
    result.metrics = LayerMetrics(TraceUnits(units, SqlCheckOptions{}, config));
    result.attempted = units.size();
    return result;
  }

  if (config.inject_mismatch) expected ^= 1;

  std::vector<double> cold_s, warm_s, rates;
  double store_bytes_per_stmt = 0.0;
  auto rep = [&](bool record) {
    std::error_code ec;
    fs::remove(store, ec);
    ScanRun cold = Scan(root.string(), store, jobs);
    ScanRun warm = Scan(root.string(), store, jobs);
    result.attempted += 2;
    Check(cold.digest == expected, "scan_tree: cold scan digest differs from the no-store scan");
    Check(warm.digest == expected, "scan_tree: warm scan digest differs from the no-store scan");
    Check(cold.summary.analyzed > 0 && cold.summary.store.appended > 0,
          "scan_tree: cold scan was not cold");
    Check(warm.summary.analyzed == 0 && warm.summary.files_reused == warm.report.files,
          "scan_tree: warm scan analyzed " + std::to_string(warm.summary.analyzed) +
              " statements");
    if (!record) return;
    cold_s.push_back(cold.seconds);
    warm_s.push_back(warm.seconds);
    rates.push_back(static_cast<double>(cold.report.statements) / cold.seconds);
    store_bytes_per_stmt = static_cast<double>(fs::file_size(store)) /
                           static_cast<double>(cold.report.statements);
  };
  rep(false);
  size_t reps = 0;
  RunFor(config.seconds, 4, [&] {
    PinForRep(reps++, static_cast<unsigned>(jobs));  // the scan's pool inherits it
    rep(true);
  });

  std::vector<double> rep_s;
  for (size_t i = 0; i < cold_s.size(); ++i) rep_s.push_back(cold_s[i] + warm_s[i]);
  const std::vector<size_t> fast = FasterHalf(rep_s);
  const std::vector<double> cold = Pick(cold_s, fast);
  EndToEnd e;
  e.setup_s = setup_s;
  e.stmts_per_s = Median(Pick(rates, fast));
  e.p50_ms = Median(cold) * 1e3;
  e.tail_ms = Quantile(cold, TailQuantileFor(cold.size())) * 1e3;
  e.snapshot_ms = Median(Pick(warm_s, fast)) * 1e3;
  e.bytes_per_stmt = store_bytes_per_stmt;
  result.metrics = EndToEndMetrics(e);
  return result;
}

}  // namespace perfbench
