// batch_repos: the CI linter's use. Every seeded repository goes through a
// fresh SqlCheck (AddScript, Run with default options, ToJson); a rep is
// one pass over every repository.
#include "core/emit.h"
#include "core/session.h"
#include "core/sqlcheck.h"
#include "sql/splitter.h"
#include "trace.h"
#include "workload/corpus.h"
#include "workloads.h"

namespace perfbench {

using namespace sqlcheck;

namespace {

constexpr int kRepos = 32;
/// Seed variants per repository: ~14 statements each, so a repository
/// carries a few hundred statements of which about 40% are duplicates.
constexpr int kVariants = 24;

/// The reference digest of one repository's report, through the streaming
/// path: one AddQuery per statement, then Snapshot. The batch facade must
/// emit the same bytes.
uint64_t StreamingDigest(const RepoInput& repo, const SqlCheckOptions& options) {
  AnalysisSession session(options);
  for (const std::string& sql : repo.statements) session.AddQuery(sql);
  return Fnv(ToJson(session.Snapshot()));
}

}  // namespace

std::vector<RepoInput> MakeRepos(uint64_t seed, int repos, int variants) {
  std::vector<workload::Corpus> corpora;
  for (int v = 0; v < variants; ++v) {
    workload::CorpusOptions options;
    options.repo_count = repos;
    options.seed = seed * 1000 + static_cast<uint64_t>(v);
    corpora.push_back(workload::GenerateCorpus(options));
  }
  std::vector<RepoInput> out(static_cast<size_t>(repos));
  for (size_t r = 0; r < out.size(); ++r) {
    RepoInput& repo = out[r];
    repo.name = corpora.front().repos[r].name;
    repo.source = corpora.front().repos[r].source;
    for (const workload::Corpus& corpus : corpora) {
      for (const workload::LabeledStatement& stmt : corpus.repos[r].statements) {
        repo.script += stmt.sql;
        repo.script += ";\n";
      }
    }
    for (std::string_view piece : sql::SplitStatements(repo.script)) {
      repo.statements.emplace_back(piece);
    }
  }
  return out;
}

RunResult RunBatchRepos(const Config& config) {
  const int repos = config.tiny ? 2 : kRepos;
  const int variants = config.tiny ? 2 : kVariants;
  const SqlCheckOptions options;  // fixes on, Tier 3 off
  std::vector<RepoInput> inputs;
  std::vector<uint64_t> expected;
  const double setup_s = TimeSetup(kSetupReps, [&] {
    inputs = MakeRepos(config.seed, repos, variants);
    expected.clear();
    if (config.trace) return;
    for (const RepoInput& repo : inputs) expected.push_back(StreamingDigest(repo, options));
  });

  RunResult result;
  if (config.trace) {
    std::vector<Unit> units;
    for (const RepoInput& repo : inputs) units.push_back({repo.name, {repo.script}, {}, {}, nullptr});
    result.metrics = LayerMetrics(TraceUnits(units, options, config));
    result.attempted = units.size();
    return result;
  }
  if (config.inject_mismatch) expected[0] ^= 1;

  // Per rep: each repository's report latency and re-run latency.
  std::vector<std::vector<double>> repo_ms, rerun_ms;
  std::vector<double> rep_s, rates;
  size_t json_bytes = 0, statements = 0;
  auto rep = [&](bool record) {
    double busy_s = 0.0;
    size_t rep_statements = 0, rep_bytes = 0;
    if (record) {
      repo_ms.emplace_back();
      rerun_ms.emplace_back();
    }
    for (size_t r = 0; r < inputs.size(); ++r) {
      auto start = Clock::now();
      SqlCheck checker(options);
      checker.AddScript(inputs[r].script);
      Report report = checker.Run();
      std::string json = ToJson(report);
      const double secs = SecondsSince(start);

      auto again_start = Clock::now();
      Report again = checker.Run();
      const double again_ms = SecondsSince(again_start) * 1e3;

      Check(Fnv(json) == expected[r],
            "batch_repos: report of " + inputs[r].name + " differs from the streaming path");
      Check(again.size() == report.size(), "batch_repos: re-run changed the report");
      ++result.attempted;
      if (!record) continue;
      busy_s += secs;
      rep_statements += checker.session().statement_count();
      rep_bytes += json.size();
      repo_ms.back().push_back(secs * 1e3);
      rerun_ms.back().push_back(again_ms);
    }
    if (!record) return;
    rep_s.push_back(busy_s);
    rates.push_back(static_cast<double>(rep_statements) / busy_s);
    statements += rep_statements;
    json_bytes += rep_bytes;
  };
  rep(false);  // warm-up: page in code and allocator arenas
  size_t reps = 0;
  RunFor(config.seconds, 4, [&] {
    PinForRep(reps++, 1);
    rep(true);
  });

  const std::vector<size_t> fast = FasterHalf(rep_s);
  const std::vector<double> latencies = Pool(repo_ms, fast);
  EndToEnd e;
  e.setup_s = setup_s;
  e.stmts_per_s = Median(Pick(rates, fast));
  e.p50_ms = Median(latencies);
  e.tail_ms = Quantile(latencies, TailQuantileFor(latencies.size()));
  e.snapshot_ms = Median(Pool(rerun_ms, fast));
  e.bytes_per_stmt = static_cast<double>(json_bytes) / static_cast<double>(statements);
  result.notes["p99_ms"] = Quantile(latencies, 0.99);
  result.metrics = EndToEndMetrics(e);
  return result;
}

}  // namespace perfbench
