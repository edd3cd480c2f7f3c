// Incremental session latency: streams a duplicate-heavy query-log corpus
// through AnalysisSession::Check() one statement at a time, measuring the
// per-statement append latency distribution (p50/p99), then re-runs the
// batch facade over the same history to price what a non-incremental caller
// pays per new statement. Verifies first that the session's final snapshot
// is byte-identical to the batch report and that a repeat snapshot of the
// unchanged session computes no fix (both always enforced), then writes the
// measurements to BENCH_incremental.json. With --gate it additionally
// requires incremental append to be >=10x faster than the batch re-run at
// the configured history length.
//
//   $ ./bench_incremental_latency [history_statements] [--gate]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "core/session.h"
#include "core/sqlcheck.h"

using namespace sqlcheck;

namespace {

using Clock = std::chrono::steady_clock;

double UsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

/// 90%-duplicate query log (the shape of real application traffic): a small
/// set of parameterized templates with cosmetic jitter, plus 10% statements
/// made unique by a fresh literal.
std::vector<std::string> BuildCorpus(size_t count) {
  static const char* kTemplates[] = {
      "SELECT * FROM users u JOIN profiles p ON u.id = p.user_id "
      "WHERE u.status = 'active' AND u.email LIKE '%@example.com'",
      "SELECT u.id, u.name FROM users u WHERE u.region = ? AND u.age > ? "
      "GROUP BY u.id, u.name ORDER BY u.created_at",
      "SELECT name, password FROM users WHERE name LIKE '%smith' AND password = ?",
      "SELECT DISTINCT u.name, o.total FROM users u "
      "JOIN orders o ON u.id = o.user_id WHERE o.created_at BETWEEN ? AND ?",
      "INSERT INTO logs (user_id, action, detail) SELECT u.id, ?, ? FROM users u",
      "SELECT * FROM products p JOIN categories c ON p.category_id = c.id "
      "ORDER BY RAND()",
      "UPDATE users SET name = ?, email = ? WHERE id = ? AND status <> 'deleted'",
  };
  constexpr size_t kTemplateCount = sizeof(kTemplates) / sizeof(kTemplates[0]);

  std::vector<std::string> statements;
  statements.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (i % 10 == 9) {
      statements.push_back(
          "SELECT u.name, o.total FROM users u JOIN orders o ON u.id = o.user_id "
          "WHERE o.id = " +
          std::to_string(i));
      continue;
    }
    std::string s = kTemplates[i % kTemplateCount];
    switch ((i / kTemplateCount) % 3) {
      case 1: s += "  "; break;
      case 2: s += " -- app"; break;
      default: break;
    }
    statements.push_back(std::move(s));
  }
  return statements;
}

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t index = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[index];
}

}  // namespace

int main(int argc, char** argv) {
  size_t history = 10000;
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--gate") {
      gate = true;
    } else {
      history = static_cast<size_t>(std::atoll(argv[i]));
    }
  }

  std::vector<std::string> statements = BuildCorpus(history);
  std::printf("incremental latency: %zu-statement history (90%% duplicates)\n\n",
              statements.size());

  // ---- Incremental: stream every statement through one session. ----
  AnalysisSession session;
  std::vector<double> append_us;
  append_us.reserve(statements.size());
  double append_total_us = 0.0;
  for (const auto& sql : statements) {
    auto start = Clock::now();
    Report delta = session.Check(sql);
    double us = UsSince(start);
    append_us.push_back(us);
    append_total_us += us;
  }

  std::vector<double> sorted = append_us;
  std::sort(sorted.begin(), sorted.end());
  double p50 = Percentile(sorted, 0.50);
  double p99 = Percentile(sorted, 0.99);
  double mean = append_total_us / static_cast<double>(sorted.size());

  // Snapshot() is idempotent, so time it best-of-3 — the single-shot
  // measurement this bench used to take was dominated by scheduler noise.
  // The first one computes the fixes of the current context generation; the
  // repeats must replay every one of them from the fix cache.
  Report incremental_report;
  double snapshot_ms = 1e100;
  double first_snapshot_ms = 0.0;
  size_t repeat_fix_misses = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const size_t misses_before = session.fix_cache_misses();
    auto snapshot_start = Clock::now();
    incremental_report = session.Snapshot();
    const double ms = UsSince(snapshot_start) / 1000.0;
    snapshot_ms = std::min(snapshot_ms, ms);
    if (rep == 0) {
      first_snapshot_ms = ms;
    } else {
      repeat_fix_misses += session.fix_cache_misses() - misses_before;
    }
  }

  // ---- Batch facade re-run over the same history. ----
  auto batch_start = Clock::now();
  SqlCheck batch;
  for (const auto& sql : statements) batch.AddQuery(sql);
  Report batch_report = batch.Run();
  double batch_ms = UsSince(batch_start) / 1000.0;

  bool identical = incremental_report.ToJson() == batch_report.ToJson();

  // ---- Fix-suggestion overhead: the same history with fixes disabled. ----
  // The diagnosis pipeline (per-rule fixers + rewrite verification) must be
  // pay-for-what-you-use: with suggest_fixes off the snapshot must stay
  // byte-identical between streaming and batch, and its timing prices what
  // fix suggestion adds on top.
  SqlCheckOptions no_fix_options;
  no_fix_options.suggest_fixes = false;
  AnalysisSession no_fix_session(no_fix_options);
  for (const auto& sql : statements) no_fix_session.AddQuery(sql);
  Report no_fix_report;
  double snapshot_no_fix_ms = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    auto start = Clock::now();
    no_fix_report = no_fix_session.Snapshot();
    snapshot_no_fix_ms = std::min(snapshot_no_fix_ms, UsSince(start) / 1000.0);
  }
  SqlCheck no_fix_batch(no_fix_options);
  for (const auto& sql : statements) no_fix_batch.AddQuery(sql);
  bool identical_no_fixes = no_fix_report.ToJson() == no_fix_batch.Run().ToJson();
  double fix_overhead_ms = snapshot_ms - snapshot_no_fix_ms;
  double speedup = p99 > 0.0 ? (batch_ms * 1000.0) / p99 : 0.0;

  std::printf("%28s %12s\n", "metric", "value");
  std::printf("%28s %12zu\n", "unique groups", session.unique_count());
  std::printf("%28s %12zu\n", "findings", incremental_report.size());
  std::printf("%28s %10.1fus\n", "append p50", p50);
  std::printf("%28s %10.1fus\n", "append p99", p99);
  std::printf("%28s %10.1fus\n", "append mean", mean);
  std::printf("%28s %10.1fms\n", "first snapshot", first_snapshot_ms);
  std::printf("%28s %10.1fms\n", "full snapshot", snapshot_ms);
  std::printf("%28s %10.1fms\n", "snapshot (fixes off)", snapshot_no_fix_ms);
  std::printf("%28s %10.1fms\n", "fix suggestion overhead", fix_overhead_ms);
  std::printf("%28s %9zu/%zu\n", "fix cache hits/misses", session.fix_cache_hits(),
              session.fix_cache_misses());
  std::printf("%28s %12zu\n", "repeat-snapshot fix misses", repeat_fix_misses);
  std::printf("%28s %10.1fms\n", "batch facade re-run", batch_ms);
  std::printf("%28s %11.1fx\n", "append speedup vs batch", speedup);

  FILE* out = std::fopen("BENCH_incremental.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write BENCH_incremental.json\n");
    return 1;
  }
  {
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"incremental_latency\",\n"
                 "  \"history_statements\": %zu,\n"
                 "  \"unique_groups\": %zu,\n"
                 "  \"append_p50_us\": %.2f,\n"
                 "  \"append_p99_us\": %.2f,\n"
                 "  \"append_mean_us\": %.2f,\n"
                 "  \"first_snapshot_ms\": %.2f,\n"
                 "  \"snapshot_ms\": %.2f,\n"
                 "  \"snapshot_no_fixes_ms\": %.2f,\n"
                 "  \"fix_overhead_ms\": %.2f,\n"
                 "  \"fix_cache_hits\": %zu,\n"
                 "  \"fix_cache_misses\": %zu,\n"
                 "  \"repeat_snapshot_fix_misses\": %zu,\n"
                 "  \"batch_rerun_ms\": %.2f,\n"
                 "  \"append_speedup_vs_batch\": %.2f,\n"
                 "  \"reports_identical\": %s,\n"
                 "  \"reports_identical_no_fixes\": %s\n"
                 "}\n",
                 statements.size(), session.unique_count(), p50, p99, mean,
                 first_snapshot_ms, snapshot_ms, snapshot_no_fix_ms, fix_overhead_ms,
                 session.fix_cache_hits(), session.fix_cache_misses(),
                 repeat_fix_misses, batch_ms,
                 speedup, identical ? "true" : "false",
                 identical_no_fixes ? "true" : "false");
    std::fclose(out);
    std::printf("\nwrote BENCH_incremental.json\n");
  }

  if (!identical) {
    std::printf("FAIL: incremental snapshot diverged from the batch report\n");
    return 1;
  }
  if (!identical_no_fixes) {
    std::printf(
        "FAIL: fixes-disabled incremental snapshot diverged from the batch report\n");
    return 1;
  }
  std::printf("incremental snapshot byte-identical to batch report (fixes on and off)\n");
  if (repeat_fix_misses != 0) {
    std::printf("FAIL: a repeat snapshot of the unchanged session computed %zu fix(es)\n",
                repeat_fix_misses);
    return 1;
  }
  std::printf("repeat snapshots replayed every fix from the fix cache\n");

  if (!gate) {
    std::printf("speedup gate off — pass --gate to enforce the 10x target\n");
    return 0;
  }
  if (speedup < 10.0) {
    std::printf("FAIL: append p99 only %.1fx faster than batch re-run (target 10x)\n",
                speedup);
    return 1;
  }
  std::printf("gate passed: append p99 %.1fx faster than batch re-run (target 10x)\n",
              speedup);
  return 0;
}
