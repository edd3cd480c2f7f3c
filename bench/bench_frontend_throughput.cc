// Frontend throughput: lex MB/s, lex+parse MB/s, and end-to-end batch
// `SqlCheck::Run()` statements/sec over the table-3 synthetic corpus (the
// same generator the detection-quality benches use). Writes the measurements
// to BENCH_frontend.json next to the committed pre-refactor baseline, and
// always cross-checks the report detection digest against the recorded
// baseline digest — a digest mismatch means the frontend rewrite changed
// analysis results and the bench exits nonzero no matter the flags.
//
// The SIMD/SWAR frontend (PR 8) adds two sections on top: the lex stage is
// measured on both the block-scan fast tier and the forced-scalar reference
// (their token streams are asserted identical by tests/test_block_scan.cc;
// here they are separate throughput rows), and the corpus joined into one
// script is measured through AnalysisSession::AddScript. The script load
// must produce the same report digest as the statement-at-a-time batch run —
// that identity is unconditional, like the baseline digest check.
//
// Gate policy: --gate enforces only SAME-RUN ratios — both sides measured in
// this process on this machine — because absolute throughput floors recorded
// on one container are not portable to another (a slower CI host fails them
// with the optimization fully intact, which is exactly what happened to the
// recorded-constant gates this bench originally shipped with). Under --gate
// the fast lex tier must clear 1.25x the same-run scalar tier. The
// cross-host ratios against the recorded baseline and the
// PR-7-era lexer are still measured and written to the JSON as informational
// fields. A failed run refuses to write BENCH_frontend.json at all, so a red
// bench can never leave behind an artifact that looks like a measurement.
//
// The baseline block below was measured on this container immediately
// before the arena/interner refactor (PR 4), with the same corpus seed and
// repo count, so current/baseline pairs are like-for-like on any rebuild of
// that commit range. CI machines differ from the recording machine, so the
// ratio gate only runs when explicitly requested (--gate), and the digest
// identity check — which is hardware-independent — runs everywhere.
//
//   $ ./bench_frontend_throughput [repo_count] [--gate] [--record-baseline]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/session.h"
#include "core/sqlcheck.h"
#include "sql/block_scan.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "workload/corpus.h"

using namespace sqlcheck;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Order-sensitive FNV digest over every detection field (same fold as
/// bench_fingerprint_dedup, so the streams are comparable across benches).
uint64_t DigestReport(const Report& report) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::string_view s) {
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= 0xff;
    h *= 1099511628211ull;
  };
  for (const auto& f : report.findings) {
    const Detection& d = f.ranked.detection;
    mix(std::to_string(static_cast<int>(d.type)));
    mix(std::to_string(static_cast<int>(d.source)));
    mix(d.table);
    mix(d.column);
    mix(d.query);
    mix(d.message);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Pre-refactor baseline, recorded with --record-baseline at repo_count=200 on
// the reference container (1-core, gcc Release) right before the zero-copy
// frontend landed. The digest is hardware-independent ground truth; the
// throughput figures are the denominators for the --gate ratios.
// ---------------------------------------------------------------------------
constexpr int kBaselineRepoCount = 200;
constexpr double kBaselineLexMBs = 68.49;
constexpr double kBaselineLexParseMBs = 36.14;
constexpr double kBaselineRunStmtsPerSec = 95614.0;
constexpr uint64_t kBaselineDigest = 3179248164023172358ull;

// Lex MB/s recorded by this bench immediately before the SIMD/SWAR block
// scanner landed (PR 7 era, same corpus, recorded on a faster container than
// typical gating hosts). Informational only — the `lex_speedup_vs_prev`
// JSON field reports the ratio each run, but no gate compares against it:
// cross-host absolute floors flake on slower hardware regardless of how much
// headroom they had on the recording machine.
constexpr double kPrevLexMBs = 325.37;

// Same-run SIMD-vs-scalar floor: unlike the cross-host ratio above, both
// sides are measured in this process on this machine, so the gate is
// host-independent. The scalar reference itself got faster than the PR-7
// lexer (span-oriented restructure, ~1.3x), so the fast tier clearing 1.25x
// *scalar* confirms the SIMD tiers are doing real work on top of that.
constexpr double kLexFastVsScalarFloor = 1.25;

struct Measurement {
  double lex_mbs = 0.0;         ///< Block-scan fast tier (SSE2/NEON).
  double lex_scalar_mbs = 0.0;  ///< Forced-scalar reference path.
  double lex_parse_mbs = 0.0;
  double run_stmts_per_sec = 0.0;
  double run_with_fixes_stmts_per_sec = 0.0;
  double script_stmts_per_sec = 0.0;  ///< One AddScript of the whole corpus.
  uint64_t script_digest = 0;
  uint64_t digest = 0;
  size_t statements = 0;
  size_t bytes = 0;
  size_t token_count = 0;  ///< Anti-DCE witness.
};

/// Repeats `body` until it has consumed at least `min_seconds`, returning
/// the BEST (minimum) seconds per repetition — the standard noise-robust
/// estimator for a deterministic workload: scheduler preemption and cache
/// pollution only ever make a rep slower, so the minimum is the cleanest
/// observation of the code's real cost.
template <typename Fn>
double TimedReps(double min_seconds, Fn&& body) {
  // One warm-up rep (first-touch page faults, lazy statics).
  body();
  double best = 1e100;
  double elapsed = 0.0;
  do {
    Clock::time_point start = Clock::now();
    body();
    double secs = SecondsSince(start);
    if (secs < best) best = secs;
    elapsed += secs;
  } while (elapsed < min_seconds);
  return best;
}

Measurement Measure(const std::vector<std::string>& statements) {
  Measurement m;
  m.statements = statements.size();
  for (const auto& s : statements) m.bytes += s.size();
  const double mb = static_cast<double>(m.bytes) / (1024.0 * 1024.0);

  // Lex only: reusable token buffer, zero per-token allocations steady-state.
  // Measured twice — once on the block-scan fast tier, once forced scalar —
  // so the SIMD speedup is visible as its own row. The ambient force-scalar
  // mode (SQLCHECK_FORCE_SCALAR) is restored afterwards so the end-to-end
  // sections below still run in whatever mode the caller selected.
  {
    const bool ambient_scalar = sql::blockscan::ForceScalar();
    sql::TokenBuffer buffer;
    size_t tokens = 0;
    auto lex_all = [&] {
      tokens = 0;
      for (const auto& s : statements) {
        tokens += sql::Lex(s, buffer).size();
      }
    };
    sql::blockscan::SetForceScalarForTest(false);
    m.lex_mbs = mb / TimedReps(0.4, lex_all);
    m.token_count = tokens;
    sql::blockscan::SetForceScalarForTest(true);
    m.lex_scalar_mbs = mb / TimedReps(0.4, lex_all);
    if (tokens != m.token_count) {
      std::fprintf(stderr, "FAIL: scalar token count %zu != fast %zu\n", tokens,
                   m.token_count);
      std::exit(1);
    }
    sql::blockscan::SetForceScalarForTest(ambient_scalar);
  }

  // Lex + parse into an arena (the context build's statement path).
  {
    size_t parsed = 0;
    sql::Arena arena;
    sql::TokenBuffer buffer;
    double secs = TimedReps(0.4, [&] {
      arena.Reset();
      parsed = 0;
      for (const auto& s : statements) {
        sql::StatementPtr stmt = sql::ParseStatement(s, &arena, &buffer);
        parsed += stmt != nullptr;
      }
    });
    if (parsed != statements.size()) {
      std::fprintf(stderr, "FAIL: parser returned null (%zu/%zu)\n", parsed,
                   statements.size());
      std::exit(1);
    }
    m.lex_parse_mbs = mb / secs;
  }

  // End-to-end batch Run() with fix suggestion disabled — the configuration
  // comparable to the recorded pre-diagnosis baseline, and the one the
  // speedup gate judges. The detection digest must be identical either way.
  {
    SqlCheckOptions opt;
    opt.suggest_fixes = false;
    double secs = TimedReps(1.0, [&] {
      SqlCheck checker(opt);
      for (const auto& s : statements) checker.AddQuery(s);
      Report report = checker.Run();
      m.digest = DigestReport(report);
    });
    m.run_stmts_per_sec = static_cast<double>(m.statements) / secs;
  }

  // Batch Run() with the full diagnosis pipeline (default options): per-rule
  // fixers propose, every rewrite is verify-parsed and re-analyzed. Reported
  // as its own metric so fix-suggestion overhead is tracked per commit, not
  // gated — it prices a feature the baseline did not have.
  {
    double secs = TimedReps(1.0, [&] {
      SqlCheck checker;
      for (const auto& s : statements) checker.AddQuery(s);
      Report report = checker.Run();
      uint64_t digest = DigestReport(report);
      if (digest != m.digest) {
        std::fprintf(stderr,
                     "FAIL: detection digest with fixes (%llu) != without (%llu)\n",
                     static_cast<unsigned long long>(digest),
                     static_cast<unsigned long long>(m.digest));
        std::exit(1);
      }
    });
    m.run_with_fixes_stmts_per_sec = static_cast<double>(m.statements) / secs;
  }

  // Script ingestion: the whole corpus as one script through
  // AnalysisSession::AddScript, snapshot included. Its digest must match the
  // statement-at-a-time run — main() enforces that identity unconditionally.
  {
    std::string script;
    script.reserve(m.bytes + 2 * m.statements);
    for (const auto& s : statements) {
      script += s;
      script += ";\n";
    }
    SqlCheckOptions opt;
    opt.suggest_fixes = false;
    size_t count = 0;
    double secs = TimedReps(0.6, [&] {
      AnalysisSession session(opt);
      count = session.AddScript(script);
      m.script_digest = DigestReport(session.Snapshot());
    });
    if (count != m.statements) {
      std::fprintf(stderr, "FAIL: script ingest saw %zu statements, want %zu\n", count,
                   m.statements);
      std::exit(1);
    }
    m.script_stmts_per_sec = static_cast<double>(count) / secs;
  }
  return m;
}

void WriteJson(const Measurement& m, int repo_count, bool gated, bool passed) {
  FILE* f = std::fopen("BENCH_frontend.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write BENCH_frontend.json\n");
    std::exit(1);
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"frontend_throughput\",\n"
               "  \"repo_count\": %d,\n"
               "  \"statements\": %zu,\n"
               "  \"corpus_bytes\": %zu,\n"
               "  \"block_scan_tier\": \"%s\",\n"
               "  \"hardware_threads\": %u,\n"
               "  \"lex_mb_per_s\": %.2f,\n"
               "  \"lex_scalar_mb_per_s\": %.2f,\n"
               "  \"lex_parse_mb_per_s\": %.2f,\n"
               "  \"run_stmts_per_s\": %.0f,\n"
               "  \"run_with_fixes_stmts_per_s\": %.0f,\n"
               "  \"script_ingest_stmts_per_s\": %.0f,\n"
               "  \"script_digest_matches_batch\": %s,\n"
               "  \"baseline_lex_mb_per_s\": %.2f,\n"
               "  \"baseline_lex_parse_mb_per_s\": %.2f,\n"
               "  \"baseline_run_stmts_per_s\": %.0f,\n"
               "  \"prev_lex_mb_per_s\": %.2f,\n"
               "  \"lex_speedup\": %.2f,\n"
               "  \"lex_speedup_vs_prev\": %.2f,\n"
               "  \"lex_parse_speedup\": %.2f,\n"
               "  \"run_speedup\": %.2f,\n",
               repo_count, m.statements, m.bytes, sql::blockscan::FastTierName(),
               std::thread::hardware_concurrency(), m.lex_mbs, m.lex_scalar_mbs,
               m.lex_parse_mbs, m.run_stmts_per_sec, m.run_with_fixes_stmts_per_sec,
               m.script_stmts_per_sec, m.script_digest == m.digest ? "true" : "false",
               kBaselineLexMBs, kBaselineLexParseMBs, kBaselineRunStmtsPerSec,
               kPrevLexMBs, m.lex_mbs / kBaselineLexMBs, m.lex_mbs / kPrevLexMBs,
               m.lex_parse_mbs / kBaselineLexParseMBs,
               m.run_stmts_per_sec / kBaselineRunStmtsPerSec);
  std::fprintf(f,
               "  \"digest_matches_baseline\": %s,\n"
               "  \"gate\": %s\n"
               "}\n",
               m.digest == kBaselineDigest ? "true" : "false",
               gated ? (passed ? "\"pass\"" : "\"fail\"") : "\"not-run\"");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  int repo_count = kBaselineRepoCount;
  bool gate = false;
  bool record = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0) {
      gate = true;
    } else if (std::strcmp(argv[i], "--record-baseline") == 0) {
      record = true;
    } else {
      repo_count = std::atoi(argv[i]);
      if (repo_count <= 0) {
        std::fprintf(stderr,
                     "usage: %s [repo_count] [--gate] [--record-baseline]\n",
                     argv[0]);
        return 2;
      }
    }
  }

  if (gate && repo_count != kBaselineRepoCount) {
    std::fprintf(stderr,
                 "--gate compares against the recorded baseline and requires "
                 "repo_count=%d (got %d)\n",
                 kBaselineRepoCount, repo_count);
    return 2;
  }

  workload::CorpusOptions options;
  options.repo_count = repo_count;
  workload::Corpus corpus = workload::GenerateCorpus(options);
  std::vector<std::string> statements;
  for (const auto& labeled : corpus.AllStatements()) statements.push_back(labeled.sql);

  Measurement m = Measure(statements);

  std::printf("frontend throughput (repo_count=%d, %zu statements, %.2f MB, %zu tokens)\n",
              repo_count, m.statements,
              static_cast<double>(m.bytes) / (1024.0 * 1024.0), m.token_count);
  std::printf("  lex (%s)%*s %8.2f MB/s   (pre-SIMD %8.2f, %5.2fx; baseline %5.2fx)\n",
              sql::blockscan::FastTierName(),
              static_cast<int>(9 - std::strlen(sql::blockscan::FastTierName())), "",
              m.lex_mbs, kPrevLexMBs, m.lex_mbs / kPrevLexMBs,
              m.lex_mbs / kBaselineLexMBs);
  std::printf("  lex (scalar)    %8.2f MB/s   (fast tier is %5.2fx scalar)\n",
              m.lex_scalar_mbs, m.lex_mbs / m.lex_scalar_mbs);
  std::printf("  lex+parse       %8.2f MB/s   (baseline %8.2f, %5.2fx)\n",
              m.lex_parse_mbs, kBaselineLexParseMBs,
              m.lex_parse_mbs / kBaselineLexParseMBs);
  std::printf("  batch Run()     %8.0f stmt/s (baseline %8.0f, %5.2fx)\n",
              m.run_stmts_per_sec, kBaselineRunStmtsPerSec,
              m.run_stmts_per_sec / kBaselineRunStmtsPerSec);
  std::printf("  batch Run()+fix %8.0f stmt/s (fix suggestion + verification)\n",
              m.run_with_fixes_stmts_per_sec);
  std::printf("  AddScript       %8.0f stmt/s (one script, digest %s)\n",
              m.script_stmts_per_sec, m.script_digest == m.digest ? "ok" : "MISMATCH");
  std::printf("  report digest   %llu\n", static_cast<unsigned long long>(m.digest));

  if (record) {
    std::printf(
        "\npaste into the baseline block:\n"
        "constexpr int kBaselineRepoCount = %d;\n"
        "constexpr double kBaselineLexMBs = %.2f;\n"
        "constexpr double kBaselineLexParseMBs = %.2f;\n"
        "constexpr double kBaselineRunStmtsPerSec = %.0f;\n"
        "constexpr uint64_t kBaselineDigest = %lluull;\n",
        repo_count, m.lex_mbs, m.lex_parse_mbs, m.run_stmts_per_sec,
        static_cast<unsigned long long>(m.digest));
    WriteJson(m, repo_count, false, false);
    return 0;
  }

  // Digest identity is hardware-independent and therefore unconditional: the
  // zero-copy frontend must not change a single detection byte, and a script
  // load must match the per-AddQuery batch digest.
  bool ok = true;
  if (repo_count == kBaselineRepoCount && m.digest != kBaselineDigest) {
    std::fprintf(stderr,
                 "FAIL: report digest %llu != recorded pre-refactor digest %llu\n",
                 static_cast<unsigned long long>(m.digest),
                 static_cast<unsigned long long>(kBaselineDigest));
    ok = false;
  }
  if (m.script_digest != m.digest) {
    std::fprintf(stderr, "FAIL: script ingest digest %llu != batch digest %llu\n",
                 static_cast<unsigned long long>(m.script_digest),
                 static_cast<unsigned long long>(m.digest));
    ok = false;
  }

  // Only same-run ratios gate: both sides are measured in this process on
  // this machine, so a pass or fail reflects the code, not the host. The
  // cross-host baseline/pre-SIMD ratios above are printed and recorded in
  // the JSON, never enforced.
  bool gate_passed = true;
  if (gate && repo_count == kBaselineRepoCount) {
    if (m.lex_mbs < kLexFastVsScalarFloor * m.lex_scalar_mbs) {
      std::fprintf(stderr,
                   "FAIL: fast lex %.2f MB/s < %.2fx same-run scalar %.2f MB/s\n",
                   m.lex_mbs, kLexFastVsScalarFloor, m.lex_scalar_mbs);
      gate_passed = false;
    }
  }

  if (!ok || !gate_passed) {
    // A red run must not leave a plausible-looking artifact behind.
    std::remove("BENCH_frontend.json");
    std::fprintf(stderr, "refusing to write BENCH_frontend.json: checks failed\n");
    return 1;
  }
  WriteJson(m, repo_count, gate, true);
  return 0;
}
