// The sqlcheck command-line tool: the deployable surface of the paper's
// toolchain (§3, §7). Batch mode checks files (or stdin) and renders the
// ranked report as text, JSON, or SARIF 2.1.0; --follow turns the process
// into a long-lived monitor that feeds stdin line-by-line through the
// incremental AnalysisSession and reports findings per statement as they
// stream in, at O(rules) per statement regardless of history length.
//
// Exit codes (for CI gating):
//   0  clean — no anti-patterns found
//   1  findings reported
//   2  usage, I/O, or configuration error
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/strings.h"
#include "core/emit.h"
#include "core/session.h"
#include "core/sqlcheck.h"
#include "fix/fix_engine.h"
#include "fix/fixers.h"
#include "persist/fingerprint_store.h"
#include "scan/scanner.h"
#include "sql/splitter.h"

namespace {

using namespace sqlcheck;

constexpr std::string_view kUsage = R"(usage: sqlcheck [options] [file.sql ...]
       sqlcheck scan <dir> [--store <path>] [options]   (corpus mode: scan --help)

Detects, ranks, and suggests fixes for SQL anti-patterns. With no files (or
"-"), reads stdin.

options:
  --format <text|json|sarif>  output format (default: text)
  --follow                    streaming mode: read input line by line and
                              report findings per completed statement as it
                              arrives (formats: text, or json as one JSON
                              object per statement)
  --fixes                     surface the full diagnosis: json gains the fix
                              verification fields, sarif gains fixes[] with
                              artifactChange replacements (ingestible by
                              GitHub code scanning)
  --apply <out.sql>           write the workload with every verified rewrite
                              applied in place (batch mode only)
  --verify-exec <on|off|required>
                              Tier-3 differential execution of rewrite fixes:
                              original and rewrite run on an ephemeral seeded
                              database and must agree under the fixer's
                              equivalence contract. off (default) stops at
                              re-analysis; on demotes divergent rewrites;
                              required also demotes rewrites the engine
                              cannot execute. Prints per-tier counts to
                              stderr after the batch report
  --verify-seed <N>           seed for the generated verification datasets
                              (default 42); same seed, same verdicts
  --explain <NAME>            describe one rule — detection scope, impact
                              flags, and its repair strategy — and exit
  --explain-all               describe every rule and exit; with --format md,
                              emit the markdown rule reference (docs/RULES.md
                              is generated from this, CI checks the drift)
  --color                     highlight text output with ANSI colors
  --top <N>                   emit only the N highest-impact findings
  --disable <NAME[,NAME...]>  disable rules by anti-pattern name, e.g.
                              --disable "Column Wildcard Usage" (repeatable)
  --rules                     list every rule with its category and exit
  -h, --help                  show this help

exit codes: 0 = clean, 1 = findings reported, 2 = usage or I/O error
)";

constexpr std::string_view kScanUsage = R"(usage: sqlcheck scan <dir> [options]

Walks a directory tree of repositories / SQL dumps and analyzes each
repository (a first-level directory) as one workload, the way file mode
analyzes one application: its files are read in path order (SQL scripts are
split; host-language sources go through the embedded-SQL extractor;
extensionless files are content-sniffed), so inter-query rules see the
repository's DDL and sibling queries. Prints a corpus prevalence report:
per-rule occurrence counts, per-repository distribution, and a severity
histogram.

With --store, results are memoized in a persistent mmap'd fingerprint
store, one manifest per repository keyed by its files' paths, sizes and
mtimes: a warm re-scan replays every unchanged repository without opening a
file and re-analyzes a changed one whole, while the report stays
byte-identical to a cold run. The store invalidates itself when the rule
set or on-disk format version changes, and degrades to a cold scan (with a
warning) on any corruption or lock contention — never a crash or a wrong
report.

options:
  --store <path>       persistent fingerprint store (created on first scan)
  --no-store           force a cold scan even when --store is given
  --jobs <N>           worker threads, each analyzing whole repositories
                       (0 = auto: one per hardware thread, capped at the
                       repository count; default 0)
  --report <text|json> report format on stdout (default: text); operational
                       telemetry (timings, store hits) goes to stderr
  --store-verify       validate the store's header and every record, print a
                       summary, and exit (no scan; <dir> not required)
  --store-compact      rewrite the store keeping only the newest manifest per
                       repository and the records it references (dropping
                       superseded, duplicate and uncommitted ones) under a
                       bumped generation, and exit (no scan; <dir> not
                       required)
  -h, --help           show this help

stderr summary: analyzed = statements of repositories analyzed this run;
store_hits = statements replayed from unchanged repositories' manifests;
files_replayed = the files of those repositories (never opened).

exit codes: 0 = scan/maintenance completed (findings are expected output,
not an error), 1 = --store-verify found an invalid store, 2 = usage or I/O
error
)";

int ScanUsageError(const std::string& message) {
  std::cerr << "sqlcheck: " << message << "\n\n" << kScanUsage;
  return 2;
}

/// `sqlcheck scan` — the corpus-analytics entry point.
int RunScanCommand(int argc, char** argv) {
  std::string dir;
  std::string store_path;
  std::string report_format = "text";
  int jobs = 0;
  bool no_store = false;
  bool store_verify = false;
  bool store_compact = false;
  for (int i = 2; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value_of = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string value;
    if (arg == "-h" || arg == "--help") {
      std::cout << kScanUsage;
      return 0;
    } else if (arg == "--store") {
      if (!value_of(&store_path)) return ScanUsageError("--store requires a path");
    } else if (arg == "--no-store") {
      no_store = true;
    } else if (arg == "--jobs") {
      if (!value_of(&value) || !IsAllDigits(value) || value.size() > 4) {
        return ScanUsageError("--jobs expects a worker count");
      }
      jobs = std::stoi(value);
    } else if (arg == "--report") {
      if (!value_of(&report_format) ||
          (report_format != "text" && report_format != "json")) {
        return ScanUsageError("--report expects text or json");
      }
    } else if (arg == "--store-verify") {
      store_verify = true;
    } else if (arg == "--store-compact") {
      store_compact = true;
    } else if (arg.size() > 1 && arg[0] == '-') {
      return ScanUsageError("unknown option '" + std::string(arg) + "'");
    } else if (dir.empty()) {
      dir = arg;
    } else {
      return ScanUsageError("more than one scan root given");
    }
  }

  if (store_verify || store_compact) {
    if (store_path.empty()) {
      return ScanUsageError("--store-verify/--store-compact require --store <path>");
    }
    std::string summary;
    if (store_verify) {
      Status st = persist::FingerprintStore::Verify(store_path, &summary);
      if (!st.ok()) {
        std::cerr << "sqlcheck: store verification FAILED: " << st.message() << "\n";
        return 1;
      }
      std::cout << "store ok: " << summary << "\n";
      return 0;
    }
    uint64_t ruleset_hash =
        persist::FingerprintStore::RulesetHash(RuleRegistry::Default());
    Status st = persist::FingerprintStore::Compact(store_path, ruleset_hash, &summary);
    if (!st.ok()) {
      std::cerr << "sqlcheck: store compaction failed: " << st.message() << "\n";
      return 2;
    }
    std::cout << "store compacted: " << summary << "\n";
    return 0;
  }

  if (dir.empty()) return ScanUsageError("scan requires a directory to walk");

  scan::ScanOptions options;
  options.store_path = no_store ? std::string() : store_path;
  options.jobs = jobs;
  scan::CorpusScanner scanner(options);
  Result<scan::ScanReport> result = scanner.Scan(dir);
  if (!result.ok()) {
    std::cerr << "sqlcheck: " << result.message() << "\n";
    return 2;
  }
  const scan::ScanReport& report = result.value();
  std::cout << (report_format == "json" ? report.ToJson() : report.ToText());

  const scan::ScanSummary& summary = scanner.summary();
  std::fprintf(stderr,
               "sqlcheck: scanned %llu repos / %llu files / %llu statements "
               "in %.3fs (jobs=%d, skipped=%llu)\n",
               static_cast<unsigned long long>(report.repos),
               static_cast<unsigned long long>(report.files),
               static_cast<unsigned long long>(report.statements), summary.seconds,
               summary.jobs, static_cast<unsigned long long>(summary.files_skipped));
  // Counter meanings are documented in kScanUsage.
  std::fprintf(stderr, "sqlcheck: analyzed=%llu store_hits=%llu files_replayed=%llu\n",
               static_cast<unsigned long long>(summary.analyzed),
               static_cast<unsigned long long>(summary.store_reused),
               static_cast<unsigned long long>(summary.files_reused));
  if (summary.store_enabled) {
    std::fprintf(stderr,
                 "sqlcheck: store: entries=%llu files=%llu appended=%llu "
                 "hits=%llu misses=%llu file_hits=%llu file_misses=%llu "
                 "bytes=%llu generation=%llu\n",
                 static_cast<unsigned long long>(summary.store.entries),
                 static_cast<unsigned long long>(summary.store.file_entries),
                 static_cast<unsigned long long>(summary.store.appended),
                 static_cast<unsigned long long>(summary.store.hits),
                 static_cast<unsigned long long>(summary.store.misses),
                 static_cast<unsigned long long>(summary.store.file_hits),
                 static_cast<unsigned long long>(summary.store.file_misses),
                 static_cast<unsigned long long>(summary.store.bytes),
                 static_cast<unsigned long long>(summary.store.generation));
    if (!summary.store.warning.empty()) {
      std::fprintf(stderr, "sqlcheck: store warning: %s\n",
                   summary.store.warning.c_str());
    }
  }
  return 0;
}

enum class Format { kText, kJson, kSarif, kMarkdown };

struct CliOptions {
  Format format = Format::kText;
  bool explain_all = false;
  bool follow = false;
  bool fixes = false;
  bool color = false;
  size_t top = 0;
  ExecVerifyOptions verify_exec;  ///< --verify-exec / --verify-seed.
  std::string apply_path;  ///< --apply target ("" = off).
  std::vector<std::string> disabled;
  std::vector<std::string> files;
};

int UsageError(const std::string& message) {
  std::cerr << "sqlcheck: " << message << "\n\n" << kUsage;
  return 2;
}

std::string ImpactList(const ApInfo& info) {
  std::string out;
  auto add = [&](bool on, const char* label) {
    if (!on) return;
    if (!out.empty()) out += ", ";
    out += label;
  };
  add(info.performance, "performance");
  add(info.maintainability, "maintainability");
  add(info.data_amplification, "data-amplification");
  add(info.data_integrity, "data-integrity");
  add(info.accuracy, "accuracy");
  return out.empty() ? "—" : out;
}

const char* ScopeDescription(const Rule* rule) {
  return rule != nullptr && rule->query_scope() == QueryRuleScope::kStatementLocal
             ? "statement-local (analyzed once per unique statement, memoized)"
             : "workload-sensitive (re-evaluated as the workload grows)";
}

/// One rule's catalog entry in text form: --explain prints it, --explain-all
/// prints it for every rule.
void PrintTextEntry(const ApInfo& info, const Rule* rule) {
  std::printf("%s  (category: %s)\n", info.name, CategoryName(info.category));
  std::printf("  slug: %s\n", ApSlug(info.type).c_str());
  std::printf("  impact: %s\n", ImpactList(info).c_str());
  std::printf("  detection: %s\n", ScopeDescription(rule));
  std::printf("  fix: %s\n", FixerContract(info.type));
}

bool ParseArgs(int argc, char** argv, CliOptions* cli, int* exit_code) {
  auto value_of = [&](int* i, std::string_view flag, std::string* out) {
    if (*i + 1 >= argc) {
      *exit_code = UsageError(std::string(flag) + " requires a value");
      return false;
    }
    *out = argv[++*i];
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    std::string value;
    if (arg == "-h" || arg == "--help") {
      std::cout << kUsage;
      *exit_code = 0;
      return false;
    } else if (arg == "--rules") {
      std::cout << "sqlcheck rules (disable with --disable \"<name>\"):\n\n";
      for (int t = 0; t < kAntiPatternCount; ++t) {
        const ApInfo& info = InfoFor(static_cast<AntiPattern>(t));
        std::printf("  %-28s %-16s impact:%s%s%s%s%s\n", info.name,
                    CategoryName(info.category), info.performance ? " perf" : "",
                    info.maintainability ? " maint" : "",
                    info.data_amplification ? " amplification" : "",
                    info.data_integrity ? " integrity" : "",
                    info.accuracy ? " accuracy" : "");
      }
      *exit_code = 0;
      return false;
    } else if (arg == "--format") {
      if (!value_of(&i, arg, &value)) return false;
      if (value == "text") {
        cli->format = Format::kText;
      } else if (value == "json") {
        cli->format = Format::kJson;
      } else if (value == "sarif") {
        cli->format = Format::kSarif;
      } else if (value == "md") {
        cli->format = Format::kMarkdown;
      } else {
        *exit_code = UsageError("unknown format '" + value + "'");
        return false;
      }
    } else if (arg == "--follow") {
      cli->follow = true;
    } else if (arg == "--fixes") {
      cli->fixes = true;
    } else if (arg == "--apply") {
      if (!value_of(&i, arg, &value)) return false;
      cli->apply_path = value;
    } else if (arg == "--verify-exec") {
      if (!value_of(&i, arg, &value)) return false;
      if (value == "off") {
        cli->verify_exec.mode = ExecVerifyMode::kOff;
      } else if (value == "on") {
        cli->verify_exec.mode = ExecVerifyMode::kOn;
      } else if (value == "required") {
        cli->verify_exec.mode = ExecVerifyMode::kRequired;
      } else {
        *exit_code = UsageError("--verify-exec expects on, off, or required, got '" +
                                value + "'");
        return false;
      }
    } else if (arg == "--verify-seed") {
      if (!value_of(&i, arg, &value)) return false;
      if (!IsAllDigits(value) || value.size() > 18) {
        *exit_code = UsageError("--verify-seed expects a number, got '" + value + "'");
        return false;
      }
      cli->verify_exec.seed = std::stoull(value);
    } else if (arg == "--explain") {
      if (!value_of(&i, arg, &value)) return false;
      const ApInfo* info = FindApInfoByName(Trim(value));
      if (info == nullptr) {
        *exit_code = UsageError("--explain: unknown rule '" + value +
                                "' (see --rules for the catalog)");
        return false;
      }
      PrintTextEntry(*info, RuleRegistry::Default().FindRule(info->type));
      std::printf("  every mechanical rewrite climbs a tiered verification pipeline: "
                  "it must re-parse (tier 1),\n  re-analysis must no longer report the "
                  "anti-pattern (tier 2), and under --verify-exec the\n  rewrite must "
                  "execute to results equivalent to the original under the fixer's "
                  "declared\n  contract (tier 3); any failure demotes the fix to "
                  "guidance with the reason attached\n");
      *exit_code = 0;
      return false;
    } else if (arg == "--explain-all") {
      cli->explain_all = true;
    } else if (arg == "--color") {
      cli->color = true;
    } else if (arg == "--top") {
      if (!value_of(&i, arg, &value)) return false;
      // 9-digit cap keeps std::stoull comfortably in range.
      if (!IsAllDigits(value) || value.size() > 9) {
        *exit_code = UsageError("--top expects a number, got '" + value + "'");
        return false;
      }
      cli->top = static_cast<size_t>(std::stoull(value));
    } else if (arg == "--disable") {
      if (!value_of(&i, arg, &value)) return false;
      for (const auto& name : Split(value, ',')) {
        std::string trimmed(Trim(name));
        if (!trimmed.empty()) cli->disabled.push_back(std::move(trimmed));
      }
    } else if (arg.size() > 1 && arg[0] == '-' && arg != "-") {
      *exit_code = UsageError("unknown option '" + std::string(arg) + "'");
      return false;
    } else {
      cli->files.emplace_back(arg);
    }
  }
  return true;
}

/// --explain-all: the whole 27-rule catalog. The md flavor IS docs/RULES.md —
/// CI regenerates it and fails on drift, so the rule reference can never fall
/// out of sync with the registry.
int ExplainAll(Format format) {
  RuleRegistry registry = RuleRegistry::Default();
  if (format == Format::kMarkdown) {
    std::printf(
        "<!-- GENERATED FILE - do not edit by hand.\n"
        "     Regenerate with: sqlcheck --explain-all --format md > docs/RULES.md\n"
        "     CI regenerates this file and fails the build on any diff. -->\n\n");
    std::printf("# Rule Reference\n\n");
    std::printf(
        "All %d anti-pattern rules, grouped by catalog category. **Slug** is the\n"
        "stable machine identifier used as the SARIF rule id; **Name** is the\n"
        "display name accepted by `--disable` and `--explain`. Detection scope\n"
        "explains the incremental-analysis cost model: statement-local rules are\n"
        "memoized per unique statement, workload-sensitive rules re-run as\n"
        "context accumulates. Every mechanical fix climbs a tiered verification\n"
        "pipeline: it must re-parse (tier 1), re-analysis must no longer report\n"
        "the anti-pattern (tier 2), and under `--verify-exec` the rewrite must\n"
        "execute to results equivalent to the original on an ephemeral seeded\n"
        "database, judged under the fixer's declared equivalence contract\n"
        "(tier 3). Any failure demotes the fix to guidance with the reason\n"
        "attached.\n",
        kAntiPatternCount);
    constexpr ApCategory kCategories[] = {ApCategory::kLogicalDesign,
                                          ApCategory::kPhysicalDesign,
                                          ApCategory::kQuery, ApCategory::kData};
    for (ApCategory category : kCategories) {
      std::printf("\n## %s\n", CategoryName(category));
      for (int t = 0; t < kAntiPatternCount; ++t) {
        const ApInfo& info = InfoFor(static_cast<AntiPattern>(t));
        if (info.category != category) continue;
        const Rule* rule = registry.FindRule(info.type);
        std::printf("\n### %s\n\n", info.name);
        std::printf("- **Slug:** `%s`\n", ApSlug(info.type).c_str());
        std::printf("- **Impact:** %s\n", ImpactList(info).c_str());
        std::printf("- **Detection:** %s\n", ScopeDescription(rule));
        std::printf("- **Fix:** %s\n", FixerContract(info.type));
      }
    }
    return 0;
  }
  for (int t = 0; t < kAntiPatternCount; ++t) {
    const ApInfo& info = InfoFor(static_cast<AntiPattern>(t));
    PrintTextEntry(info, registry.FindRule(info.type));
    std::printf("\n");
  }
  return 0;
}

/// Streams findings for one just-checked statement (text flavor).
void PrintDeltaText(const Report& report, size_t statement_index, bool color) {
  const char* reset = color ? "\x1b[0m" : "";
  const char* bold = color ? "\x1b[1m" : "";
  for (const Finding& f : report.findings) {
    const Detection& d = f.ranked.detection;
    std::cout << "stmt " << statement_index << "  " << bold << ApName(d.type) << reset
              << " (score " << f.ranked.score << ")";
    if (!d.table.empty()) {
      std::cout << " at " << d.table;
      if (!d.column.empty()) std::cout << "." << d.column;
    }
    std::cout << ": " << d.message << "\n";
  }
  std::cout.flush();
}

/// Streams findings for one just-checked statement (NDJSON flavor: one
/// compact object per statement).
void PrintDeltaJson(const Report& report, size_t statement_index,
                    std::string_view sql) {
  std::string line = "{\"statement\": " + std::to_string(statement_index);
  line += ", \"sql\": \"";
  AppendJsonEscaped(&line, sql);
  line += "\", \"findings\": [";
  for (size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    const Detection& d = f.ranked.detection;
    line += i == 0 ? "{\"rule\": \"" : ", {\"rule\": \"";
    AppendJsonEscaped(&line, ApName(d.type));
    line += "\", \"score\": ";
    AppendScore(&line, f.ranked.score);
    line += ", \"table\": \"";
    AppendJsonEscaped(&line, d.table);
    line += "\", \"column\": \"";
    AppendJsonEscaped(&line, d.column);
    line += "\", \"message\": \"";
    AppendJsonEscaped(&line, d.message);
    line += "\"}";
  }
  line += "]}";
  std::cout << line << std::endl;  // flush per statement: monitors tail this
}

/// --follow loop: accumulate lines, peel off completed statements, and
/// Check each against the session. Statement completeness comes from the
/// splitter itself (a top-level terminating `;`), so a `;` inside a
/// BEGIN...END trigger body or a string literal keeps buffering instead of
/// mis-analyzing a fragment. Returns the number of findings streamed out.
size_t FollowStream(std::istream& in, AnalysisSession* session, const CliOptions& cli) {
  size_t findings = 0;
  std::string buffer;
  std::string line;
  auto drain = [&](bool flush) {
    if (Trim(buffer).empty()) return;
    bool terminated = false;
    std::vector<std::string_view> pieces = sql::SplitStatements(buffer, &terminated);
    size_t complete = flush || terminated ? pieces.size()
                      : pieces.empty()   ? 0
                                         : pieces.size() - 1;
    for (size_t p = 0; p < complete; ++p) {
      Report report = session->Check(pieces[p]);
      findings += report.findings.size();
      size_t index = session->statement_count() - 1;
      if (cli.format == Format::kJson) {
        PrintDeltaJson(report, index, pieces[p]);
      } else {
        PrintDeltaText(report, index, cli.color);
      }
    }
    // Keep the unterminated fragment (newline restored so a trailing `--`
    // comment cannot swallow the next line). The pieces are views into
    // `buffer`, so materialize the tail before overwriting it.
    std::string remainder =
        complete < pieces.size() ? std::string(pieces.back()) + "\n" : std::string();
    buffer = std::move(remainder);
  };
  while (std::getline(in, line)) {
    buffer += line;
    buffer += '\n';
    // Any ';' in the buffer may have completed a statement — even
    // mid-line, with trailing comments or a second fragment after it. The
    // splitter's `complete` flag rejects the false positives (';' inside
    // strings or open BEGIN...END bodies), at the cost of re-lexing the
    // retained buffer; that buffer only spans the current open statement.
    if (buffer.find(';') == std::string::npos) continue;
    drain(/*flush=*/false);
  }
  drain(/*flush=*/true);
  return findings;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string_view(argv[1]) == "scan") {
    return RunScanCommand(argc, argv);
  }
  CliOptions cli;
  int exit_code = 0;
  if (!ParseArgs(argc, argv, &cli, &exit_code)) return exit_code;

  // Validate --disable against the known anti-pattern names up front.
  for (const auto& name : cli.disabled) {
    if (FindApInfoByName(name) == nullptr) {
      return UsageError("--disable: unknown rule '" + name +
                        "' (see --rules for the catalog)");
    }
  }
  if (cli.explain_all) return ExplainAll(cli.format);
  if (cli.format == Format::kMarkdown) {
    return UsageError("--format md is only meaningful with --explain-all");
  }
  if (cli.follow && cli.format == Format::kSarif) {
    return UsageError("--follow supports text and json output, not sarif");
  }
  if (cli.follow && !cli.apply_path.empty()) {
    return UsageError("--apply requires batch mode, not --follow");
  }

  SqlCheckOptions options;
  options.disabled_rules = cli.disabled;
  options.verify_exec = cli.verify_exec;
  AnalysisSession session(options);
  if (!session.status().ok()) {
    std::cerr << "sqlcheck: " << session.status().message() << "\n";
    return 2;
  }

  bool use_stdin = cli.files.empty() || (cli.files.size() == 1 && cli.files[0] == "-");

  if (cli.follow) {
    size_t findings = 0;
    if (use_stdin) {
      findings = FollowStream(std::cin, &session, cli);
    } else {
      for (const auto& path : cli.files) {
        std::ifstream in(path);
        if (!in) {
          std::cerr << "sqlcheck: cannot open '" << path << "'\n";
          return 2;
        }
        findings += FollowStream(in, &session, cli);
      }
    }
    return findings > 0 ? 1 : 0;
  }

  // Batch: ingest everything, snapshot once. The raw workload text is kept
  // for SARIF fix replacement regions (--fixes).
  std::string workload;
  if (use_stdin) {
    std::ostringstream content;
    content << std::cin.rdbuf();
    workload = content.str();
    session.AddScript(workload);
  } else {
    for (const auto& path : cli.files) {
      std::ifstream in(path);
      if (!in) {
        std::cerr << "sqlcheck: cannot open '" << path << "'\n";
        return 2;
      }
      std::ostringstream content;
      content << in.rdbuf();
      std::string text = content.str();
      session.AddScript(text);
      workload += text;
    }
  }

  Report report = session.Snapshot();
  EmitOptions emit;
  emit.max_findings = cli.top;
  emit.include_fixes = cli.fixes;
  if (cli.files.size() == 1 && cli.files[0] != "-") {
    emit.artifact_uri = cli.files[0];
    if (cli.fixes) emit.artifact_content = workload;
  }
  switch (cli.format) {
    case Format::kText: std::cout << report.ToText(cli.top, cli.color); break;
    case Format::kJson: std::cout << ToJson(report, emit); break;
    case Format::kSarif: std::cout << ToSarif(report, emit); break;
    case Format::kMarkdown: break;  // rejected above: md pairs with --explain-all
  }

  if (cli.verify_exec.mode != ExecVerifyMode::kOff) {
    // Tier telemetry goes to stderr so the report stream stays parseable.
    const VerifyStats& vs = session.verify_stats();
    std::cerr << "sqlcheck: verify tiers — exec: " << vs.tier_exec
              << ", analysis: " << vs.tier_analysis << ", parse: " << vs.tier_parse
              << ", demoted: " << vs.demoted << " (exec runs: " << vs.exec_runs
              << ", infeasible: " << vs.exec_infeasible
              << ", memo hits: " << vs.memo_hits << "/"
              << (vs.memo_hits + vs.memo_misses) << ")\n";
  }

  if (!cli.apply_path.empty()) {
    size_t applied = 0;
    std::string rewritten = ApplyFixes(session.context(), report, &applied);
    std::ofstream out(cli.apply_path);
    if (!out) {
      std::cerr << "sqlcheck: cannot write '" << cli.apply_path << "'\n";
      return 2;
    }
    out << rewritten;
    std::cerr << "sqlcheck: wrote " << cli.apply_path << " (" << applied
              << " statement(s) rewritten)\n";
  }
  return report.empty() ? 0 : 1;
}
