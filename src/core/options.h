#pragma once

#include <string>
#include <vector>

#include "analysis/data_analyzer.h"
#include "fix/verify.h"
#include "ranking/model.h"
#include "rules/rule.h"

namespace sqlcheck {

/// \brief Hard growth caps for a long-lived AnalysisSession. A batch run
/// obviously bounds its own memory (the workload is finite), but a session
/// fed by an untrusted network peer does not — the parse-tree arena, the
/// fingerprint memos, and the name interner all grow monotonically with the
/// statement stream. The sqlcheck-server holds one session per tenant, so
/// each cap here is a per-tenant quota: once a limit is reached the session
/// refuses further appends (AnalysisSession::quota_status() reports why)
/// while Check()/Snapshot() over the already-ingested history keep working.
/// 0 = unlimited (the default, so process-local callers are unaffected).
struct SessionLimits {
  /// Statements the session may hold; appends are refused at the cap.
  size_t max_statements = 0;
  /// Raw SQL bytes the session may ingest across its lifetime. Enforced
  /// before parsing: a request that would cross the cap is refused whole.
  size_t max_ingest_bytes = 0;
  /// Reserved-byte cap on the session's parse-tree arena. Checked before
  /// each append, so growth overshoots by at most one chunk (<= 1 MiB).
  size_t arena_cap_bytes = 0;
  /// Distinct identifiers the session's name interner may hold.
  size_t interner_cap_names = 0;

  bool unlimited() const {
    return max_statements == 0 && max_ingest_bytes == 0 && arena_cap_bytes == 0 &&
           interner_cap_names == 0;
  }
};

/// \brief Top-level configuration for a SqlCheck run: which analyses are
/// enabled, rule thresholds, sampling, and the ranking model shape.
struct SqlCheckOptions {
  DetectorConfig detector;
  DataAnalyzerOptions data_analyzer;
  RankingWeights ranking_weights = RankingWeights::C1();
  InterQueryMode ranking_mode = InterQueryMode::kByScore;

  /// Run ap-fix (Algorithm 4) after ranking: each detection's registered
  /// Fixer proposes a repair and every mechanical rewrite is self-verified
  /// (re-parse + re-analysis) before it is attached. Turning this off skips
  /// the whole diagnosis pipeline — findings carry an empty Fix and the
  /// detection stream is byte-identical either way.
  bool suggest_fixes = true;

  /// Memoize query analysis and rule evaluation by statement fingerprint:
  /// statements whose canonical token stream matches (whitespace, comments,
  /// and keyword case folded) are analyzed and rule-checked once, and the
  /// results fan out to every occurrence. Real workloads re-issue the same
  /// parameterized statements constantly, so this is a large win at zero
  /// accuracy cost — reports are byte-identical either way. Disable it only
  /// for custom rules that embed a statement's raw text outside
  /// Detection::query (see Rule::CheckQuery).
  bool dedup_queries = true;

  /// Tier-3 differential execution of rewrite fixes (fix/verify.h): off (the
  /// default — fixes stop at Tier 2, output stays byte-identical to PR 5),
  /// on (rewrites that diverge under their fixer's equivalence contract are
  /// demoted; engine-infeasible checks keep Tier 2), or required (infeasible
  /// checks demote too). The seed makes the generated datasets — and thus
  /// the verdicts — reproducible.
  ExecVerifyOptions verify_exec;

  /// Rules to leave out of the run, by anti-pattern display name (ApName,
  /// ASCII-case-insensitive — e.g. "Column Wildcard Usage"). Validated
  /// against the known anti-patterns when the checker is constructed: an
  /// unknown name surfaces as an error status (AnalysisSession::status())
  /// and the full rule set stays active. The CLI's --disable flag plumbs
  /// straight into this.
  std::vector<std::string> disabled_rules;

  /// Per-session growth quotas (see SessionLimits). Defaults to unlimited;
  /// the sqlcheck-server sets these per tenant from its flags.
  SessionLimits limits;

  /// Wall-clock budget (milliseconds) one statement may spend landing (memo
  /// probe, or parse for a new text) and in analysis before its fingerprint
  /// is quarantined (0 = off). The
  /// statement that blows the budget still lands — its results are valid —
  /// but repeats of it are refused in O(1), so one pathological statement
  /// cannot grind a shared worker down twice. The server's
  /// --statement-budget-ms flag plumbs straight into this.
  int statement_budget_ms = 0;

  /// Entries the poisoned-statement quarantine LRU retains (see
  /// AnalysisSession::recent_failures). Bounded so an adversarial stream of
  /// distinct poisoned statements costs O(capacity) memory, not O(stream).
  size_t quarantine_capacity = 256;
};

}  // namespace sqlcheck
