#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/context.h"
#include "core/report.h"
#include "fix/fix.h"
#include "fix/rewriter.h"
#include "fix/verify.h"
#include "rules/registry.h"

namespace sqlcheck {

/// \brief ap-fix (Algorithm 4), refactored from a monolithic switch into the
/// registry's per-rule Fixer objects plus this thin orchestrator. For each
/// detection the engine
///   1. looks up the detection's action half (RuleRegistry::FindFixer),
///   2. lets it propose a fix (mechanical AST rewrite or textual guidance),
///   3. anchors provenance — data anti-patterns get the owning table's DDL
///      (or "table.column") as original_sql so emitters can always place the
///      fix somewhere,
///   4. runs every kRewrite proposal through the tiered verification
///      pipeline (fix/verify.h): Tier 1 re-parse, Tier 2 re-analysis with
///      the originating rule, Tier 3 (when --verify-exec is on) differential
///      execution against an ephemeral seeded database under the fixer's
///      declared equivalence contract. A proposal that fails any required
///      tier is demoted to kTextual with the reason in Fix::verify_note; the
///      tier it reached is recorded in Fix::verify_tier.
class FixEngine {
 public:
  /// `registry` supplies both halves (rules for verification, fixers for
  /// proposals) and must outlive the engine. `config` is the detector
  /// configuration re-analysis runs under (thresholds change what "fixed"
  /// means). `exec_options` controls Tier 3. `memo`/`stats`, when non-null,
  /// let a long-lived owner (the AnalysisSession) persist verification
  /// verdicts and telemetry across engine instances — the engine itself is
  /// scoped to one report assembly; without them it falls back to an
  /// engine-local memo. `tokens`, when non-null, is the owner's lexer
  /// storage, which Tier-1/2 verification reuses instead of its own.
  explicit FixEngine(const RuleRegistry& registry, DetectorConfig config = {},
                     ExecVerifyOptions exec_options = {},
                     VerifyMemo* memo = nullptr, VerifyStats* stats = nullptr,
                     sql::TokenBuffer* tokens = nullptr);

  /// Suggests a (verified) fix for one detection.
  Fix SuggestFix(const Detection& detection, const Context& context) const;

  /// Suggests fixes for a ranked batch, in order.
  std::vector<Fix> SuggestFixes(const std::vector<Detection>& detections,
                                const Context& context) const;

 private:
  /// The full pipeline for one kRewrite proposal: Tier 1 + Tier 2 via the
  /// AST rewriter's re-parse/re-analysis check, Tier 3 via differential
  /// execution when enabled and the fixer declares an applicable contract.
  VerifyVerdict VerifyTiered(const Fix& fix, const Fixer* fixer,
                             const Context& context) const;

  const RuleRegistry* registry_;
  DetectorConfig config_;
  ExecVerifyOptions exec_options_;
  /// Verification verdict per unique (type, original, rewritten statements)
  /// proposal. Re-verifying an identical rewrite — workloads repeat the same
  /// offending shapes constantly — is pure waste, and Tier 3 makes a miss
  /// genuinely expensive (it builds and populates a database). Points at the
  /// session's memo when provided, else at own_memo_.
  VerifyMemo* memo_;
  mutable VerifyMemo own_memo_;
  VerifyStats* stats_;  ///< Null when the owner does not collect telemetry.
  /// Tier-1/2 parse storage (see VerifyRewrite): an arena that lives as long
  /// as the engine, one report assembly, and the owner's TokenBuffer when
  /// given, else own_tokens_.
  mutable Arena verify_arena_;
  sql::TokenBuffer* tokens_;
  mutable sql::TokenBuffer own_tokens_;
};

/// \brief Applies every verified statement-replacing rewrite in `report` to
/// the workload `context` was built from and returns the rewritten script:
/// statements stay in workload order, each offender replaced by its rewrite.
/// Findings are visited in report order (ap-rank order), so when two fixes
/// target the same statement the higher-impact rewrite wins. Additive DDL
/// fixes (CREATE INDEX, ALTER TABLE, ...) are *not* appended — they change
/// the schema and belong to a migration the developer reviews. Backs the
/// CLI's --apply flag; under --verify-exec every rewrite applied here has
/// passed differential execution (Fix::verify_tier == kExec). `applied_count`
/// (optional) receives the number of statements that were replaced.
std::string ApplyFixes(const Context& context, const Report& report,
                       size_t* applied_count = nullptr);

}  // namespace sqlcheck
