#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>

namespace sqlcheck {

// ---------------------------------------------------------------------------
// Tiered rewrite verification (SQLRepair's lesson, applied in depth)
// ---------------------------------------------------------------------------
//
// A kRewrite proposal climbs three verification tiers before it may be
// --apply'd:
//   Tier 1 (parse):    every rewritten statement re-lexes and re-parses to a
//                      recognized statement kind.
//   Tier 2 (analysis): re-analysis with the originating rule no longer
//                      reports the anti-pattern.
//   Tier 3 (exec):     differential execution — original and rewrite run on
//                      an ephemeral seeded database and their results must
//                      be equivalent under the fixer's declared contract.
// The tier a fix *reached* is recorded on the fix (Fix::verify_tier) and
// surfaced through the JSON/SARIF emitters, so a consumer can distinguish
// "re-parses and kills the pattern" from "provably computes the same result".

/// \brief Highest verification tier a fix passed. Order is meaningful:
/// each tier implies every tier below it.
enum class VerifyTier {
  kNone = 0,      ///< Not verified (textual fixes, or a failed proposal).
  kParse = 1,     ///< Re-parses cleanly (rule unavailable for re-analysis).
  kAnalysis = 2,  ///< Re-parses and re-analysis is clean.
  kExec = 3,      ///< Differentially executed to equivalent results.
};

inline const char* VerifyTierName(VerifyTier tier) {
  switch (tier) {
    case VerifyTier::kNone: return "none";
    case VerifyTier::kParse: return "parse";
    case VerifyTier::kAnalysis: return "analysis";
    case VerifyTier::kExec: return "exec";
  }
  return "none";
}

/// \brief How Tier 3 judges a fixer's rewrites. Declared per fixer
/// (Fixer::equivalence()) because the mechanical rewrites are *not* all
/// meant to be result-identical: the ORDER BY RAND() probe and the COALESCE
/// wrap intentionally change results, and demoting them for diverging would
/// be a false demotion.
enum class EquivalenceContract {
  /// Result sets must match row-for-row in order (SELECT), or the database
  /// states after execution must match exactly (DML on identically-seeded
  /// databases).
  kExactOrdered,
  /// Result rows must match as a multiset — same rows, any order.
  kMultiset,
  /// Results intentionally differ (documented in the fixer's contract);
  /// Tier 3 only requires that the rewrite *executes* successfully on
  /// populated tables.
  kDocumentedDivergence,
  /// Tier 3 does not apply (additive DDL, textual guidance); the fix stops
  /// at Tier 2.
  kNotApplicable,
};

inline const char* EquivalenceContractName(EquivalenceContract contract) {
  switch (contract) {
    case EquivalenceContract::kExactOrdered: return "exact-ordered";
    case EquivalenceContract::kMultiset: return "multiset";
    case EquivalenceContract::kDocumentedDivergence: return "documented-divergence";
    case EquivalenceContract::kNotApplicable: return "not-applicable";
  }
  return "not-applicable";
}

/// \brief Tier-3 policy knob (CLI --verify-exec).
enum class ExecVerifyMode {
  kOff,       ///< Tier 3 never runs; fixes stop at Tier 2 (the PR-5 behavior).
  kOn,        ///< Tier 3 runs; infeasible executions (engine limits) keep Tier 2.
  kRequired,  ///< Tier 3 must pass; infeasible executions demote the fix.
};

/// \brief Tier-3 configuration carried by SqlCheckOptions. Everything here is
/// deterministic: the same options over the same workload produce the same
/// verdicts, bit for bit.
struct ExecVerifyOptions {
  ExecVerifyMode mode = ExecVerifyMode::kOff;
  /// Seed for generated table rows (and the executors' RAND()). Changing it
  /// re-verifies against a different deterministic dataset.
  uint64_t seed = 42;
};

/// \brief Verdict of the full tiered pipeline for one proposal, memoizable
/// across snapshots (AnalysisSession keys it by type + original + rewritten
/// statements; the exec options are session-constant).
struct VerifyVerdict {
  bool ok = false;
  VerifyTier tier = VerifyTier::kNone;  ///< Highest tier reached when ok.
  std::string note;  ///< Why the fix was demoted ("" when ok and unremarkable).
};

/// Verification verdict per unique (type, original, rewritten statements)
/// proposal. Owned by the AnalysisSession so verdicts persist across
/// Check()/Snapshot() calls — Tier 3 is the expensive tier, and workloads
/// repeat the same offending shapes constantly.
using VerifyMemo = std::unordered_map<std::string, VerifyVerdict>;

/// \brief Pipeline telemetry (CLI stderr summary, server `stats` op).
/// Tier buckets count suggested kRewrite fixes by the tier they reached;
/// `demoted` counts proposals the pipeline pushed back to textual guidance.
struct VerifyStats {
  size_t tier_parse = 0;
  size_t tier_analysis = 0;
  size_t tier_exec = 0;
  size_t demoted = 0;
  size_t exec_runs = 0;        ///< Fresh differential executions performed.
  size_t exec_infeasible = 0;  ///< Executions the engine could not complete.
  size_t memo_hits = 0;
  size_t memo_misses = 0;
};

}  // namespace sqlcheck
