#include "fix/fix_engine.h"

#include <map>
#include <string_view>
#include <utility>

#include "common/strings.h"
#include "fix/fixer.h"
#include "fix/rewriter.h"
#include "fix/verify_exec.h"

namespace sqlcheck {

namespace {

/// Data anti-patterns detect on table profiles, not statements, so their
/// fixes arrive with no query to anchor to. Anchor them to the owning
/// table's DDL when the workload carries it (the per-table statement index
/// makes this O(statements-on-table)), else to a "table.column" locator.
void AnchorProvenance(Fix* fix, const Detection& d, const Context& context) {
  if (!fix->original_sql.empty() || d.table.empty()) return;
  for (const QueryFacts* facts : context.QueriesReferencing(d.table)) {
    if (facts->kind == sql::StatementKind::kCreateTable && !facts->raw_sql.empty()) {
      fix->original_sql = facts->raw_sql;
      return;
    }
  }
  fix->original_sql = d.table;
  if (!d.column.empty()) {
    fix->original_sql += '.';
    fix->original_sql += d.column;
  }
}

}  // namespace

FixEngine::FixEngine(const RuleRegistry& registry, DetectorConfig config,
                     ExecVerifyOptions exec_options, VerifyMemo* memo,
                     VerifyStats* stats, sql::TokenBuffer* tokens)
    : registry_(&registry),
      config_(config),
      exec_options_(exec_options),
      memo_(memo),
      stats_(stats),
      tokens_(tokens != nullptr ? tokens : &own_tokens_) {}

VerifyVerdict FixEngine::VerifyTiered(const Fix& fix, const Fixer* fixer,
                                      const Context& context) const {
  VerifyVerdict verdict;

  // Tiers 1 + 2: re-parse, then re-analysis with the originating rule. When
  // the rule is unavailable (custom fixer without a detection half) the
  // check stops at the parse tier.
  const Rule* rule = registry_->FindRule(fix.type);
  RewriteCheck check =
      VerifyRewrite(fix, rule, context, config_, &verify_arena_, tokens_);
  if (!check.ok) {
    verdict.ok = false;
    verdict.tier = VerifyTier::kNone;
    verdict.note = check.reason;
    return verdict;
  }
  verdict.ok = true;
  verdict.tier = rule != nullptr ? VerifyTier::kAnalysis : VerifyTier::kParse;

  // Tier 3: differential execution, gated on the mode and the fixer's
  // declared contract.
  if (exec_options_.mode == ExecVerifyMode::kOff) return verdict;
  EquivalenceContract contract = fixer != nullptr
                                     ? fixer->equivalence()
                                     : EquivalenceContract::kNotApplicable;
  ExecCheck exec = VerifyByExecution(fix, contract, context, exec_options_);
  switch (exec.outcome) {
    case ExecCheck::Outcome::kSkipped:
      // Tier 3 does not apply to this fix; Tier 2 is its ceiling.
      return verdict;
    case ExecCheck::Outcome::kEquivalent:
      if (stats_ != nullptr) ++stats_->exec_runs;
      verdict.tier = VerifyTier::kExec;
      return verdict;
    case ExecCheck::Outcome::kDivergent:
      if (stats_ != nullptr) ++stats_->exec_runs;
      verdict.ok = false;
      verdict.tier = VerifyTier::kNone;
      verdict.note = "differential execution (" +
                     std::string(EquivalenceContractName(contract)) +
                     " contract): " + exec.note;
      return verdict;
    case ExecCheck::Outcome::kInfeasible:
      if (stats_ != nullptr) ++stats_->exec_infeasible;
      if (exec_options_.mode == ExecVerifyMode::kRequired) {
        verdict.ok = false;
        verdict.tier = VerifyTier::kNone;
        verdict.note = "differential execution required but infeasible: " + exec.note;
      }
      // kOn: an engine limitation must not demote a fix that passed Tier 2.
      return verdict;
  }
  return verdict;
}

Fix FixEngine::SuggestFix(const Detection& d, const Context& context) const {
  Fix fix;
  const Fixer* fixer = registry_->FindFixer(d.type);
  if (fixer == nullptr) {
    // Custom rule without a registered action half: generic guidance.
    fix.type = d.type;
    fix.original_sql = d.query;
    fix.kind = FixKind::kTextual;
    fix.explanation = "review the detected anti-pattern";
  } else {
    fix = fixer->Propose(d, context);
  }
  // A custom fixer may replace the statement without naming its edits: the
  // rewrite then replaces the statement's whole text.
  if (fix.replaces_original && fix.edits.empty() && fix.statements.size() == 1) {
    const auto length = static_cast<uint32_t>(fix.original_sql.size());
    fix.edits.push_back({0, length, fix.statements[0]});
  }
  AnchorProvenance(&fix, d, context);

  if (fix.kind == FixKind::kRewrite) {
    // Tier 3 executes the original too, so the memo key must cover it:
    // distinct originals can share a rewritten spelling yet behave
    // differently on the ephemeral database.
    std::string memo_key;
    memo_key.reserve(96);
    memo_key += std::to_string(static_cast<int>(fix.type));
    memo_key += '\x1f';
    memo_key += fix.original_sql;
    for (const std::string& stmt : fix.statements) {
      memo_key += '\x1f';
      memo_key += stmt;
    }
    VerifyMemo& memo = memo_ != nullptr ? *memo_ : own_memo_;
    auto [it, inserted] = memo.try_emplace(std::move(memo_key));
    if (inserted) {
      if (stats_ != nullptr) ++stats_->memo_misses;
      it->second = VerifyTiered(fix, fixer, context);
    } else if (stats_ != nullptr) {
      ++stats_->memo_hits;
    }
    const VerifyVerdict& verdict = it->second;
    if (verdict.ok) {
      fix.verified = true;
      fix.verify_tier = verdict.tier;
    } else {
      // The proposal keeps its statements as a sketch, but loses the
      // "mechanically applicable" promise.
      fix.kind = FixKind::kTextual;
      fix.verified = false;
      fix.verify_tier = VerifyTier::kNone;
      fix.verify_note = verdict.note;
    }
    if (stats_ != nullptr) {
      switch (fix.verify_tier) {
        case VerifyTier::kParse: ++stats_->tier_parse; break;
        case VerifyTier::kAnalysis: ++stats_->tier_analysis; break;
        case VerifyTier::kExec: ++stats_->tier_exec; break;
        case VerifyTier::kNone: ++stats_->demoted; break;
      }
    }
  }
  return fix;
}

std::vector<Fix> FixEngine::SuggestFixes(const std::vector<Detection>& detections,
                                         const Context& context) const {
  std::vector<Fix> fixes;
  fixes.reserve(detections.size());
  for (const Detection& d : detections) fixes.push_back(SuggestFix(d, context));
  return fixes;
}

std::string ApplyFixes(std::string_view workload, const Report& report,
                       size_t* applied_count) {
  // Each verified rewrite claims its statement's occurrence in the text;
  // findings are in rank order, so the highest-ranked claim wins.
  FixLocator locator(workload);
  std::map<size_t, const Fix*> claims;
  for (const Finding& f : report.findings) {
    const Fix& fix = f.fix;
    if (fix.kind != FixKind::kRewrite || !fix.verified || !fix.replaces_original ||
        fix.edits.empty()) {
      continue;
    }
    const size_t at = locator.Locate(fix);
    if (at != std::string_view::npos) claims.try_emplace(at, &fix);
  }

  std::string out;
  out.reserve(workload.size());
  size_t pos = 0;
  size_t applied = 0;
  for (const auto& [at, fix] : claims) {
    if (at < pos) continue;  // inside a statement already rewritten
    out.append(workload.substr(pos, at - pos));
    AppendSpliced(&out, workload.substr(at, fix->original_sql.size()), fix->edits);
    pos = at + fix->original_sql.size();
    ++applied;
  }
  out.append(workload.substr(pos));
  if (applied_count != nullptr) *applied_count = applied;
  return out;
}

}  // namespace sqlcheck
