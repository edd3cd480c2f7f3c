#include "fix/fix_engine.h"

#include <string_view>
#include <unordered_map>
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

std::string ApplyFixes(const Context& context, const Report& report,
                       size_t* applied_count) {
  // Highest-ranked verified rewrite per offending statement wins; the keys
  // view the report's own Fix storage, which outlives this call.
  std::unordered_map<std::string_view, const Fix*> replacements;
  for (const Finding& f : report.findings) {
    const Fix& fix = f.fix;
    if (fix.kind != FixKind::kRewrite || !fix.verified || !fix.replaces_original) {
      continue;
    }
    if (fix.original_sql.empty() || fix.statements.empty()) continue;
    replacements.try_emplace(std::string_view(fix.original_sql), &fix);
  }

  std::string out;
  size_t applied = 0;
  for (const QueryFacts& facts : context.queries()) {
    auto it = replacements.find(facts.raw_sql);
    if (it == replacements.end()) {
      out.append(facts.raw_sql);
      // Statements are stored trimmed; restore the terminator they lost.
      if (!facts.raw_sql.empty() && facts.raw_sql.back() != ';') out.push_back(';');
      out.push_back('\n');
      continue;
    }
    ++applied;
    for (const std::string& stmt : it->second->statements) {
      out.append(stmt);
      out.push_back('\n');
    }
  }
  if (applied_count != nullptr) *applied_count = applied;
  return out;
}

}  // namespace sqlcheck
