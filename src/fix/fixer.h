#pragma once

#include "analysis/context.h"
#include "fix/fix.h"
#include "rules/rule.h"

namespace sqlcheck {

/// \brief The action half of a rule (Algorithm 4): proposes a fix for one
/// detection of its anti-pattern. Fixers are registered in the RuleRegistry
/// alongside their detection halves, so detection/action pairs travel
/// together and custom deployments can swap either side independently.
///
/// The 27 built-in fixers are rows of one table in fix/fixers.cc (scope,
/// contract, proposal function and --explain text per anti-pattern), each
/// served through this interface, as the detection halves are rows of the
/// rule table in rules/builtin_rules.cc. A custom implementation registered
/// with RuleRegistry::RegisterFixer overrides the built-in row for its type.
///
/// A fixer only *proposes*; the FixEngine owns the verification loop that
/// promotes a proposal to a trusted `kRewrite` (or demotes it to `kTextual`
/// with a reason). Implementations should route mechanical transformations
/// through the AST rewriter (fix/rewriter.h) rather than string pasting, so
/// the proposal inherits the printer's round-trip guarantees.
class Fixer {
 public:
  virtual ~Fixer() = default;

  /// The anti-pattern this fixer repairs (pairs it with the Rule of the same
  /// type in the registry).
  virtual AntiPattern type() const = 0;

  /// Caching contract, mirroring Rule::query_scope(): kStatementLocal means
  /// Propose() derives the fix from the detection (and its parse tree) alone
  /// and never reads the evolving workload context — the incremental session
  /// may compute it once per unique fingerprint group and replay it verbatim.
  /// The conservative default forces re-evaluation whenever the workload may
  /// have changed (catalog-driven expansions, data-profile-driven DDL, ...).
  virtual QueryRuleScope fix_scope() const { return QueryRuleScope::kWorkload; }

  /// The Tier-3 equivalence contract this fixer's rewrites are judged under
  /// (fix/verify.h): whether differential execution must find exact ordered
  /// results, a matching multiset, or a documented divergence — or does not
  /// apply at all (additive DDL, textual guidance). The default keeps Tier 3
  /// off for fixers that never emit statement-replacing rewrites; every
  /// mechanical fixer declares its contract explicitly so the verifier never
  /// demotes an intentionally-divergent rewrite by default.
  virtual EquivalenceContract equivalence() const {
    return EquivalenceContract::kNotApplicable;
  }

  /// Proposes a fix for one detection of type(). `d.stmt` may be null (data
  /// anti-patterns); implementations must degrade to a textual fix then.
  virtual Fix Propose(const Detection& d, const Context& context) const = 0;
};

}  // namespace sqlcheck
