#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "fix/fixer.h"
#include "rules/rule.h"

namespace sqlcheck {

/// \brief Extensible rule registry (§7 "Extensibility"): starts with the
/// built-in 27 rules, one BuiltinRule per row of the rule table
/// (rules/builtin_rules.cc) in AntiPattern order; callers may register their
/// own Rule implementations.
///
/// The registry holds both halves of the paper's (detection, action) pairs:
/// Rules detect, Fixers repair. They pair by AntiPattern type, so a custom
/// deployment may replace either half independently — register a Fixer for
/// a built-in rule's type and the FixEngine uses yours instead.
class RuleRegistry {
 public:
  /// Registry pre-loaded with every built-in rule and its fixer.
  static RuleRegistry Default();

  /// Empty registry (for tests and custom deployments).
  RuleRegistry() = default;

  void Register(std::unique_ptr<Rule> rule) { rules_.push_back(std::move(rule)); }
  const std::vector<std::unique_ptr<Rule>>& rules() const { return rules_; }
  size_t size() const { return rules_.size(); }

  /// Registers the action half for an anti-pattern. The most recently
  /// registered fixer for a type wins, so custom fixers override built-ins.
  void RegisterFixer(std::unique_ptr<Fixer> fixer) {
    fixers_.push_back(std::move(fixer));
  }

  /// The detection half for `type`, or nullptr (disabled / never registered).
  const Rule* FindRule(AntiPattern type) const;

  /// The action half for `type` (latest registration wins), or nullptr.
  const Fixer* FindFixer(AntiPattern type) const;

  /// Removes every rule whose anti-pattern display name (ApName, matched
  /// ASCII-case-insensitively) appears in `names`. A name that matches no
  /// known anti-pattern returns an error and leaves the registry unchanged;
  /// a valid name with no registered rule (e.g. already disabled) is fine.
  /// Fixers stay registered — with the detection half gone they simply never
  /// fire. Backs SqlCheckOptions::disabled_rules and the CLI's --disable.
  Status Disable(const std::vector<std::string>& names);

 private:
  std::vector<std::unique_ptr<Rule>> rules_;
  std::vector<std::unique_ptr<Fixer>> fixers_;
};

}  // namespace sqlcheck
