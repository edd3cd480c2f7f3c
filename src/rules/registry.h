#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "fix/fixer.h"
#include "rules/rule.h"

namespace sqlcheck {

/// \brief Extensible rule registry (§7 "Extensibility"): starts with the
/// built-in 27 rules; callers may register their own Rule implementations.
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
  const std::vector<std::unique_ptr<Fixer>>& fixers() const { return fixers_; }

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

/// \brief Runs ap-detect (Algorithm 1): applies every query rule to every
/// analyzed query and every data rule to every profiled table, honouring the
/// config's intra/inter/data switches.
///
/// Query rules are evaluated once per unique query fingerprint group (see
/// Context::query_groups()) and the detections fan back out to every
/// occurrence in original statement order, rebased onto each occurrence's
/// own raw text/parse tree — so duplicate-heavy workloads pay for each
/// distinct statement once while the report stays byte-identical to an
/// unmemoized run. Rules must stay stateless/`const`-thread-safe (the
/// built-ins are): the server evaluates many sessions at once against one
/// rule set.
std::vector<Detection> DetectAntiPatterns(const Context& context,
                                          const RuleRegistry& registry,
                                          const DetectorConfig& config = {});

/// \brief Convenience: detect with the default registry.
std::vector<Detection> DetectAntiPatterns(const Context& context,
                                          const DetectorConfig& config = {});

/// \brief Fans per-unique-group query-rule detection buffers back out to
/// every statement occurrence in workload order — rebasing each detection's
/// `query`/`stmt` from the group representative onto the occurrence — then
/// appends the data-rule stream. `per_group[u]` must hold the detections of
/// group `groups.unique[u]`'s representative, in registry rule order.
///
/// This is the single serialization point for detection streams: both the
/// batch detector and the incremental AnalysisSession assemble their final
/// order through it, so the two paths cannot drift.
std::vector<Detection> FanOutDetections(const Context& context, const QueryGroups& groups,
                                        std::vector<std::vector<Detection>> per_group,
                                        std::vector<Detection> data_detections);

/// \brief Runs every rule's CheckData over the profiled tables (profile map
/// order, profile-major / rule-minor) into one stream — the serial reference
/// shape of the batch data phase, reused by the incremental session.
std::vector<Detection> DetectDataAntiPatterns(const Context& context,
                                              const RuleRegistry& registry,
                                              const DetectorConfig& config);

/// \brief Rebases one group-representative detection onto another occurrence
/// of the same canonical statement: query text and parse-tree pointer move
/// from the representative's to the occurrence's, everything else is shared.
/// Used by both the batch fan-out and the streaming Check() path.
Detection RebaseDetection(Detection d, const QueryFacts& rep_facts,
                          const QueryFacts& occ_facts);

}  // namespace sqlcheck
