#include "rules/registry.h"

#include <memory>
#include <utility>

#include "fix/fixers.h"
#include "rules/data_rules.h"
#include "rules/logical_rules.h"
#include "rules/physical_rules.h"
#include "rules/query_rules.h"

namespace sqlcheck {

RuleRegistry RuleRegistry::Default() {
  RuleRegistry registry;
  for (auto& rule : MakeLogicalDesignRules()) registry.Register(std::move(rule));
  for (auto& rule : MakePhysicalDesignRules()) registry.Register(std::move(rule));
  for (auto& rule : MakeQueryRules()) registry.Register(std::move(rule));
  for (auto& rule : MakeDataRules()) registry.Register(std::move(rule));
  for (auto& fixer : MakeBuiltinFixers()) registry.RegisterFixer(std::move(fixer));
  return registry;
}

const Rule* RuleRegistry::FindRule(AntiPattern type) const {
  for (const auto& rule : rules_) {
    if (rule->type() == type) return rule.get();
  }
  return nullptr;
}

const Fixer* RuleRegistry::FindFixer(AntiPattern type) const {
  for (auto it = fixers_.rbegin(); it != fixers_.rend(); ++it) {
    if ((*it)->type() == type) return it->get();
  }
  return nullptr;
}

Status RuleRegistry::Disable(const std::vector<std::string>& names) {
  std::vector<AntiPattern> disabled;
  disabled.reserve(names.size());
  for (const auto& name : names) {
    const ApInfo* info = FindApInfoByName(name);
    if (info == nullptr) {
      return Status::Error("unknown rule name '" + name +
                           "' in disabled_rules (rule names are the anti-pattern "
                           "display names, e.g. 'Column Wildcard Usage')");
    }
    disabled.push_back(info->type);
  }
  std::erase_if(rules_, [&disabled](const std::unique_ptr<Rule>& rule) {
    for (AntiPattern type : disabled) {
      if (rule->type() == type) return true;
    }
    return false;
  });
  return Status::Ok();
}

std::vector<Detection> DetectAntiPatterns(const Context& context,
                                          const RuleRegistry& registry,
                                          const DetectorConfig& config) {
  const std::vector<QueryFacts>& queries = context.queries();
  const size_t n = queries.size();

  // Fingerprint grouping from the context build; fall back to the identity
  // mapping for contexts that carry none (e.g. hand-constructed ones).
  const QueryGroups& groups = context.query_groups();
  QueryGroups identity;
  const QueryGroups* g = &groups;
  if (groups.representative.size() != n) {
    identity.representative.resize(n);
    identity.unique.resize(n);
    for (size_t i = 0; i < n; ++i) identity.representative[i] = identity.unique[i] = i;
    g = &identity;
  }
  const size_t unique_count = g->unique.size();

  // Query rules run once per unique fingerprint group (Algorithm 2 memoized):
  // every statement in a group carries identical facts modulo raw_sql/stmt,
  // so one evaluation of the group's representative stands in for all of
  // them. Results land in per-group slots, then fan back out to every
  // occurrence in original statement order — reproducing the unmemoized
  // (query-major, rule-minor) detection stream byte-for-byte.
  std::vector<std::vector<Detection>> per_group(unique_count);
  for (size_t u = 0; u < unique_count; ++u) {
    for (const auto& rule : registry.rules()) {
      rule->CheckQuery(queries[g->unique[u]], context, config, &per_group[u]);
    }
  }
  return FanOutDetections(context, *g, std::move(per_group),
                          DetectDataAntiPatterns(context, registry, config));
}

std::vector<Detection> FanOutDetections(const Context& context, const QueryGroups& groups,
                                        std::vector<std::vector<Detection>> per_group,
                                        std::vector<Detection> data_detections) {
  const std::vector<QueryFacts>& queries = context.queries();
  const size_t n = groups.representative.size();
  const size_t unique_count = groups.unique.size();

  // Fan out: statement i gets its group's detections, rebased onto its own
  // raw text / parse tree wherever the rule pointed them at the
  // representative's. Statements that lead a single-occurrence group take
  // their buffer by move (the common non-duplicate case costs nothing).
  std::vector<size_t> group_pos(n);
  std::vector<size_t> group_size(unique_count, 0);
  for (size_t u = 0; u < unique_count; ++u) group_pos[groups.unique[u]] = u;
  for (size_t i = 0; i < n; ++i) ++group_size[group_pos[groups.representative[i]]];

  size_t total = data_detections.size();
  for (size_t i = 0; i < n; ++i) {
    total += per_group[group_pos[groups.representative[i]]].size();
  }

  std::vector<Detection> detections;
  detections.reserve(total);
  std::vector<size_t> remaining(unique_count);
  for (size_t u = 0; u < unique_count; ++u) remaining[u] = group_size[u];
  for (size_t i = 0; i < n; ++i) {
    size_t rep = groups.representative[i];
    size_t g = group_pos[rep];
    std::vector<Detection>& buffer = per_group[g];
    bool last_occurrence = --remaining[g] == 0;
    if (rep == i) {
      // The representative's detections are already correctly based; move
      // them when no later duplicate still needs the originals.
      if (last_occurrence) {
        for (auto& d : buffer) detections.push_back(std::move(d));
      } else {
        for (const auto& d : buffer) detections.push_back(d);
      }
      continue;
    }
    if (last_occurrence) {
      // Final fan-out of this group: rebase the buffer in place and move it
      // out instead of copying every string field one more time.
      for (auto& d : buffer) {
        detections.push_back(RebaseDetection(std::move(d), queries[rep], queries[i]));
      }
      continue;
    }
    for (const auto& d : buffer) {
      detections.push_back(RebaseDetection(d, queries[rep], queries[i]));
    }
  }
  for (auto& d : data_detections) detections.push_back(std::move(d));
  return detections;
}

Detection RebaseDetection(Detection d, const QueryFacts& rep_facts,
                          const QueryFacts& occ_facts) {
  if (d.query == rep_facts.raw_sql) d.query = occ_facts.raw_sql;
  if (d.stmt == rep_facts.stmt) d.stmt = occ_facts.stmt;
  return d;
}

std::vector<Detection> DetectDataAntiPatterns(const Context& context,
                                              const RuleRegistry& registry,
                                              const DetectorConfig& config) {
  std::vector<Detection> out;
  if (!config.data_analysis) return out;
  for (const auto& [_, profile] : context.data().profiles) {
    for (const auto& rule : registry.rules()) {
      rule->CheckData(profile, context, config, &out);
    }
  }
  return out;
}

std::vector<Detection> DetectAntiPatterns(const Context& context,
                                          const DetectorConfig& config) {
  return DetectAntiPatterns(context, RuleRegistry::Default(), config);
}

}  // namespace sqlcheck
