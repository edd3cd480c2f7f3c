#include "rules/registry.h"

#include <memory>
#include <utility>

#include "fix/fixers.h"

namespace sqlcheck {

RuleRegistry RuleRegistry::Default() {
  RuleRegistry registry;
  for (int t = 0; t < kAntiPatternCount; ++t) {
    registry.Register(std::make_unique<BuiltinRule>(InfoFor(static_cast<AntiPattern>(t))));
  }
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

}  // namespace sqlcheck
