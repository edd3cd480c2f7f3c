#pragma once

#include <memory>
#include <vector>

#include "fix/fixer.h"

namespace sqlcheck {

/// \brief The built-in action halves of the 27 rules (Algorithm 4's repair
/// table): one Fixer per row of the table in fixers.cc, in AntiPattern
/// order, registered by RuleRegistry::Default() after the detection halves
/// (one BuiltinRule per row of rules/builtin_rules.cc). Mechanical
/// transformations go through the source-edit rewriters (fix/rewriter.h);
/// everything else emits context-tailored textual guidance, sometimes with
/// sketch DDL attached.
std::vector<std::unique_ptr<Fixer>> MakeBuiltinFixers();

/// \brief One-line description of the built-in repair strategy for an
/// anti-pattern — what the fixer rewrites mechanically (and when it must
/// fall back to guidance), naming its Tier-3 equivalence contract when it
/// has one. Read from the fixer's table row; backs the CLI's --explain
/// surface.
const char* FixerContract(AntiPattern type);

}  // namespace sqlcheck
