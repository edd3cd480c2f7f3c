// How a column reference's qualifier names a table: the one definition the
// query analyzer and the Tier-3 verifier both resolve through.
#pragma once

#include <string_view>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "sql/ast.h"

namespace sqlcheck {

/// Alias -> table bindings for one statement: a flat map with inline
/// case-insensitive probing. Statements bind a handful of sources, so a
/// linear scan beats the old `std::map<std::string, std::string>` — no
/// per-binding `ToLower` temporaries, no per-lookup allocation, no tree
/// nodes. Views borrow from the statement's AST, which outlives the map.
class AliasMap {
 public:
  /// Binds `key` -> `table`, overwriting a case-insensitively equal key
  /// (matching the old map's last-writer-wins insert semantics).
  void Bind(std::string_view key, std::string_view table) {
    for (auto& e : entries_) {
      if (EqualsIgnoreCase(e.first, key)) {
        e.second = table;
        return;
      }
    }
    entries_.emplace_back(key, table);
  }

  /// Binds a FROM/JOIN source: its effective name (alias if present) and —
  /// only when it actually differs — its real name. The old implementation
  /// inserted both unconditionally, wasting an insert per unaliased source.
  void AddBinding(const sql::TableRef& ref) {
    if (ref.name.empty()) return;
    Bind(ref.EffectiveName(), ref.name);
    if (!EqualsIgnoreCase(ref.EffectiveName(), ref.name)) Bind(ref.name, ref.name);
  }

  /// The bound table for `qualifier`, or an empty view when unbound.
  std::string_view Resolve(std::string_view qualifier) const {
    for (const auto& e : entries_) {
      if (EqualsIgnoreCase(e.first, qualifier)) return e.second;
    }
    return {};
  }

 private:
  std::vector<std::pair<std::string_view, std::string_view>> entries_;
};

/// Resolves a column ref's qualifier through the alias map. Falls back to the
/// sole bound table for unqualified refs in single-table statements.
inline std::string_view ResolveTable(const AliasMap& aliases, const sql::Expr& column_ref,
                                     std::string_view sole_table) {
  std::string_view qualifier = column_ref.TableQualifier();
  if (!qualifier.empty()) {
    std::string_view resolved = aliases.Resolve(qualifier);
    return resolved.empty() ? qualifier : resolved;
  }
  return sole_table;
}

}  // namespace sqlcheck
