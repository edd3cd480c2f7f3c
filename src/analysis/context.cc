#include "analysis/context.h"

#include <string_view>

#include "common/strings.h"

namespace sqlcheck {

std::vector<const QueryFacts*> Context::QueriesReferencing(std::string_view table) const {
  std::vector<const QueryFacts*> out;
  const std::vector<size_t>* refs = stats_.StatementsReferencing(table);
  if (refs != nullptr) {
    out.reserve(refs->size());
    for (size_t i : *refs) out.push_back(&query_facts_[i]);
  }
  return out;
}

bool Context::ForeignKeyExists(std::string_view left, std::string_view right) const {
  auto has_fk = [&](std::string_view from, std::string_view to) {
    const TableSchema* schema = catalog_.FindTable(from);
    if (schema == nullptr) return false;
    for (const auto& fk : schema->foreign_keys) {
      if (EqualsIgnoreCase(fk.ref_table, to)) return true;
    }
    return false;
  };
  return has_fk(left, right) || has_fk(right, left);
}

bool Context::ColumnNullable(std::string_view table, std::string_view column) const {
  const TableSchema* schema = catalog_.FindTable(table);
  if (schema == nullptr) return true;
  const ColumnSchema* col = schema->FindColumn(column);
  if (col == nullptr) return true;
  return !col->not_null;
}

}  // namespace sqlcheck
