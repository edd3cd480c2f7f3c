#include "analysis/workload_stats.h"

#include <algorithm>

#include "analysis/query_context.h"

namespace sqlcheck {

void WorkloadStats::AddStatementFacts(size_t stmt_index, const QueryFacts& facts) {
  ++statement_count_;
  // Case-folded, deduped table list: ReferencesTable-style membership must
  // credit a statement once per table even if two spellings resolve equal.
  // Interning folds case, so id-dedup is exactly lowercase-dedup.
  std::vector<NameId> tables;
  tables.reserve(facts.tables.size());
  for (const auto& table : facts.tables) {
    NameId id = interner_.Intern(table);
    if (std::find(tables.begin(), tables.end(), id) == tables.end()) {
      tables.push_back(id);
    }
  }
  for (NameId table : tables) by_table_[table].push_back(stmt_index);
  for (const auto& p : facts.predicates) {
    if (p.op != "=" && p.op != "==" && p.op != "IN") continue;
    NameId column = interner_.Intern(p.column);
    if (!p.table.empty()) {
      ++equality_use_[ColumnKey(interner_.Intern(p.table), column)];
    } else {
      // An unqualified predicate counts toward every table the statement
      // references — exactly the statements the per-call scan would have
      // credited when asked about that table.
      for (NameId table : tables) {
        ++equality_use_[ColumnKey(table, column)];
      }
    }
  }
  for (const auto& j : facts.joins) {
    if (j.expression_join) continue;
    NameId left = interner_.Intern(j.left_table);
    NameId right = interner_.Intern(j.right_table);
    ++equality_use_[ColumnKey(left, interner_.Intern(j.left_column))];
    ++equality_use_[ColumnKey(right, interner_.Intern(j.right_column))];
    joined_pairs_.insert(PairKey(left, right));
  }
}

bool WorkloadStats::FindIds(std::string_view a, std::string_view b, NameId* ida,
                            NameId* idb) const {
  // Empty names intern to kNoName, which is a legitimate key component
  // (unresolvable join endpoints); a non-empty name the interner has never
  // seen cannot appear in any aggregate.
  *ida = interner_.Find(a);
  if (*ida == kNoName && !a.empty()) return false;
  *idb = interner_.Find(b);
  if (*idb == kNoName && !b.empty()) return false;
  return true;
}

int WorkloadStats::EqualityUseCount(std::string_view table,
                                    std::string_view column) const {
  NameId table_id = kNoName;
  NameId column_id = kNoName;
  if (!FindIds(table, column, &table_id, &column_id)) return 0;
  auto it = equality_use_.find(ColumnKey(table_id, column_id));
  return it == equality_use_.end() ? 0 : it->second;
}

bool WorkloadStats::TablesJoined(std::string_view left, std::string_view right) const {
  NameId left_id = kNoName;
  NameId right_id = kNoName;
  if (!FindIds(left, right, &left_id, &right_id)) return false;
  return joined_pairs_.count(PairKey(left_id, right_id)) > 0;
}

const std::vector<size_t>* WorkloadStats::StatementsReferencing(
    std::string_view table) const {
  NameId id = interner_.Find(table);
  if (id == kNoName && !table.empty()) return nullptr;
  auto it = by_table_.find(id);
  return it == by_table_.end() ? nullptr : &it->second;
}

}  // namespace sqlcheck
