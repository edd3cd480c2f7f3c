#include "analysis/context.h"

#include <numeric>
#include <string_view>
#include <unordered_map>

#include "analysis/query_analyzer.h"
#include "common/strings.h"
#include "sql/fingerprint.h"
#include "sql/parser.h"

namespace sqlcheck {

std::vector<const QueryFacts*> Context::QueriesReferencing(std::string_view table) const {
  std::vector<const QueryFacts*> out;
  if (stats_.statement_count() == query_facts_.size()) {
    const std::vector<size_t>* refs = stats_.StatementsReferencing(table);
    if (refs != nullptr) {
      out.reserve(refs->size());
      for (size_t i : *refs) out.push_back(&query_facts_[i]);
    }
    return out;
  }
  // Fallback scan for contexts whose aggregates were never populated.
  for (const auto& facts : query_facts_) {
    if (facts.ReferencesTable(table)) out.push_back(&facts);
  }
  return out;
}

int Context::EqualityUseCount(std::string_view table, std::string_view column) const {
  if (stats_.statement_count() == query_facts_.size()) {
    return stats_.EqualityUseCount(table, column);
  }
  int count = 0;
  for (const auto& facts : query_facts_) {
    for (const auto& p : facts.predicates) {
      if ((p.op == "=" || p.op == "==" || p.op == "IN") &&
          EqualsIgnoreCase(p.column, column) &&
          (p.table.empty() || EqualsIgnoreCase(p.table, table))) {
        // Unqualified predicates only count when the query touches the table.
        if (!p.table.empty() || facts.ReferencesTable(table)) ++count;
      }
    }
    for (const auto& j : facts.joins) {
      if (j.expression_join) continue;
      if (EqualsIgnoreCase(j.left_table, table) && EqualsIgnoreCase(j.left_column, column)) {
        ++count;
      }
      if (EqualsIgnoreCase(j.right_table, table) &&
          EqualsIgnoreCase(j.right_column, column)) {
        ++count;
      }
    }
  }
  return count;
}

bool Context::TablesJoined(std::string_view left, std::string_view right) const {
  if (stats_.statement_count() == query_facts_.size()) {
    return stats_.TablesJoined(left, right);
  }
  for (const auto& facts : query_facts_) {
    for (const auto& j : facts.joins) {
      if (j.expression_join) continue;
      bool forward = EqualsIgnoreCase(j.left_table, left) &&
                     EqualsIgnoreCase(j.right_table, right);
      bool backward = EqualsIgnoreCase(j.left_table, right) &&
                      EqualsIgnoreCase(j.right_table, left);
      if (forward || backward) return true;
    }
  }
  return false;
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

void ContextBuilder::AddQuery(std::string_view sql_text) {
  statements_.push_back(sql::ParseStatement(sql_text, arena_.get(), &buffer_));
}

void ContextBuilder::AddScript(std::string_view script) {
  for (auto& stmt : sql::ParseScript(script, arena_.get(), &buffer_)) {
    statements_.push_back(std::move(stmt));
  }
}

void ContextBuilder::AddStatement(sql::StatementPtr stmt) {
  statements_.push_back(std::move(stmt));
}

void ContextBuilder::AttachDatabase(const Database* db, DataAnalyzerOptions options) {
  database_ = db;
  data_options_ = options;
}

Context ContextBuilder::Build(bool dedup_queries) {
  Context context;
  // The accumulated statements live in the builder's arena; hand it over
  // (and start a fresh one so the builder stays usable).
  context.arena_ = std::move(arena_);
  arena_ = std::make_unique<Arena>();
  context.database_ = database_;

  // Catalog baseline: live database schema when available...
  if (database_ != nullptr) {
    context.catalog_ = database_->BuildCatalog();
    context.data_ = AnalyzeDatabase(*database_, data_options_);
  }
  // ...augmented (or fully constructed) from workload DDL.
  for (const auto& stmt : statements_) {
    context.catalog_.ApplyDdl(*stmt);  // ignores DML; duplicate DDL is a no-op error
  }

  context.statements_ = std::move(statements_);
  const size_t n = context.statements_.size();
  context.query_facts_.resize(n);

  QueryGroups& groups = context.query_groups_;
  groups.representative.resize(n);
  if (dedup_queries) {
    // Group statements whose exact-canonical form matches: they are
    // guaranteed to analyze identically except for raw_sql/stmt. Grouping is
    // keyed by the canonical string itself, so a 64-bit fingerprint
    // collision can never merge distinct statements.
    //
    // Level 1: group byte-identical statements first — real query logs
    // re-issue the same parameterized text verbatim, so this cheap hash pass
    // shrinks the input before any canonicalization runs.
    std::vector<size_t> raw_rep(n);
    std::vector<size_t> raw_unique;
    {
      std::unordered_map<std::string_view, size_t> first_raw;
      first_raw.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        auto [it, inserted] = first_raw.try_emplace(context.statements_[i]->raw_sql, i);
        raw_rep[i] = it->second;
        if (inserted) raw_unique.push_back(i);
      }
    }
    // Level 2: canonicalize each distinct spelling and merge spellings that
    // canonicalize equal (whitespace / comment / keyword-case variants).
    std::vector<std::string> keys(n);
    groups.fingerprints.resize(n);
    for (size_t i : raw_unique) {
      keys[i] = sql::CanonicalizeSql(context.statements_[i]->raw_sql,
                                     sql::FingerprintOptions::Exact());
      groups.fingerprints[i] = sql::FingerprintCanonical(keys[i]);
    }
    std::vector<size_t> canon_rep(n);
    {
      std::unordered_map<std::string_view, size_t> first_canon;
      first_canon.reserve(raw_unique.size());
      for (size_t r : raw_unique) {
        auto [it, inserted] = first_canon.try_emplace(keys[r], r);
        canon_rep[r] = it->second;
        if (inserted) groups.unique.push_back(r);
      }
    }
    // A statement's representative is the first statement overall with the
    // same canonical form (the first spelling of a canonical group is also
    // the first occurrence of its own bytes, so composing the two levels
    // preserves "first occurrence").
    for (size_t i = 0; i < n; ++i) {
      groups.representative[i] = canon_rep[raw_rep[i]];
      groups.fingerprints[i] = groups.fingerprints[raw_rep[i]];
    }
  } else {
    std::iota(groups.representative.begin(), groups.representative.end(), size_t{0});
    groups.unique = groups.representative;
  }

  // Analysis runs once per unique statement, into the representative's slot.
  for (size_t i : groups.unique) {
    context.query_facts_[i] = AnalyzeQuery(*context.statements_[i]);
  }

  // Duplicates get a copy of their group's facts rebased onto their own raw
  // text and parse tree — exactly what a fresh analysis would produce.
  for (size_t i = 0; i < n; ++i) {
    size_t rep = groups.representative[i];
    if (rep == i) continue;
    context.query_facts_[i] =
        RebaseFacts(context.query_facts_[rep], *context.statements_[i]);
  }

  // Fold every statement into the workload aggregates (workload order); the
  // queryable interface answers from these instead of re-scanning the facts.
  for (size_t i = 0; i < n; ++i) {
    context.stats_.AddStatementFacts(i, context.query_facts_[i]);
  }
  return context;
}

}  // namespace sqlcheck
