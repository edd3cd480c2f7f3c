#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/data_type.h"
#include "sql/ast.h"

namespace sqlcheck {

/// \brief CHECK constraint: expression kept both parsed (for enforcement)
/// and as SQL text (for reporting). Shared so schemas stay copyable.
struct CheckConstraintSchema {
  std::string name;
  std::string expression_sql;
  std::shared_ptr<const sql::Expr> expression;
};

/// \brief FOREIGN KEY ... REFERENCES constraint.
struct ForeignKeySchema {
  std::string name;
  std::vector<std::string> columns;
  std::string ref_table;
  std::vector<std::string> ref_columns;  ///< Empty means the target's PK.
  bool on_delete_cascade = false;
};

/// \brief One column of a table.
struct ColumnSchema {
  std::string name;
  DataType type;
  bool not_null = false;
  bool unique = false;
  bool auto_increment = false;
  std::optional<Value> default_value;
};

/// \brief Logical schema of a table.
struct TableSchema {
  std::string name;
  std::vector<ColumnSchema> columns;
  std::vector<std::string> primary_key;  ///< Empty => no PK (an AP!).
  std::vector<ForeignKeySchema> foreign_keys;
  std::vector<CheckConstraintSchema> checks;
  std::vector<std::vector<std::string>> unique_constraints;

  /// Case-insensitive column lookup; nullptr when absent.
  const ColumnSchema* FindColumn(std::string_view column) const;
  /// Case-insensitive column position; -1 when absent.
  int ColumnIndex(std::string_view column) const;
  bool HasPrimaryKey() const { return !primary_key.empty(); }

  /// Builds a schema from a parsed CREATE TABLE.
  static TableSchema FromCreateTable(const sql::CreateTableStatement& stmt);
};

/// \brief A secondary index definition.
struct IndexSchema {
  std::string name;
  std::string table;
  std::vector<std::string> columns;
  bool unique = false;
  /// Auto-created by the engine (PK/UNIQUE backing indexes). System indexes
  /// are invisible to the Index Overuse/Underuse detection rules, matching
  /// how the paper counts only user-created indexes.
  bool system = false;
};

}  // namespace sqlcheck
