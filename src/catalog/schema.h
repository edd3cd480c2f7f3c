#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/data_type.h"
#include "common/status.h"
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

/// \brief Logical schema of a table. This is the one interpreter of the DDL
/// that defines a table: the catalog and the engine both build and alter
/// schemas through it, so they agree on what a script means.
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

  /// Adds a column definition: the column plus its inline PRIMARY KEY (which
  /// implies NOT NULL), REFERENCES, CHECK, UNIQUE, literal DEFAULT and
  /// SERIAL auto-increment.
  void AddColumn(const sql::ColumnDefAst& def);
  /// Adds a table constraint: PRIMARY KEY (its columns become NOT NULL),
  /// FOREIGN KEY, UNIQUE or CHECK.
  void AddConstraint(const sql::TableConstraintAst& con);
  /// Removes a column with the PK entries, FKs, UNIQUE constraints and
  /// CHECKs that name it (PostgreSQL drops such a CHECK too).
  void DropColumn(std::string_view column);
  /// Renames a column in the column list, the PK, FK columns, UNIQUE
  /// constraints and CHECK expressions (re-printing their text).
  void RenameColumn(std::string_view from, std::string_view to);

  /// Applies one ALTER TABLE action to this schema. RENAME TABLE only
  /// renames: re-keying the table is its owner's work. A failing ALTER
  /// (a missing or duplicate column, a constraint on an unknown column, a
  /// missing constraint) leaves the schema unchanged; IF EXISTS makes a
  /// missing column or constraint a no-op.
  Status Alter(const sql::AlterTableStatement& alter);
  /// Refuses `alter`, an ALTER of `target`, when it drops a column one of
  /// this table's FKs references, as PostgreSQL does without CASCADE. Call
  /// it for every table before applying the ALTER.
  Status CheckReferencedAlter(const sql::AlterTableStatement& alter,
                              const TableSchema& target) const;
  /// What `alter` does to this table's FKs that reference `alter.table`:
  /// RENAME TABLE and RENAME COLUMN carry into the references.
  void FollowReferencedAlter(const sql::AlterTableStatement& alter);
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

  static IndexSchema FromCreateIndex(const sql::CreateIndexStatement& stmt);

  /// What renaming `column` to `new_name`, or dropping it when `new_name` is
  /// empty, does to this index: a rename carries into `columns`, and
  /// dropping an indexed column drops the index (returns false).
  bool FollowColumn(std::string_view column, std::string_view new_name);
};

}  // namespace sqlcheck
