#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "sql/ast.h"
#include "storage/database.h"

namespace sqlcheck {

class EvalScope;

/// \brief Result of executing one statement.
struct QueryResult {
  std::vector<std::string> columns;  ///< Output column names (SELECT only).
  std::vector<Row> rows;             ///< Result rows (SELECT only).
  size_t affected = 0;               ///< Rows inserted/updated/deleted.

  /// First row / first column convenience accessor (NULL when empty).
  Value Scalar() const {
    return rows.empty() || rows[0].empty() ? Value::Null_() : rows[0][0];
  }
};

/// \brief Query executor over the in-memory Database — the substrate the
/// performance experiments (Figs. 3 and 8) run on. It preserves the cost
/// mechanisms those figures depend on:
///   * equality predicates use hash indexes when present, else scan;
///   * expression joins (LIKE/REGEXP) are nested-loop and cannot use indexes;
///   * every secondary index adds write amplification on INSERT/UPDATE;
///   * FK constraints are validated on write (scan unless an index helps);
///   * ALTER ... ADD CHECK revalidates the whole table.
class Executor {
 public:
  explicit Executor(Database* db, uint64_t seed = 7) : db_(db), rng_(seed) {}

  Result<QueryResult> Execute(const sql::Statement& stmt);

  /// Parses and executes a single statement.
  Result<QueryResult> ExecuteSql(std::string_view sql_text);

  /// Parses and executes a multi-statement script; returns the last result.
  Result<QueryResult> ExecuteScript(std::string_view script);

 private:
  Result<QueryResult> ExecuteSelect(const sql::SelectStatement& stmt);
  Result<QueryResult> ExecuteInsert(const sql::InsertStatement& stmt);
  Result<QueryResult> ExecuteUpdate(const sql::UpdateStatement& stmt);
  Result<QueryResult> ExecuteDelete(const sql::DeleteStatement& stmt);
  Result<QueryResult> ExecuteCreateTable(const sql::CreateTableStatement& stmt);
  Result<QueryResult> ExecuteCreateIndex(const sql::CreateIndexStatement& stmt);
  Result<QueryResult> ExecuteAlterTable(const sql::AlterTableStatement& stmt);
  Result<QueryResult> ExecuteDropTable(const sql::DropTableStatement& stmt);
  Result<QueryResult> ExecuteDropIndex(const sql::DropIndexStatement& stmt);

  /// Validates a candidate row against every constraint on `table`
  /// (types, NOT NULL, enum domain, CHECK, PK/UNIQUE, FK). `self_slot` is
  /// the row being replaced on UPDATE (excluded from uniqueness), or SIZE_MAX.
  Status ValidateRow(Table& table, const Row& row, size_t self_slot);

  /// Pre-executes uncorrelated subqueries inside `expr`, replacing them with
  /// literal results so Eval() never sees a subquery node.
  Status FlattenSubqueries(sql::Expr* expr);
  /// FlattenSubqueries over every clause of `stmt` (sql::ForEachRootExpr).
  Status FlattenClauses(sql::Statement& stmt);

  /// UPDATE and DELETE: flattens `stmt`'s subqueries, binds `table` in
  /// `scope` as `binding` and returns the slots of the rows `where` accepts
  /// (every live row when it is null).
  Result<std::vector<size_t>> WriteTargets(sql::Statement& stmt, const Table& table,
                                           std::string binding, const sql::Expr* where,
                                           EvalScope* scope);

  Status DeleteRowsCascading(Table& table, std::vector<size_t> slots, int depth);

  Database* db_;
  Rng rng_;
};

}  // namespace sqlcheck
