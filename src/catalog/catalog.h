#pragma once

#include <map>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "common/strings.h"
#include "sql/ast.h"

namespace sqlcheck {

/// \brief Logical catalog: table + index schemas, buildable either from DDL
/// statements alone (when no database connection exists — §4.1) or from a
/// live Database (§4.2).
class Catalog {
 public:
  Status AddTable(TableSchema schema);
  Status AddIndex(IndexSchema index);
  Status DropTable(std::string_view name);
  Status DropIndex(std::string_view name);

  /// Applies a DDL statement (CREATE TABLE/INDEX, ALTER TABLE, DROP ...).
  /// Non-DDL statements are ignored with OK status.
  Status ApplyDdl(const sql::Statement& stmt);

  const TableSchema* FindTable(std::string_view name) const;
  TableSchema* FindTableMutable(std::string_view name);
  const IndexSchema* FindIndex(std::string_view name) const;

  std::vector<const TableSchema*> Tables() const;
  std::vector<const IndexSchema*> IndexesOnTable(std::string_view table) const;

  /// True if some index covers exactly/prefix the given column of the table.
  bool HasIndexOnColumn(std::string_view table, std::string_view column) const;

  size_t table_count() const { return tables_.size(); }

 private:
  // Keyed by lowercased name; values keep original casing. Probes stack-
  // lower the caller's name (LowerProbe) and descend with plain byte
  // compares — no ToLower temporary, no per-character case folding.
  std::map<std::string, TableSchema, std::less<>> tables_;
  std::map<std::string, IndexSchema, std::less<>> indexes_;
};

}  // namespace sqlcheck
