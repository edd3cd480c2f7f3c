#include "catalog/catalog.h"

#include "common/strings.h"
#include "sql/printer.h"

namespace sqlcheck {

Status Catalog::AddTable(TableSchema schema) {
  std::string key = ToLower(schema.name);
  if (tables_.count(key) > 0) {
    return Status::Error("table already exists: " + schema.name);
  }
  tables_.emplace(std::move(key), std::move(schema));
  return Status::Ok();
}

Status Catalog::AddIndex(IndexSchema index) {
  std::string key = ToLower(index.name);
  if (indexes_.count(key) > 0) {
    return Status::Error("index already exists: " + index.name);
  }
  indexes_.emplace(std::move(key), std::move(index));
  return Status::Ok();
}

Status Catalog::DropTable(std::string_view name) {
  if (tables_.erase(std::string(ToLower(name))) == 0) {
    return Status::Error("no such table: " + std::string(name));
  }
  // Indexes on the table go with it.
  for (auto it = indexes_.begin(); it != indexes_.end();) {
    if (EqualsIgnoreCase(it->second.table, name)) {
      it = indexes_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::Ok();
}

Status Catalog::DropIndex(std::string_view name) {
  if (indexes_.erase(ToLower(name)) == 0) {
    return Status::Error("no such index: " + std::string(name));
  }
  return Status::Ok();
}

Status Catalog::ApplyDdl(const sql::Statement& stmt) {
  switch (stmt.kind) {
    case sql::StatementKind::kCreateTable: {
      const auto& create = static_cast<const sql::CreateTableStatement&>(stmt);
      // Existence pre-check before materializing the schema: workloads
      // re-issue the same CREATE TABLE constantly, and converting the full
      // column/constraint list (check-expression clones included) only to
      // have AddTable reject the duplicate was pure waste.
      if (FindTable(create.table) != nullptr) {
        if (create.if_not_exists) return Status::Ok();
        return Status::Error("table already exists: " + std::string(create.table));
      }
      return AddTable(TableSchema::FromCreateTable(create));
    }
    case sql::StatementKind::kCreateIndex: {
      const auto& create = static_cast<const sql::CreateIndexStatement&>(stmt);
      if (FindIndex(create.index) != nullptr) {
        if (create.if_not_exists) return Status::Ok();
        return Status::Error("index already exists: " + std::string(create.index));
      }
      IndexSchema index;
      index.name = create.index;
      index.table = create.table;
      index.columns = sql::ToStringVector(create.columns);
      index.unique = create.unique;
      return AddIndex(std::move(index));
    }
    case sql::StatementKind::kDropTable: {
      const auto& drop = static_cast<const sql::DropTableStatement&>(stmt);
      Status s = DropTable(drop.table);
      return drop.if_exists ? Status::Ok() : s;
    }
    case sql::StatementKind::kDropIndex: {
      const auto& drop = static_cast<const sql::DropIndexStatement&>(stmt);
      Status s = DropIndex(drop.index);
      return drop.if_exists ? Status::Ok() : s;
    }
    case sql::StatementKind::kAlterTable: {
      const auto& alter = static_cast<const sql::AlterTableStatement&>(stmt);
      TableSchema* table = FindTableMutable(alter.table);
      if (table == nullptr) {
        return alter.if_exists ? Status::Ok()
                               : Status::Error("no such table: " + std::string(alter.table));
      }
      switch (alter.action) {
        case sql::AlterAction::kAddColumn: {
          ColumnSchema c;
          c.name = alter.column.name;
          c.type = DataType::FromTypeName(alter.column.type);
          c.not_null = alter.column.not_null;
          c.unique = alter.column.unique;
          table->columns.push_back(std::move(c));
          if (alter.column.primary_key) table->primary_key.emplace_back(alter.column.name);
          if (alter.column.references.has_value()) {
            ForeignKeySchema fk;
            fk.columns = {std::string(alter.column.name)};
            fk.ref_table = alter.column.references->table;
            fk.ref_columns = sql::ToStringVector(alter.column.references->columns);
            fk.on_delete_cascade = alter.column.references->on_delete_cascade;
            table->foreign_keys.push_back(std::move(fk));
          }
          return Status::Ok();
        }
        case sql::AlterAction::kDropColumn: {
          int idx = table->ColumnIndex(alter.target_name);
          if (idx < 0) {
            return alter.if_exists ? Status::Ok()
                                   : Status::Error("no such column: " + std::string(alter.target_name));
          }
          table->columns.erase(table->columns.begin() + idx);
          std::erase_if(table->primary_key, [&](const std::string& c) {
            return EqualsIgnoreCase(c, alter.target_name);
          });
          std::erase_if(table->foreign_keys, [&](const ForeignKeySchema& fk) {
            for (const auto& c : fk.columns) {
              if (EqualsIgnoreCase(c, alter.target_name)) return true;
            }
            return false;
          });
          return Status::Ok();
        }
        case sql::AlterAction::kAddConstraint: {
          const auto& con = alter.constraint;
          switch (con.kind) {
            case sql::TableConstraintKind::kPrimaryKey:
              table->primary_key = sql::ToStringVector(con.columns);
              break;
            case sql::TableConstraintKind::kForeignKey: {
              ForeignKeySchema fk;
              fk.name = con.name;
              fk.columns = sql::ToStringVector(con.columns);
              fk.ref_table = con.reference.table;
              fk.ref_columns = sql::ToStringVector(con.reference.columns);
              fk.on_delete_cascade = con.reference.on_delete_cascade;
              table->foreign_keys.push_back(std::move(fk));
              break;
            }
            case sql::TableConstraintKind::kUnique:
              table->unique_constraints.push_back(sql::ToStringVector(con.columns));
              break;
            case sql::TableConstraintKind::kCheck: {
              CheckConstraintSchema check;
              check.name = con.name;
              if (con.check) {
                check.expression_sql = sql::PrintExpr(*con.check);
                check.expression =
                    std::shared_ptr<const sql::Expr>(con.check->Clone().release());
              }
              table->checks.push_back(std::move(check));
              break;
            }
          }
          return Status::Ok();
        }
        case sql::AlterAction::kDropConstraint: {
          size_t before = table->checks.size() + table->foreign_keys.size();
          std::erase_if(table->checks, [&](const CheckConstraintSchema& c) {
            return EqualsIgnoreCase(c.name, alter.target_name);
          });
          std::erase_if(table->foreign_keys, [&](const ForeignKeySchema& fk) {
            return EqualsIgnoreCase(fk.name, alter.target_name);
          });
          size_t after = table->checks.size() + table->foreign_keys.size();
          if (before == after && !alter.if_exists) {
            return Status::Error("no such constraint: " + std::string(alter.target_name));
          }
          return Status::Ok();
        }
        case sql::AlterAction::kAlterColumnType: {
          int idx = table->ColumnIndex(alter.column.name);
          if (idx < 0) return Status::Error("no such column: " + std::string(alter.column.name));
          table->columns[static_cast<size_t>(idx)].type =
              DataType::FromTypeName(alter.column.type);
          return Status::Ok();
        }
        case sql::AlterAction::kRenameTable: {
          TableSchema moved = *table;
          moved.name = alter.new_name;
          DropTable(alter.table);
          return AddTable(std::move(moved));
        }
        case sql::AlterAction::kRenameColumn: {
          int idx = table->ColumnIndex(alter.target_name);
          if (idx < 0) return Status::Error("no such column: " + std::string(alter.target_name));
          table->columns[static_cast<size_t>(idx)].name = alter.new_name;
          for (auto& pk : table->primary_key) {
            if (EqualsIgnoreCase(pk, alter.target_name)) pk = alter.new_name;
          }
          return Status::Ok();
        }
        case sql::AlterAction::kUnknown:
          return Status::Error("unsupported ALTER action");
      }
      return Status::Ok();
    }
    default:
      return Status::Ok();  // DML — nothing to do.
  }
}

const TableSchema* Catalog::FindTable(std::string_view name) const {
  auto it = tables_.find(LowerProbe(name).view());
  return it == tables_.end() ? nullptr : &it->second;
}

TableSchema* Catalog::FindTableMutable(std::string_view name) {
  auto it = tables_.find(LowerProbe(name).view());
  return it == tables_.end() ? nullptr : &it->second;
}

const IndexSchema* Catalog::FindIndex(std::string_view name) const {
  auto it = indexes_.find(LowerProbe(name).view());
  return it == indexes_.end() ? nullptr : &it->second;
}

std::vector<const TableSchema*> Catalog::Tables() const {
  std::vector<const TableSchema*> out;
  out.reserve(tables_.size());
  for (const auto& [_, schema] : tables_) out.push_back(&schema);
  return out;
}

std::vector<const IndexSchema*> Catalog::IndexesOnTable(std::string_view table) const {
  std::vector<const IndexSchema*> out;
  for (const auto& [_, index] : indexes_) {
    if (EqualsIgnoreCase(index.table, table)) out.push_back(&index);
  }
  return out;
}

bool Catalog::HasIndexOnColumn(std::string_view table, std::string_view column) const {
  for (const auto& [_, index] : indexes_) {
    if (EqualsIgnoreCase(index.table, table) && !index.columns.empty() &&
        EqualsIgnoreCase(index.columns[0], column)) {
      return true;
    }
  }
  return false;
}

}  // namespace sqlcheck
