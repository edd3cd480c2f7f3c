#include "catalog/schema.h"

#include <algorithm>

#include "common/strings.h"
#include "sql/printer.h"

namespace sqlcheck {

const ColumnSchema* TableSchema::FindColumn(std::string_view column) const {
  for (const auto& c : columns) {
    if (EqualsIgnoreCase(c.name, column)) return &c;
  }
  return nullptr;
}

int TableSchema::ColumnIndex(std::string_view column) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (EqualsIgnoreCase(columns[i].name, column)) return static_cast<int>(i);
  }
  return -1;
}

namespace {

ForeignKeySchema MakeForeignKey(std::string_view name, std::vector<std::string> columns,
                                const sql::ForeignKeyRefAst& ref) {
  return {std::string(name), std::move(columns), std::string(ref.table),
          sql::ToStringVector(ref.columns), ref.on_delete_cascade};
}

CheckConstraintSchema MakeCheck(std::string_view name, const sql::Expr* expression) {
  CheckConstraintSchema check;
  check.name = name;
  if (expression != nullptr) {
    check.expression_sql = sql::PrintExpr(*expression);
    check.expression = std::shared_ptr<const sql::Expr>(expression->Clone().release());
  }
  return check;
}

/// True when `e` reads `column`.
bool ReadsColumn(const sql::Expr& e, std::string_view column) {
  bool reads = false;
  sql::VisitExpr(e, [&](const sql::Expr& node) {
    reads |= EqualsIgnoreCase(node.ColumnName(), column);
  });
  return reads;
}

/// Renames every reference to column `from` under `e`.
void RenameRefs(sql::Expr* e, std::string_view from, std::string_view to) {
  if (EqualsIgnoreCase(e->ColumnName(), from)) e->name_parts.back() = to;
  for (auto& child : e->children) RenameRefs(child.get(), from, to);
}

bool Names(const std::vector<std::string>& columns, std::string_view column) {
  return std::any_of(columns.begin(), columns.end(),
                     [&](const std::string& c) { return EqualsIgnoreCase(c, column); });
}

Status NoSuch(std::string_view what, std::string_view name) {
  return Status::Error("no such " + std::string(what) + ": " + std::string(name));
}

}  // namespace

TableSchema TableSchema::FromCreateTable(const sql::CreateTableStatement& stmt) {
  TableSchema schema;
  schema.name = stmt.table;
  for (const auto& col : stmt.columns) schema.AddColumn(col);
  for (const auto& con : stmt.constraints) schema.AddConstraint(con);
  return schema;
}

void TableSchema::AddColumn(const sql::ColumnDefAst& def) {
  ColumnSchema& c = columns.emplace_back();
  c.name = def.name;
  c.type = DataType::FromTypeName(def.type);
  c.not_null = def.not_null || def.primary_key;
  c.unique = def.unique;
  c.auto_increment = def.auto_increment || c.type.id == TypeId::kSerial;
  if (def.default_value) c.default_value = LiteralValue(*def.default_value);
  if (def.primary_key) primary_key.emplace_back(def.name);
  if (def.references) {
    foreign_keys.push_back(MakeForeignKey({}, {std::string(def.name)}, *def.references));
  }
  if (def.check) checks.push_back(MakeCheck({}, def.check.get()));
}

void TableSchema::AddConstraint(const sql::TableConstraintAst& con) {
  switch (con.kind) {
    case sql::TableConstraintKind::kPrimaryKey:
      primary_key = sql::ToStringVector(con.columns);
      for (const auto& pk_col : con.columns) {
        int idx = ColumnIndex(pk_col);
        if (idx >= 0) columns[static_cast<size_t>(idx)].not_null = true;
      }
      return;
    case sql::TableConstraintKind::kForeignKey:
      foreign_keys.push_back(
          MakeForeignKey(con.name, sql::ToStringVector(con.columns), con.reference));
      return;
    case sql::TableConstraintKind::kUnique:
      unique_constraints.push_back(sql::ToStringVector(con.columns));
      return;
    case sql::TableConstraintKind::kCheck:
      checks.push_back(MakeCheck(con.name, con.check.get()));
      return;
  }
}

void TableSchema::DropColumn(std::string_view column) {
  const std::string dropped(column);  // `column` may view a name erased below
  int idx = ColumnIndex(dropped);
  if (idx >= 0) columns.erase(columns.begin() + idx);
  auto is_dropped = [&](const std::string& c) { return EqualsIgnoreCase(c, dropped); };
  auto names_dropped = [&](const std::vector<std::string>& cols) {
    return std::any_of(cols.begin(), cols.end(), is_dropped);
  };
  std::erase_if(primary_key, is_dropped);
  std::erase_if(foreign_keys,
                [&](const ForeignKeySchema& fk) { return names_dropped(fk.columns); });
  std::erase_if(unique_constraints, names_dropped);
  std::erase_if(checks, [&](const CheckConstraintSchema& check) {
    return check.expression && ReadsColumn(*check.expression, dropped);
  });
}

void TableSchema::RenameColumn(std::string_view from, std::string_view to) {
  const std::string old_name(from);  // `from` may view a name renamed below
  auto rename = [&](std::string& c) {
    if (EqualsIgnoreCase(c, old_name)) c = to;
  };
  int idx = ColumnIndex(old_name);
  if (idx >= 0) columns[static_cast<size_t>(idx)].name = to;
  std::for_each(primary_key.begin(), primary_key.end(), rename);
  for (auto& fk : foreign_keys) {
    std::for_each(fk.columns.begin(), fk.columns.end(), rename);
  }
  for (auto& cols : unique_constraints) std::for_each(cols.begin(), cols.end(), rename);
  for (auto& check : checks) {
    if (!check.expression || !ReadsColumn(*check.expression, old_name)) continue;
    sql::ExprPtr renamed = check.expression->Clone();  // other schema copies share it
    RenameRefs(renamed.get(), old_name, to);
    check.expression_sql = sql::PrintExpr(*renamed);
    check.expression = std::shared_ptr<const sql::Expr>(renamed.release());
  }
}

Status TableSchema::Alter(const sql::AlterTableStatement& alter) {
  switch (alter.action) {
    case sql::AlterAction::kAddColumn:
      if (FindColumn(alter.column.name) != nullptr) {
        return Status::Error("duplicate column: " + std::string(alter.column.name));
      }
      AddColumn(alter.column);
      return Status::Ok();
    case sql::AlterAction::kDropColumn:
      if (FindColumn(alter.target_name) == nullptr) {
        return alter.if_exists ? Status::Ok() : NoSuch("column", alter.target_name);
      }
      DropColumn(alter.target_name);
      return Status::Ok();
    case sql::AlterAction::kAddConstraint:
      for (const auto& column : alter.constraint.columns) {
        if (FindColumn(column) == nullptr) return NoSuch("column", column);
      }
      AddConstraint(alter.constraint);
      return Status::Ok();
    case sql::AlterAction::kDropConstraint: {
      auto named = [&](const auto& con) {
        return EqualsIgnoreCase(con.name, alter.target_name);
      };
      if (std::erase_if(checks, named) + std::erase_if(foreign_keys, named) == 0 &&
          !alter.if_exists) {
        return NoSuch("constraint", alter.target_name);
      }
      return Status::Ok();
    }
    case sql::AlterAction::kAlterColumnType: {
      int idx = ColumnIndex(alter.column.name);
      if (idx < 0) return NoSuch("column", alter.column.name);
      columns[static_cast<size_t>(idx)].type = DataType::FromTypeName(alter.column.type);
      return Status::Ok();
    }
    case sql::AlterAction::kRenameColumn: {
      if (FindColumn(alter.target_name) == nullptr) {
        return NoSuch("column", alter.target_name);
      }
      if (!EqualsIgnoreCase(alter.target_name, alter.new_name) &&
          FindColumn(alter.new_name) != nullptr) {
        return Status::Error("duplicate column: " + std::string(alter.new_name));
      }
      RenameColumn(alter.target_name, alter.new_name);
      return Status::Ok();
    }
    case sql::AlterAction::kRenameTable:
      name = alter.new_name;
      return Status::Ok();
    case sql::AlterAction::kUnknown:
      break;
  }
  return Status::Error("unsupported ALTER action");
}

Status TableSchema::CheckReferencedAlter(const sql::AlterTableStatement& alter,
                                         const TableSchema& target) const {
  if (alter.action != sql::AlterAction::kDropColumn) return Status::Ok();
  const bool self = EqualsIgnoreCase(name, target.name);
  for (const auto& fk : foreign_keys) {
    if (!EqualsIgnoreCase(fk.ref_table, target.name)) continue;
    if (self && Names(fk.columns, alter.target_name)) continue;  // goes with the column
    if (Names(fk.ref_columns.empty() ? target.primary_key : fk.ref_columns,
              alter.target_name)) {
      return Status::Error("cannot drop column " + std::string(alter.target_name) +
                           ": FOREIGN KEY " + name + " -> " + target.name +
                           " references it");
    }
  }
  return Status::Ok();
}

void TableSchema::FollowReferencedAlter(const sql::AlterTableStatement& alter) {
  for (auto& fk : foreign_keys) {
    if (!EqualsIgnoreCase(fk.ref_table, alter.table)) continue;
    if (alter.action == sql::AlterAction::kRenameTable) fk.ref_table = alter.new_name;
    if (alter.action != sql::AlterAction::kRenameColumn) continue;
    for (auto& c : fk.ref_columns) {
      if (EqualsIgnoreCase(c, alter.target_name)) c = alter.new_name;
    }
  }
}

IndexSchema IndexSchema::FromCreateIndex(const sql::CreateIndexStatement& stmt) {
  IndexSchema index;
  index.name = stmt.index;
  index.table = stmt.table;
  index.columns = sql::ToStringVector(stmt.columns);
  index.unique = stmt.unique;
  return index;
}

bool IndexSchema::FollowColumn(std::string_view column, std::string_view new_name) {
  for (auto& c : columns) {
    if (!EqualsIgnoreCase(c, column)) continue;
    if (new_name.empty()) return false;
    c = new_name;
  }
  return true;
}

}  // namespace sqlcheck
