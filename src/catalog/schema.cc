#include "catalog/schema.h"

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

Value LiteralToValue(const sql::Expr& e) {
  switch (e.kind) {
    case sql::ExprKind::kNullLiteral:
      return Value::Null_();
    case sql::ExprKind::kBoolLiteral:
      return Value::Bool(e.text == "true");
    case sql::ExprKind::kNumberLiteral:
      if (e.text.find('.') != std::string::npos || e.text.find('e') != std::string::npos ||
          e.text.find('E') != std::string::npos) {
        return Value::Real(std::strtod(e.text.c_str(), nullptr));
      }
      return Value::Int(std::strtoll(e.text.c_str(), nullptr, 10));
    case sql::ExprKind::kStringLiteral:
      return Value::Str(std::string(e.text));
    default:
      return Value::Null_();
  }
}

}  // namespace

TableSchema TableSchema::FromCreateTable(const sql::CreateTableStatement& stmt) {
  TableSchema schema;
  schema.name = stmt.table;
  for (const auto& col : stmt.columns) {
    ColumnSchema c;
    c.name = col.name;
    c.type = DataType::FromTypeName(col.type);
    c.not_null = col.not_null || col.primary_key;
    c.unique = col.unique;
    c.auto_increment = col.auto_increment || c.type.id == TypeId::kSerial;
    if (col.default_value) c.default_value = LiteralToValue(*col.default_value);
    schema.columns.push_back(std::move(c));

    if (col.primary_key) schema.primary_key.emplace_back(col.name);
    if (col.references.has_value()) {
      ForeignKeySchema fk;
      fk.columns = {std::string(col.name)};
      fk.ref_table = col.references->table;
      fk.ref_columns = sql::ToStringVector(col.references->columns);
      fk.on_delete_cascade = col.references->on_delete_cascade;
      schema.foreign_keys.push_back(std::move(fk));
    }
    if (col.check) {
      CheckConstraintSchema check;
      check.expression_sql = sql::PrintExpr(*col.check);
      check.expression = std::shared_ptr<const sql::Expr>(col.check->Clone().release());
      schema.checks.push_back(std::move(check));
    }
  }
  for (const auto& con : stmt.constraints) {
    switch (con.kind) {
      case sql::TableConstraintKind::kPrimaryKey:
        schema.primary_key = sql::ToStringVector(con.columns);
        for (const auto& pk_col : con.columns) {
          int idx = schema.ColumnIndex(pk_col);
          if (idx >= 0) schema.columns[static_cast<size_t>(idx)].not_null = true;
        }
        break;
      case sql::TableConstraintKind::kForeignKey: {
        ForeignKeySchema fk;
        fk.name = con.name;
        fk.columns = sql::ToStringVector(con.columns);
        fk.ref_table = con.reference.table;
        fk.ref_columns = sql::ToStringVector(con.reference.columns);
        fk.on_delete_cascade = con.reference.on_delete_cascade;
        schema.foreign_keys.push_back(std::move(fk));
        break;
      }
      case sql::TableConstraintKind::kUnique:
        schema.unique_constraints.push_back(sql::ToStringVector(con.columns));
        break;
      case sql::TableConstraintKind::kCheck: {
        CheckConstraintSchema check;
        check.name = con.name;
        if (con.check) {
          check.expression_sql = sql::PrintExpr(*con.check);
          check.expression = std::shared_ptr<const sql::Expr>(con.check->Clone().release());
        }
        schema.checks.push_back(std::move(check));
        break;
      }
    }
  }
  return schema;
}

}  // namespace sqlcheck
