#include "catalog/catalog.h"

#include "common/strings.h"

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
  std::erase_if(indexes_, [&](const auto& entry) {
    return EqualsIgnoreCase(entry.second.table, name);
  });
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
      return AddIndex(IndexSchema::FromCreateIndex(create));
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
    case sql::StatementKind::kAlterTable:
      return Alter(static_cast<const sql::AlterTableStatement&>(stmt));
    default:
      return Status::Ok();  // DML — nothing to do.
  }
}

Status Catalog::Alter(const sql::AlterTableStatement& alter) {
  auto table = tables_.find(LowerProbe(alter.table).view());
  if (table == tables_.end()) {
    return alter.if_exists ? Status::Ok()
                           : Status::Error("no such table: " + std::string(alter.table));
  }
  bool rename_table = alter.action == sql::AlterAction::kRenameTable;
  if (rename_table && FindTable(alter.new_name) != nullptr) {
    return Status::Error("table already exists: " + std::string(alter.new_name));
  }
  for (const auto& [_, schema] : tables_) {
    Status refused = schema.CheckReferencedAlter(alter, table->second);
    if (!refused.ok()) return refused;
  }
  Status s = table->second.Alter(alter);
  if (!s.ok()) return s;
  if (rename_table) {
    auto node = tables_.extract(table);
    node.key() = ToLower(alter.new_name);
    tables_.insert(std::move(node));
  }
  for (auto& [_, schema] : tables_) schema.FollowReferencedAlter(alter);
  // The table's indexes follow it: a renamed table or column keeps them, and
  // dropping a column drops the indexes on it.
  for (auto it = indexes_.begin(); it != indexes_.end();) {
    IndexSchema& index = it->second;
    bool keep = true;
    if (EqualsIgnoreCase(index.table, alter.table)) {
      if (rename_table) index.table = alter.new_name;
      if (alter.action == sql::AlterAction::kRenameColumn) {
        index.FollowColumn(alter.target_name, alter.new_name);
      } else if (alter.action == sql::AlterAction::kDropColumn) {
        keep = index.FollowColumn(alter.target_name, {});
      }
    }
    it = keep ? std::next(it) : indexes_.erase(it);
  }
  return Status::Ok();
}

const TableSchema* Catalog::FindTable(std::string_view name) const {
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
