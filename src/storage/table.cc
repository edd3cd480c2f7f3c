#include "storage/table.h"

#include "common/strings.h"

namespace sqlcheck {

size_t Table::Insert(Row row) {
  size_t slot = rows_.size();
  rows_.push_back(std::move(row));
  live_.push_back(true);
  ++live_count_;
  for (auto& index : indexes_) index->Insert(rows_[slot], slot);
  return slot;
}

Status Table::UpdateRow(size_t slot, Row row) {
  if (!IsLive(slot)) return Status::Error("update of dead slot");
  for (auto& index : indexes_) index->Remove(rows_[slot], slot);
  rows_[slot] = std::move(row);
  for (auto& index : indexes_) index->Insert(rows_[slot], slot);
  return Status::Ok();
}

Status Table::DeleteRow(size_t slot) {
  if (!IsLive(slot)) return Status::Error("delete of dead slot");
  for (auto& index : indexes_) index->Remove(rows_[slot], slot);
  live_[slot] = false;
  --live_count_;
  return Status::Ok();
}

void Table::ForEachLive(const std::function<void(size_t, const Row&)>& fn) const {
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (live_[slot]) fn(slot, rows_[slot]);
  }
}

std::vector<size_t> Table::LiveSlots() const {
  std::vector<size_t> out;
  out.reserve(live_count_);
  for (size_t slot = 0; slot < rows_.size(); ++slot) {
    if (live_[slot]) out.push_back(slot);
  }
  return out;
}

Status Table::CreateIndex(const IndexSchema& index_schema) {
  for (const auto& existing : indexes_) {
    if (EqualsIgnoreCase(existing->schema().name, index_schema.name)) {
      return Status::Error("index already exists: " + index_schema.name);
    }
  }
  std::vector<int> positions;
  for (const auto& col : index_schema.columns) {
    int pos = schema_.ColumnIndex(col);
    if (pos < 0) {
      return Status::Error("no such column for index: " + col);
    }
    positions.push_back(pos);
  }
  auto index = std::make_unique<Index>(index_schema, std::move(positions));
  ForEachLive([&](size_t slot, const Row& row) { index->Insert(row, slot); });
  indexes_.push_back(std::move(index));
  return Status::Ok();
}

Status Table::DropIndex(std::string_view name) {
  for (auto it = indexes_.begin(); it != indexes_.end(); ++it) {
    if (EqualsIgnoreCase((*it)->schema().name, name)) {
      indexes_.erase(it);
      return Status::Ok();
    }
  }
  return Status::Error("no such index: " + std::string(name));
}

const Index* Table::FindIndexOnColumn(std::string_view column) const {
  for (const auto& index : indexes_) {
    const auto& cols = index->schema().columns;
    if (!cols.empty() && EqualsIgnoreCase(cols[0], column)) return index.get();
  }
  return nullptr;
}

const Index* Table::FindSingleColumnIndex(std::string_view column) const {
  for (const auto& index : indexes_) {
    const auto& cols = index->schema().columns;
    if (cols.size() == 1 && EqualsIgnoreCase(cols[0], column)) return index.get();
  }
  return nullptr;
}

const Index* Table::FindIndexOnColumns(const std::vector<std::string>& columns) const {
  for (const auto& index : indexes_) {
    const auto& cols = index->schema().columns;
    if (cols.size() != columns.size()) continue;
    bool all = true;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (!EqualsIgnoreCase(cols[i], columns[i])) {
        all = false;
        break;
      }
    }
    if (all) return index.get();
  }
  return nullptr;
}

Status Table::AddColumn(const ColumnSchema& column, const Value& fill) {
  if (schema_.FindColumn(column.name) != nullptr) {
    return Status::Error("duplicate column: " + column.name);
  }
  schema_.columns.push_back(column);
  for (auto& row : rows_) row.push_back(fill);
  return Status::Ok();
}

Status Table::DropColumn(std::string_view name) {
  int pos = schema_.ColumnIndex(name);
  if (pos < 0) return Status::Error("no such column: " + std::string(name));

  // Indexes on the column go with it; the rest are rebuilt because column
  // positions shift.
  std::vector<IndexSchema> keep;
  for (const auto& index : indexes_) {
    IndexSchema kept = index->schema();
    if (kept.FollowColumn(name, {})) keep.push_back(std::move(kept));
  }
  indexes_.clear();
  schema_.DropColumn(name);
  for (auto& row : rows_) row.erase(row.begin() + pos);

  for (const auto& index_schema : keep) {
    Status s = CreateIndex(index_schema);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

void Table::RenameColumn(std::string_view from, std::string_view to) {
  for (auto& index : indexes_) index->schema_mutable().FollowColumn(from, to);
  schema_.RenameColumn(from, to);
}

}  // namespace sqlcheck
