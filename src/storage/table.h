#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "storage/index.h"

namespace sqlcheck {

/// \brief In-memory row store with tombstoned deletes and maintained hash
/// indexes. Constraint *enforcement* lives in the executor; the table is the
/// physical layer (slots, index maintenance, schema changes).
class Table {
 public:
  explicit Table(TableSchema schema) : schema_(std::move(schema)) {}

  const TableSchema& schema() const { return schema_; }
  TableSchema& schema_mutable() { return schema_; }

  size_t live_row_count() const { return live_count_; }
  size_t slot_count() const { return rows_.size(); }
  bool IsLive(size_t slot) const { return slot < live_.size() && live_[slot]; }
  const Row& RowAt(size_t slot) const { return rows_[slot]; }

  /// Appends a row (caller has already validated it) and updates all indexes.
  /// Returns the new slot.
  size_t Insert(Row row);

  /// Replaces the row in `slot`, updating every index entry touched.
  Status UpdateRow(size_t slot, Row row);

  /// Tombstones the row in `slot` and removes its index entries.
  Status DeleteRow(size_t slot);

  /// Invokes `fn(slot, row)` for every live row.
  void ForEachLive(const std::function<void(size_t, const Row&)>& fn) const;

  /// Collects live slots (handy for sampling and tests).
  std::vector<size_t> LiveSlots() const;

  // ------------------------------- indexes --------------------------------
  /// Builds a new index over existing rows. Fails if a column is unknown or
  /// the name already exists on this table.
  Status CreateIndex(const IndexSchema& schema);
  Status DropIndex(std::string_view name);
  const std::vector<std::unique_ptr<Index>>& indexes() const { return indexes_; }

  /// First index whose leading column is `column` (nullptr when none).
  const Index* FindIndexOnColumn(std::string_view column) const;
  /// First SINGLE-column index on exactly `column` — the one usable for
  /// point lookups by that column alone (nullptr when none).
  const Index* FindSingleColumnIndex(std::string_view column) const;
  /// Index matching the column list exactly (nullptr when none).
  const Index* FindIndexOnColumns(const std::vector<std::string>& columns) const;

  // ----------------------------- schema changes ---------------------------
  /// Adds a column with a fill value for existing rows.
  Status AddColumn(const ColumnSchema& column, const Value& fill);
  /// Removes a column and rewrites all rows (indexes on it are dropped).
  Status DropColumn(std::string_view name);
  /// Renames a column in the schema and in the index definitions (rows and
  /// index positions are unchanged). The column must exist.
  void RenameColumn(std::string_view from, std::string_view to);

  // --------------------------- auto-increment -----------------------------
  int64_t NextAutoValue() { return ++auto_counter_; }
  void ObserveAutoValue(int64_t v) {
    if (v > auto_counter_) auto_counter_ = v;
  }

 private:
  TableSchema schema_;
  std::vector<Row> rows_;
  std::vector<bool> live_;
  size_t live_count_ = 0;
  int64_t auto_counter_ = 0;
  std::vector<std::unique_ptr<Index>> indexes_;
};

}  // namespace sqlcheck
