#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"

namespace sqlcheck {

/// \brief Hash index over one or more columns of a table.
///
/// Maps a composite key to the set of live row slots holding it. The owning
/// Table maintains entries on every insert/update/delete — which is exactly
/// the write amplification the Index Overuse experiment (Fig. 8a) measures.
class Index {
 public:
  Index(IndexSchema schema, std::vector<int> column_positions)
      : schema_(std::move(schema)), column_positions_(std::move(column_positions)) {}

  const IndexSchema& schema() const { return schema_; }
  /// For column renames only: positions stay as they are.
  IndexSchema& schema_mutable() { return schema_; }
  const std::vector<int>& column_positions() const { return column_positions_; }

  /// Extracts this index's key from a full row.
  CompositeKey KeyFor(const Row& row) const;

  void Insert(const Row& row, size_t slot);
  void Remove(const Row& row, size_t slot);

  /// Row slots whose key equals `key` (unordered).
  std::vector<size_t> Lookup(const CompositeKey& key) const;

  /// True if some live entry already has this key (for UNIQUE enforcement).
  bool Contains(const CompositeKey& key) const;

  /// Visits every (key, slot) entry. Entries with equal keys are visited
  /// consecutively (multimap guarantee) — the executor's index-assisted
  /// GROUP BY relies on this adjacency.
  void ForEachEntry(const std::function<void(const CompositeKey&, size_t)>& fn) const;

  size_t entry_count() const { return entries_.size(); }

 private:
  IndexSchema schema_;
  std::vector<int> column_positions_;
  std::unordered_multimap<CompositeKey, size_t, CompositeKeyHash> entries_;
};

}  // namespace sqlcheck
