#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/interner.h"

namespace sqlcheck {

struct QueryFacts;

/// \brief Updatable workload aggregates: per-table/per-column usage counters
/// the inter-query rules consume (promoted out of per-call scans over
/// Context::queries() so a long-lived AnalysisSession can answer them in
/// O(1) as statements stream in).
///
/// Names are interned case-insensitively into the per-instance NameInterner,
/// so the hot lookups are integer-keyed hash probes — no `ToLower`
/// temporaries, no string-concatenated keys. Lookups for names the workload
/// has never mentioned short-circuit without touching the tables.
///
/// The counters reproduce the original scan semantics exactly (they are the
/// same sums, just maintained incrementally), so a Context answering through
/// its stats produces byte-identical reports:
///  - EqualityUseCount(t, c): qualified equality/IN predicates on `t.c`, plus
///    unqualified ones on `c` inside statements referencing `t`, plus every
///    non-expression join edge endpoint on `t.c`.
///  - TablesJoined(l, r): any non-expression join edge between the tables, in
///    either direction.
///  - StatementsReferencing(t): statement indices touching `t`, in workload
///    order.
/// All lookups fold ASCII case, matching EqualsIgnoreCase.
class WorkloadStats {
 public:
  /// Folds one analyzed statement into the aggregates. `stmt_index` must be
  /// the statement's position in the workload; statements must be added in
  /// workload order (indices strictly increasing). Single-threaded.
  void AddStatementFacts(size_t stmt_index, const QueryFacts& facts);

  /// How many equality predicates/join edges across the workload touch
  /// `table.column`.
  int EqualityUseCount(std::string_view table, std::string_view column) const;

  /// True if any statement joins `left` and `right` on any columns.
  bool TablesJoined(std::string_view left, std::string_view right) const;

  /// Indices of statements referencing `table` in workload order, or nullptr
  /// when none do.
  const std::vector<size_t>* StatementsReferencing(std::string_view table) const;

  /// Number of statements folded in so far.
  size_t statement_count() const { return statement_count_; }

  /// The name table backing the aggregates (tables/columns seen so far).
  const NameInterner& names() const { return interner_; }

 private:
  static uint64_t PairKey(NameId a, NameId b) {
    // Unordered pair: smaller id first, so (l, r) and (r, l) collide.
    NameId lo = a < b ? a : b;
    NameId hi = a < b ? b : a;
    return (static_cast<uint64_t>(lo) << 32) | hi;
  }
  static uint64_t ColumnKey(NameId table, NameId column) {
    return (static_cast<uint64_t>(table) << 32) | column;
  }

  /// Looks both names up without interning; false when either non-empty name
  /// was never seen (no aggregate can involve it).
  bool FindIds(std::string_view a, std::string_view b, NameId* ida, NameId* idb) const;

  size_t statement_count_ = 0;
  NameInterner interner_;
  /// (table id, column id) -> use count.
  std::unordered_map<uint64_t, int> equality_use_;
  /// Unordered table-id pairs with at least one join edge.
  std::unordered_set<uint64_t> joined_pairs_;
  /// table id -> referencing statement indices (ascending).
  std::unordered_map<NameId, std::vector<size_t>> by_table_;
};

}  // namespace sqlcheck
