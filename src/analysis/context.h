#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/data_context.h"
#include "analysis/query_context.h"
#include "analysis/workload_stats.h"
#include "catalog/catalog.h"
#include "common/arena.h"
#include "sql/ast.h"
#include "storage/database.h"

namespace sqlcheck {

/// \brief Query fingerprint grouping maintained by AnalysisSession's dedup
/// memo: every statement maps to the first statement with the same
/// exact-canonical form (whitespace/comment/keyword-case folded, literal text
/// preserved — see sql::FingerprintOptions::Exact()). Statements in one group
/// are guaranteed to produce identical QueryFacts modulo their raw text and
/// parse tree, so analysis and rule evaluation run once per group. With dedup
/// disabled the mapping is the identity.
struct QueryGroups {
  /// Statement index -> index of its group's representative (first
  /// occurrence). `representative[i] == i` iff statement i leads a group.
  std::vector<size_t> representative;
  /// Representative indices in ascending statement order.
  std::vector<size_t> unique;
  /// Statement index -> position of its group in `unique`.
  std::vector<size_t> group;
  /// Per-statement exact-canonical 64-bit fingerprint (empty with dedup
  /// disabled).
  std::vector<uint64_t> fingerprints;

  size_t unique_count() const { return unique.size(); }
  bool has_duplicates() const { return unique.size() < representative.size(); }
};

/// \brief The application context of Algorithm 1: the catalog (from DDL or a
/// live database), the analyzed queries, and optional data profiles. It
/// exposes the queryable interface the inter-query and data rules consume.
/// AnalysisSession owns and fills it, folding every statement into the
/// workload aggregates as it lands.
class Context {
 public:
  const Catalog& catalog() const { return catalog_; }
  const std::vector<QueryFacts>& queries() const { return query_facts_; }
  const DataContext& data() const { return data_; }
  const Database* database() const { return database_; }
  bool has_data() const { return !data_.empty(); }

  /// Fingerprint grouping of the workload (identity when dedup was off);
  /// query rules are evaluated once per group.
  const QueryGroups& query_groups() const { return query_groups_; }

  /// Maintained workload aggregates backing the queryable interface below.
  /// AnalysisSession folds each statement in as it streams, so the O(1)
  /// answers stay current.
  const WorkloadStats& stats() const { return stats_; }

  /// Case-insensitive table/column name table populated as statements fold
  /// into the aggregates (one instance per Context; see NameInterner).
  const NameInterner& names() const { return stats_.names(); }

  /// The arena owning this context's parse trees. Statements placed here
  /// must not outlive the Context. Stable address for the Context's life
  /// (moved Contexts keep the same arena).
  Arena* arena() { return arena_.get(); }

  /// Parse-tree arena accounting (quota checks and SessionUsage).
  size_t arena_reserved_bytes() const { return arena_->bytes_reserved(); }
  size_t arena_used_bytes() const { return arena_->bytes_used(); }

  // ------------------------ queryable interface ----------------------------
  /// Queries referencing a table.
  std::vector<const QueryFacts*> QueriesReferencing(std::string_view table) const;

  /// How many equality predicates/join edges across the workload touch
  /// `table.column` (signals Index Underuse when unindexed).
  int EqualityUseCount(std::string_view table, std::string_view column) const {
    return stats_.EqualityUseCount(table, column);
  }

  /// True if any query joins `left` and `right` on any columns.
  bool TablesJoined(std::string_view left, std::string_view right) const {
    return stats_.TablesJoined(left, right);
  }

  /// True if the catalog records a foreign key between the two tables (in
  /// either direction).
  bool ForeignKeyExists(std::string_view left, std::string_view right) const;

  /// The table profile for `table`, or nullptr without data analysis.
  const TableProfile* ProfileFor(std::string_view table) const { return data_.Find(table); }

  /// True if the schema column is nullable (unknown tables count as nullable).
  bool ColumnNullable(std::string_view table, std::string_view column) const;

 private:
  friend class AnalysisSession;

  Catalog catalog_;
  /// Owns every arena-tier parse tree in trees_ (created up front so
  /// incremental sessions can keep parsing into it). Held by pointer so the
  /// arena address survives Context moves.
  std::unique_ptr<Arena> arena_ = std::make_unique<Arena>();
  /// One parse tree per parsed statement text. A byte-identical repeat is
  /// never parsed: it shares the tree of the first occurrence of its text.
  std::vector<sql::StatementPtr> trees_;
  std::vector<const sql::Statement*> statements_;  ///< Per statement, its tree.
  std::vector<QueryFacts> query_facts_;
  QueryGroups query_groups_;
  WorkloadStats stats_;
  DataContext data_;
  const Database* database_ = nullptr;  ///< Non-owning; may be null.
};

}  // namespace sqlcheck
