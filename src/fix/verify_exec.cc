#include "fix/verify_exec.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/schema.h"
#include "catalog/value.h"
#include "common/failpoint.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/strings.h"
#include "engine/executor.h"
#include "sql/ast.h"
#include "sql/parser.h"
#include "storage/database.h"
#include "storage/table.h"

namespace sqlcheck {
namespace {

using Outcome = ExecCheck::Outcome;

// Rows generated per populated table.
constexpr size_t kRowsPerTable = 24;

ExecCheck Equivalent() { return {Outcome::kEquivalent, ""}; }
ExecCheck Divergent(std::string note) { return {Outcome::kDivergent, std::move(note)}; }
ExecCheck Infeasible(std::string note) { return {Outcome::kInfeasible, std::move(note)}; }
ExecCheck Skipped() { return {Outcome::kSkipped, ""}; }

// ---------------------------------------------------------------------------
// Statement walking: root expressions, referenced tables, alias resolution
// ---------------------------------------------------------------------------

void CollectTables(const sql::Statement& stmt, std::vector<std::string>* out);

void CollectTablesFromExpr(const sql::Expr& expr, std::vector<std::string>* out) {
  if (expr.subquery) CollectTables(*expr.subquery, out);
  for (const auto& child : expr.children) {
    if (child) CollectTablesFromExpr(*child, out);
  }
}

// Every base-table name the statement touches, including tables referenced
// only from scalar subqueries (the ORDER BY RAND() probe's MAX(pk) source).
void CollectTables(const sql::Statement& stmt, std::vector<std::string>* out) {
  auto source = [out](const sql::TableRef& ref) {
    if (!ref.name.empty()) out->emplace_back(ref.name);
    if (ref.subquery) CollectTables(*ref.subquery, out);
  };
  if (const auto* select = stmt.As<sql::SelectStatement>()) {
    for (const auto& ref : select->from) source(ref);
    for (const auto& join : select->joins) source(join.table);
  } else if (const auto* insert = stmt.As<sql::InsertStatement>()) {
    if (!insert->table.empty()) out->emplace_back(insert->table);
    if (insert->select) CollectTables(*insert->select, out);
  } else if (const auto* update = stmt.As<sql::UpdateStatement>()) {
    if (!update->table.empty()) out->emplace_back(update->table);
  } else if (const auto* del = stmt.As<sql::DeleteStatement>()) {
    if (!del->table.empty()) out->emplace_back(del->table);
  }
  sql::ForEachRootExpr(stmt, [out](const sql::Expr& expr) {
    CollectTablesFromExpr(expr, out);
  });
}

// alias (lowercased) -> base table name, for resolving qualified column refs.
// `default_table` receives the sole base table when the statement has exactly
// one, so unqualified refs can be attributed.
void CollectAliases(const sql::Statement& stmt,
                    std::unordered_map<std::string, std::string>* aliases,
                    std::string* default_table) {
  std::vector<std::pair<std::string, std::string>> sources;  // (effective, base)
  auto add_ref = [&sources](const sql::TableRef& ref) {
    if (ref.name.empty()) return;
    sources.emplace_back(std::string(ref.EffectiveName()), std::string(ref.name));
  };
  if (const auto* select = stmt.As<sql::SelectStatement>()) {
    for (const auto& ref : select->from) add_ref(ref);
    for (const auto& join : select->joins) add_ref(join.table);
  } else if (const auto* insert = stmt.As<sql::InsertStatement>()) {
    if (!insert->table.empty()) {
      sources.emplace_back(std::string(insert->table), std::string(insert->table));
    }
  } else if (const auto* update = stmt.As<sql::UpdateStatement>()) {
    if (!update->table.empty()) {
      std::string effective(update->alias.empty() ? update->table : update->alias);
      sources.emplace_back(std::move(effective), std::string(update->table));
    }
  } else if (const auto* del = stmt.As<sql::DeleteStatement>()) {
    if (!del->table.empty()) {
      sources.emplace_back(std::string(del->table), std::string(del->table));
    }
  }
  for (auto& [effective, base] : sources) {
    (*aliases)[ToLower(effective)] = base;
  }
  if (sources.size() == 1 && default_table->empty()) {
    *default_table = sources.front().second;
  }
}

// ---------------------------------------------------------------------------
// Literal harvesting: plant the statements' own constants in the data
// ---------------------------------------------------------------------------

struct Harvest {
  std::vector<Value> values;          // comparison / IN / BETWEEN literals
  std::vector<std::string> patterns;  // LIKE patterns, materialized later
  bool saw_string = false;
};

// Keyed by "table_lc.column_lc"; unattributable refs are dropped.
using HarvestMap = std::unordered_map<std::string, Harvest>;

class Harvester {
 public:
  Harvester(HarvestMap* out,
            const std::unordered_map<std::string, std::string>& aliases,
            const std::string& default_table)
      : out_(out), aliases_(aliases), default_table_(default_table) {}

  void Walk(const sql::Expr& expr) {
    Observe(expr);
    if (expr.subquery) {
      if (expr.subquery->where) Walk(*expr.subquery->where);
      if (expr.subquery->having) Walk(*expr.subquery->having);
      for (const auto& join : expr.subquery->joins) {
        if (join.on) Walk(*join.on);
      }
    }
    for (const auto& child : expr.children) {
      if (child) Walk(*child);
    }
  }

 private:
  std::string KeyFor(const sql::Expr& column_ref) const {
    std::string column = ToLower(column_ref.ColumnName());
    if (column.empty()) return {};
    std::string qualifier = ToLower(column_ref.TableQualifier());
    std::string table;
    if (!qualifier.empty()) {
      auto it = aliases_.find(qualifier);
      table = ToLower(it != aliases_.end() ? it->second : qualifier);
    } else {
      table = ToLower(default_table_);
    }
    if (table.empty()) return {};
    return table + "." + column;
  }

  void Record(const std::string& key, const Value& value) {
    if (key.empty()) return;
    Harvest& harvest = (*out_)[key];
    harvest.values.push_back(value);
    if (value.is_string()) harvest.saw_string = true;
  }

  void Observe(const sql::Expr& expr) {
    switch (expr.kind) {
      case sql::ExprKind::kBinary: {
        if (expr.children.size() != 2) return;
        const sql::Expr* column = nullptr;
        const sql::Expr* literal = nullptr;
        if (expr.children[0] && expr.children[1]) {
          if (expr.children[0]->kind == sql::ExprKind::kColumnRef) {
            column = expr.children[0].get();
            literal = expr.children[1].get();
          } else if (expr.children[1]->kind == sql::ExprKind::kColumnRef) {
            column = expr.children[1].get();
            literal = expr.children[0].get();
          }
        }
        if (column == nullptr || literal == nullptr) return;
        if (IsLiteral(*literal)) Record(KeyFor(*column), LiteralValue(*literal));
        return;
      }
      case sql::ExprKind::kLike: {
        if (expr.children.size() < 2 || !expr.children[0] || !expr.children[1]) {
          return;
        }
        if (expr.children[0]->kind != sql::ExprKind::kColumnRef) return;
        if (expr.children[1]->kind != sql::ExprKind::kStringLiteral) return;
        std::string key = KeyFor(*expr.children[0]);
        if (key.empty()) return;
        Harvest& harvest = (*out_)[key];
        harvest.patterns.emplace_back(expr.children[1]->text);
        harvest.saw_string = true;
        return;
      }
      case sql::ExprKind::kIn: {
        if (expr.children.empty() || !expr.children[0]) return;
        if (expr.children[0]->kind != sql::ExprKind::kColumnRef) return;
        std::string key = KeyFor(*expr.children[0]);
        for (size_t i = 1; i < expr.children.size(); ++i) {
          if (expr.children[i] && IsLiteral(*expr.children[i])) {
            Record(key, LiteralValue(*expr.children[i]));
          }
        }
        return;
      }
      case sql::ExprKind::kBetween: {
        if (expr.children.size() != 3 || !expr.children[0]) return;
        if (expr.children[0]->kind != sql::ExprKind::kColumnRef) return;
        std::string key = KeyFor(*expr.children[0]);
        for (size_t i = 1; i < 3; ++i) {
          if (expr.children[i] && IsLiteral(*expr.children[i])) {
            Record(key, LiteralValue(*expr.children[i]));
          }
        }
        return;
      }
      default:
        return;
    }
  }

  HarvestMap* out_;
  const std::unordered_map<std::string, std::string>& aliases_;
  const std::string& default_table_;
};

void HarvestStatement(const sql::Statement& stmt, HarvestMap* out) {
  std::unordered_map<std::string, std::string> aliases;
  std::string default_table;
  CollectAliases(stmt, &aliases, &default_table);
  Harvester harvester(out, aliases, default_table);
  sql::ForEachRootExpr(stmt, [&harvester](const sql::Expr& expr) {
    harvester.Walk(expr);
  });
}

// Column references per table (lowercased), for synthesizing schemas of
// tables the workload never defined.
void CollectColumnRefs(
    const sql::Statement& stmt,
    std::unordered_map<std::string, std::vector<std::string>>* columns_by_table) {
  std::unordered_map<std::string, std::string> aliases;
  std::string default_table;
  CollectAliases(stmt, &aliases, &default_table);
  std::function<void(const sql::Expr&)> walk = [&](const sql::Expr& expr) {
    if (expr.kind == sql::ExprKind::kColumnRef) {
      std::string column(expr.ColumnName());
      if (!column.empty()) {
        std::string qualifier = ToLower(expr.TableQualifier());
        std::string table;
        if (!qualifier.empty()) {
          auto it = aliases.find(qualifier);
          table = ToLower(it != aliases.end() ? it->second : qualifier);
        } else {
          table = ToLower(default_table);
        }
        if (!table.empty()) (*columns_by_table)[table].push_back(column);
      }
    }
    if (expr.subquery) {
      for (const auto& item : expr.subquery->items) {
        if (item.expr) walk(*item.expr);
      }
      if (expr.subquery->where) walk(*expr.subquery->where);
    }
    for (const auto& child : expr.children) {
      if (child) walk(*child);
    }
  };
  sql::ForEachRootExpr(stmt, walk);
  if (const auto* insert = stmt.As<sql::InsertStatement>()) {
    std::string table = ToLower(insert->table);
    if (!table.empty()) {
      for (const auto& column : insert->columns) {
        (*columns_by_table)[table].emplace_back(column);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Ephemeral database construction
// ---------------------------------------------------------------------------

// Deterministic materialization of a LIKE pattern into a matching string:
// '%' expands to a short seeded word, '_' to one seeded character, escapes
// drop to their literal. Planted into generated rows so leading-wildcard
// probes select a non-empty subset.
std::string MaterializePattern(std::string_view pattern, Rng* rng) {
  std::string result;
  bool escaped = false;
  for (char c : pattern) {
    if (escaped) {
      result.push_back(c);
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '%') {
      result += rng->NextWord(0, 5);
    } else if (c == '_') {
      result += static_cast<char>('a' + rng->NextBelow(26));
    } else {
      result.push_back(c);
    }
  }
  return result;
}

bool IsIdish(const std::string& lc) {
  return lc == "id" || (lc.size() > 3 && lc.rfind("_id") == lc.size() - 3);
}

TableSchema SynthesizeSchema(const std::string& name,
                             const std::vector<std::string>& columns,
                             const HarvestMap& harvest) {
  TableSchema schema;
  schema.name = name;
  std::unordered_set<std::string> seen;
  for (const auto& column : columns) {
    std::string lc = ToLower(column);
    if (!seen.insert(lc).second) continue;
    ColumnSchema col;
    col.name = column;
    auto it = harvest.find(ToLower(name) + "." + lc);
    bool integer = false;
    if (it != harvest.end() && !it->second.values.empty()) {
      bool all_int = true;
      for (const Value& value : it->second.values) {
        if (!value.is_int()) all_int = false;
      }
      integer = all_int && !it->second.saw_string && it->second.patterns.empty();
    } else if (IsIdish(lc)) {
      // id-ish names default to integers even without harvested evidence.
      integer = true;
    }
    col.type = integer ? DataType::Make(TypeId::kInteger)
                       : DataType::Make(TypeId::kVarchar);
    if (!integer) col.type.length = 64;
    schema.columns.push_back(std::move(col));
  }
  if (schema.columns.empty()) {
    ColumnSchema col;
    col.name = "id";
    col.type = DataType::Make(TypeId::kInteger);
    schema.columns.push_back(std::move(col));
  }
  // Prefer an integer id-ish column as primary key so pk-probe rewrites have
  // something to stand on.
  for (const auto& col : schema.columns) {
    if (col.type.IsIntegerLike() && IsIdish(ToLower(col.name))) {
      schema.primary_key = {col.name};
      break;
    }
  }
  return schema;
}

struct BuildPlan {
  // Population order: FK parents first. Each entry is a schema copy the
  // ephemeral database will own.
  std::vector<TableSchema> schemas;
};

// Resolves every referenced table to a schema (catalog first, synthesized
// otherwise), pulls in catalog FK parents transitively, and orders parents
// before children. Returns false when nothing is buildable.
bool PlanTables(const std::vector<std::string>& referenced, const Context& context,
                const std::unordered_map<std::string, std::vector<std::string>>&
                    synth_columns,
                const HarvestMap& harvest, BuildPlan* plan, std::string* note) {
  // A pathological FK graph must not turn one verification into a database
  // build-out; 16 tables is far beyond any single-statement rewrite's reach.
  constexpr size_t kMaxTables = 16;
  std::map<std::string, TableSchema> by_name;  // lowercased name -> schema
  std::vector<std::string> queue;
  auto enqueue = [&by_name, &queue](std::string_view name) {
    std::string lc = ToLower(name);
    if (lc.empty() || by_name.count(lc)) return;
    by_name[lc] = TableSchema{};  // placeholder, filled below
    queue.push_back(lc);
  };
  for (const auto& name : referenced) enqueue(name);
  if (queue.empty()) {
    *note = "statement references no base tables";
    return false;
  }
  for (size_t i = 0; i < queue.size() && i < kMaxTables; ++i) {
    const std::string lc = queue[i];
    const TableSchema* cataloged = context.catalog().FindTable(lc);
    if (cataloged != nullptr) {
      by_name[lc] = *cataloged;
      for (const auto& fk : cataloged->foreign_keys) {
        enqueue(fk.ref_table);
      }
    } else {
      auto it = synth_columns.find(lc);
      static const std::vector<std::string> kNoColumns;
      by_name[lc] = SynthesizeSchema(
          lc, it != synth_columns.end() ? it->second : kNoColumns, harvest);
    }
  }
  if (queue.size() > kMaxTables) {
    *note = "foreign-key closure exceeds the verifier's table budget";
    return false;
  }
  // Parents before children; a cycle (self-FK etc.) falls through on the
  // last guard pass and is populated best-effort.
  std::set<std::string> placed;
  size_t guard = by_name.size() + 2;
  while (placed.size() < by_name.size() && guard > 0) {
    --guard;
    for (auto& [lc, schema] : by_name) {
      if (placed.count(lc)) continue;
      bool ready = true;
      for (const auto& fk : schema.foreign_keys) {
        std::string parent = ToLower(fk.ref_table);
        if (parent != lc && by_name.count(parent) && !placed.count(parent)) {
          ready = false;
          break;
        }
      }
      if (ready || guard == 0) {
        plan->schemas.push_back(schema);
        placed.insert(lc);
      }
    }
  }
  return true;
}

// Values inserted so far, per table/column (lowercased), so FK columns can
// draw from their parent's actual key pool.
using ValuePools = std::unordered_map<
    std::string, std::unordered_map<std::string, std::vector<Value>>>;

// Populates `db` with deterministic rows for every planned table. Rows go in
// through Table::Insert directly — constraint validation is deliberately
// bypassed, because both sides of the differential run share this exact data
// and fairness, not cleanliness, is what the comparison needs.
void PopulateDatabase(Database* db, const BuildPlan& plan, const HarvestMap& harvest,
                      const ExecVerifyOptions& options) {
  ValuePools pools;
  for (const TableSchema& schema : plan.schemas) {
    Table* table = db->GetTable(schema.name);
    if (table == nullptr) continue;
    std::string table_lc = ToLower(schema.name);
    Rng rng(options.seed ^ Fnv1a(table_lc));
    std::set<std::string> key_cols;
    for (const auto& pk : schema.primary_key) key_cols.insert(ToLower(pk));
    for (const auto& uc : schema.unique_constraints) {
      if (uc.size() == 1) key_cols.insert(ToLower(uc[0]));
    }
    // column -> parent pool, for single-column FKs whose parent is populated.
    std::unordered_map<std::string, const std::vector<Value>*> fk_pool;
    for (const auto& fk : schema.foreign_keys) {
      if (fk.columns.size() != 1) continue;
      std::string parent_lc = ToLower(fk.ref_table);
      auto parent_it = pools.find(parent_lc);
      if (parent_it == pools.end()) continue;
      std::string parent_col;
      if (!fk.ref_columns.empty()) {
        parent_col = ToLower(fk.ref_columns[0]);
      } else {
        const Table* parent = db->GetTable(parent_lc);
        if (parent != nullptr && parent->schema().primary_key.size() == 1) {
          parent_col = ToLower(parent->schema().primary_key[0]);
        }
      }
      auto col_it = parent_it->second.find(parent_col);
      if (col_it != parent_it->second.end() && !col_it->second.empty()) {
        fk_pool[ToLower(fk.columns[0])] = &col_it->second;
      }
    }

    int64_t max_auto = 0;
    for (size_t i = 1; i <= kRowsPerTable; ++i) {
      // Chaos seam: a row the generator cannot produce. The caller maps the
      // throw to an Infeasible verdict — exactly how a genuinely
      // ungenerable dataset degrades (the fix keeps its Tier-2 verdict).
      if (SQLCHECK_FAILPOINT("exec_verify_row")) {
        throw std::runtime_error("failpoint exec_verify_row");
      }
      Row row;
      row.reserve(schema.columns.size());
      for (const ColumnSchema& col : schema.columns) {
        std::string col_lc = ToLower(col.name);
        auto harvest_it = harvest.find(table_lc + "." + col_lc);
        const Harvest* harvested =
            harvest_it != harvest.end() ? &harvest_it->second : nullptr;
        bool keyish =
            key_cols.count(col_lc) > 0 || col.unique || col.auto_increment;
        Value value;
        auto fk_it = fk_pool.find(col_lc);
        if (fk_it != fk_pool.end()) {
          value = (*fk_it->second)[rng.NextBelow(fk_it->second->size())];
        } else if (keyish) {
          // Ascending keys keep uniqueness trivially and give the RAND()
          // pk-probe a dense range to land in.
          if (col.type.IsTextual()) {
            value = Value::Str("k" + std::to_string(i));
          } else {
            value = Value::Int(static_cast<int64_t>(i));
            if (value.AsInt() > max_auto) max_auto = value.AsInt();
          }
        } else if (harvested != nullptr && i % 2 == 1 &&
                   (!harvested->values.empty() || !harvested->patterns.empty())) {
          // Plant the statement's own constants in half the rows so its
          // predicates partition the table instead of selecting everything
          // or nothing.
          size_t total = harvested->values.size() + harvested->patterns.size();
          size_t pick = (i / 2) % total;
          if (pick < harvested->values.size()) {
            value = harvested->values[pick];
          } else {
            value = Value::Str(MaterializePattern(
                harvested->patterns[pick - harvested->values.size()], &rng));
          }
        } else if (!col.not_null && rng.NextBool(0.25)) {
          value = Value::Null_();
        } else {
          switch (col.type.id) {
            case TypeId::kBoolean:
              value = Value::Bool(rng.NextBool(0.5));
              break;
            case TypeId::kEnum:
              value = !col.type.enum_values.empty()
                          ? Value::Str(rng.Choice(col.type.enum_values))
                          : Value::Str(rng.NextWord(3, 8));
              break;
            case TypeId::kDate: {
              int64_t day = rng.NextInRange(1, 28);
              value = Value::Str("2020-06-" + std::string(day < 10 ? "0" : "") +
                                 std::to_string(day));
              break;
            }
            case TypeId::kTime:
              value = Value::Str("12:34:56");
              break;
            case TypeId::kTimestamp:
            case TypeId::kTimestampTz:
              value = Value::Str("2020-06-14 12:34:56");
              break;
            case TypeId::kFloat:
            case TypeId::kDouble:
            case TypeId::kNumeric:
              value = Value::Real(
                  static_cast<double>(rng.NextInRange(0, 9999)) / 100.0);
              break;
            default:
              if (col.type.IsIntegerLike()) {
                value = Value::Int(rng.NextInRange(0, 99));
              } else {
                value = Value::Str(rng.NextWord(3, 10));
              }
              break;
          }
        }
        value = col.type.Coerce(value);
        pools[table_lc][col_lc].push_back(value);
        row.push_back(std::move(value));
      }
      table->Insert(std::move(row));
    }
    if (max_auto > 0) table->ObserveAutoValue(max_auto);
  }
}

// ---------------------------------------------------------------------------
// Result / state comparison
// ---------------------------------------------------------------------------

std::string RenderRow(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToDisplay();
  }
  out += ")";
  return out;
}

bool RowsEqual(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

bool RowLess(const Row& a, const Row& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

// Compares two result row lists under the contract; fills `note` on mismatch.
bool CompareRows(std::vector<Row> lhs, std::vector<Row> rhs,
                 EquivalenceContract contract, std::string* note) {
  if (lhs.size() != rhs.size()) {
    *note = "row counts differ: original returned " + std::to_string(lhs.size()) +
            " row(s), rewrite returned " + std::to_string(rhs.size());
    return false;
  }
  if (contract == EquivalenceContract::kMultiset) {
    std::sort(lhs.begin(), lhs.end(), RowLess);
    std::sort(rhs.begin(), rhs.end(), RowLess);
  }
  for (size_t i = 0; i < lhs.size(); ++i) {
    if (!RowsEqual(lhs[i], rhs[i])) {
      *note = "first differing row at position " + std::to_string(i) +
              ": original " + RenderRow(lhs[i]) + " vs rewrite " +
              RenderRow(rhs[i]);
      return false;
    }
  }
  return true;
}

std::vector<Row> LiveRows(const Table& table) {
  std::vector<Row> rows;
  table.ForEachLive([&rows](size_t, const Row& row) { rows.push_back(row); });
  return rows;
}

bool AllSelects(const sql::Statement& original,
                const std::vector<sql::StatementPtr>& rewritten) {
  if (original.kind != sql::StatementKind::kSelect) return false;
  for (const auto& stmt : rewritten) {
    if (stmt->kind != sql::StatementKind::kSelect) return false;
  }
  return true;
}

}  // namespace

ExecCheck VerifyByExecution(const Fix& fix, EquivalenceContract contract,
                            const Context& context,
                            const ExecVerifyOptions& options) {
  if (contract == EquivalenceContract::kNotApplicable) return Skipped();
  if (!fix.replaces_original || fix.statements.empty() || fix.original_sql.empty()) {
    return Skipped();
  }

  // Tier 1 already ran, but the verifier owns its own parses: it needs the
  // ASTs, and must not trust earlier stages across refactors.
  sql::StatementPtr original = sql::ParseStatement(fix.original_sql);
  if (original == nullptr || original->kind == sql::StatementKind::kUnknown) {
    return Infeasible("original statement does not parse");
  }
  std::vector<sql::StatementPtr> rewritten;
  for (const std::string& statement : fix.statements) {
    sql::StatementPtr stmt = sql::ParseStatement(statement);
    if (stmt == nullptr || stmt->kind == sql::StatementKind::kUnknown) {
      return Infeasible("rewritten statement does not parse");
    }
    rewritten.push_back(std::move(stmt));
  }

  // Discover every base table either side touches, harvest their literals,
  // and record per-table column refs for schema synthesis.
  std::vector<std::string> referenced;
  HarvestMap harvest;
  std::unordered_map<std::string, std::vector<std::string>> synth_columns;
  CollectTables(*original, &referenced);
  HarvestStatement(*original, &harvest);
  CollectColumnRefs(*original, &synth_columns);
  for (const auto& stmt : rewritten) {
    CollectTables(*stmt, &referenced);
    HarvestStatement(*stmt, &harvest);
    CollectColumnRefs(*stmt, &synth_columns);
  }

  BuildPlan plan;
  std::string note;
  if (!PlanTables(referenced, context, synth_columns, harvest, &plan, &note)) {
    return Infeasible(std::move(note));
  }

  auto build = [&plan, &harvest, &options]() -> std::unique_ptr<Database> {
    try {
      auto db = std::make_unique<Database>("verify");
      for (const TableSchema& schema : plan.schemas) {
        db->CreateTable(schema);
      }
      PopulateDatabase(db.get(), plan, harvest, options);
      return db;
    } catch (const std::exception&) {
      // Dataset generation failed (allocation pressure, injected fault):
      // verification is infeasible, not divergent.
      return nullptr;
    }
  };

  if (AllSelects(*original, rewritten)) {
    // Read-only: one database, two independent same-seeded executors.
    std::unique_ptr<Database> db = build();
    if (db == nullptr) {
      return Infeasible("verification dataset generation failed");
    }
    Executor lhs_exec(db.get(), options.seed);
    auto lhs = lhs_exec.Execute(*original);
    if (!lhs.ok()) {
      return Infeasible("engine cannot execute the original statement: " +
                        lhs.message());
    }
    Executor rhs_exec(db.get(), options.seed);
    std::vector<Row> rhs_rows;
    size_t rhs_columns = 0;
    for (const auto& stmt : rewritten) {
      auto result = rhs_exec.Execute(*stmt);
      if (!result.ok()) {
        return Divergent("rewritten statement failed to execute: " +
                         result.message());
      }
      rhs_columns = result.value().columns.size();
      for (auto& row : result.value().rows) rhs_rows.push_back(std::move(row));
    }
    if (contract == EquivalenceContract::kDocumentedDivergence) {
      // Contract: the rewrite intentionally returns different results; both
      // sides executing successfully on populated tables is the requirement.
      return Equivalent();
    }
    if (lhs.value().columns.size() != rhs_columns) {
      return Divergent("column counts differ: original returned " +
                       std::to_string(lhs.value().columns.size()) +
                       ", rewrite returned " + std::to_string(rhs_columns));
    }
    if (!CompareRows(std::move(lhs.value().rows), std::move(rhs_rows), contract,
                     &note)) {
      return Divergent(std::move(note));
    }
    return Equivalent();
  }

  // Side effects involved: run each side against its own identically-seeded
  // database and compare the full table states afterwards.
  std::unique_ptr<Database> lhs_db = build();
  std::unique_ptr<Database> rhs_db = build();
  if (lhs_db == nullptr || rhs_db == nullptr) {
    return Infeasible("verification dataset generation failed");
  }
  Executor lhs_exec(lhs_db.get(), options.seed);
  Executor rhs_exec(rhs_db.get(), options.seed);
  auto lhs = lhs_exec.Execute(*original);
  bool rhs_ok = true;
  std::string rhs_error;
  for (const auto& stmt : rewritten) {
    auto result = rhs_exec.Execute(*stmt);
    if (!result.ok()) {
      rhs_ok = false;
      rhs_error = result.message();
      break;
    }
  }
  if (!lhs.ok() && rhs_ok) {
    // The original fails on this data but the rewrite succeeds: behavior
    // changed. (Identical failures fall through to the state comparison —
    // equal states mean the failure was faithfully preserved.)
    return Divergent("execution status diverged: original failed (" +
                     lhs.message() + ") but rewrite succeeded");
  }
  if (lhs.ok() && !rhs_ok) {
    return Divergent("execution status diverged: rewrite failed (" + rhs_error +
                     ") but original succeeded");
  }
  if (contract == EquivalenceContract::kDocumentedDivergence) {
    if (!lhs.ok()) {
      return Infeasible("engine cannot execute the original statement: " +
                        lhs.message());
    }
    return Equivalent();
  }
  for (const TableSchema& schema : plan.schemas) {
    const Table* lhs_table = lhs_db->GetTable(schema.name);
    const Table* rhs_table = rhs_db->GetTable(schema.name);
    if (lhs_table == nullptr || rhs_table == nullptr) continue;
    if (!CompareRows(LiveRows(*lhs_table), LiveRows(*rhs_table),
                     EquivalenceContract::kExactOrdered, &note)) {
      return Divergent("table state diverged in \"" + schema.name + "\": " + note);
    }
  }
  return Equivalent();
}

}  // namespace sqlcheck
