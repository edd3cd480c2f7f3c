#include "engine/executor.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"
#include "engine/eval.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace sqlcheck {

namespace {

constexpr size_t kNoSlot = static_cast<size_t>(-1);
constexpr int kMaxCascadeDepth = 16;

/// One bound FROM/JOIN source: a real table or a materialized subquery.
struct BoundSource {
  std::string binding;
  const Table* table = nullptr;           // null for materialized subqueries
  const TableSchema* schema = nullptr;
  std::vector<Row> materialized;          // subquery rows
  Row null_row;                           // for LEFT JOIN padding
};

/// A joined tuple: one row pointer per bound source.
using Tuple = std::vector<const Row*>;

/// Collects top-level AND conjuncts.
void CollectConjuncts(const sql::Expr& e, std::vector<const sql::Expr*>* out) {
  if (e.kind == sql::ExprKind::kBinary && e.text == "AND") {
    CollectConjuncts(*e.children[0], out);
    CollectConjuncts(*e.children[1], out);
  } else {
    out->push_back(&e);
  }
}

/// Matches `col = literal` (either order) against a single-table scope.
/// Returns the column name and value, or false.
bool MatchEqualityLiteral(const sql::Expr& e, std::string* column, Value* value) {
  if (e.kind != sql::ExprKind::kBinary || (e.text != "=" && e.text != "==")) return false;
  const sql::Expr& lhs = *e.children[0];
  const sql::Expr& rhs = *e.children[1];
  auto match = [&](const sql::Expr& col, const sql::Expr& lit) {
    if (col.kind != sql::ExprKind::kColumnRef || !IsLiteral(lit)) return false;
    *column = col.ColumnName();
    *value = LiteralValue(lit);
    return true;
  };
  return match(lhs, rhs) || match(rhs, lhs);
}

/// SQL: a CHECK holds on TRUE and on NULL. `scope` has the row bound. When
/// the CHECK fails, `*violation` says why (it is left alone otherwise, so a
/// scan over many rows builds no Status per row).
bool CheckHolds(const TableSchema& schema, const CheckConstraintSchema& check,
                const EvalScope& scope, Status* violation) {
  if (check.expression == nullptr) return true;
  auto v = Eval(*check.expression, scope);
  if (v.ok() && (v->is_null() || v->AsBool())) return true;
  if (!v.ok()) {
    *violation = v.status();
  } else {
    std::string name = check.name.empty() ? "" : " (" + check.name + ")";
    *violation = Status::Error("CHECK violation on " + schema.name + name + ": " +
                               check.expression_sql);
  }
  return false;
}

/// `row`'s values in `columns`; nullopt when a column is unknown or a value
/// is NULL (SQL: a NULL never collides and never dangles).
std::optional<CompositeKey> KeyOf(const TableSchema& schema,
                                  const std::vector<std::string>& columns,
                                  const Row& row) {
  CompositeKey key;
  for (const auto& col : columns) {
    size_t ci = static_cast<size_t>(schema.ColumnIndex(col));
    if (ci >= row.size() || row[ci].is_null()) return std::nullopt;
    key.values.push_back(row[ci]);
  }
  return key;
}

/// Live slots whose `columns` hold `key`: an index probe when an index
/// covers exactly those columns, else a full scan (deliberately slow — this
/// is what backing indexes buy). The scan never matches NULL.
std::vector<size_t> SlotsWithKey(const Table& table,
                                 const std::vector<std::string>& columns,
                                 const CompositeKey& key) {
  std::vector<size_t> slots;
  if (const Index* index = table.FindIndexOnColumns(columns)) {
    slots = index->Lookup(key);
    std::erase_if(slots, [&](size_t slot) { return !table.IsLive(slot); });
    return slots;
  }
  std::vector<size_t> positions;  // an unknown column (-1) reads as NULL
  for (const auto& col : columns) {
    positions.push_back(static_cast<size_t>(table.schema().ColumnIndex(col)));
  }
  table.ForEachLive([&](size_t slot, const Row& row) {
    for (size_t k = 0; k < positions.size(); ++k) {
      const Value& v = positions[k] < row.size() ? row[positions[k]] : Value::Null_();
      if (v.is_null() || key.values[k].Compare(v) != 0) return;
    }
    slots.push_back(slot);
  });
  return slots;
}

/// Every non-null FK value of `row` must exist in the parent table.
Status CheckForeignKey(const Database& db, const TableSchema& schema,
                       const ForeignKeySchema& fk, const Row& row) {
  const Table* parent = db.GetTable(fk.ref_table);
  if (parent == nullptr) return Status::Ok();  // dangling schema — tolerated
  std::vector<std::string> parent_cols =
      fk.ref_columns.empty() ? parent->schema().primary_key : fk.ref_columns;
  if (parent_cols.size() != fk.columns.size() || parent_cols.empty()) return Status::Ok();
  std::optional<CompositeKey> key = KeyOf(schema, fk.columns, row);
  if (!key || !SlotsWithKey(*parent, parent_cols, *key).empty()) return Status::Ok();
  return Status::Error("FOREIGN KEY violation: " + schema.name + " -> " + fk.ref_table);
}

/// Backs the table's PK with a unique system index, as real DBMSs do,
/// replacing the one it had. Fails, changing nothing, when a user index
/// holds the name.
Status BackPrimaryKey(Table& table) {
  const TableSchema& schema = table.schema();
  IndexSchema pk_index;
  pk_index.name = "pk_" + ToLower(schema.name);
  for (const auto& index : table.indexes()) {
    if (index->schema().system && index->schema().name == pk_index.name) {
      table.DropIndex(pk_index.name);
      break;
    }
  }
  if (schema.primary_key.empty()) return Status::Ok();
  pk_index.table = schema.name;
  pk_index.columns = schema.primary_key;
  pk_index.unique = true;
  pk_index.system = true;
  return table.CreateIndex(pk_index);
}

std::string OutputNameFor(const sql::SelectItem& item) {
  if (!item.alias.empty()) return std::string(item.alias);
  if (item.expr->kind == sql::ExprKind::kColumnRef) return std::string(item.expr->ColumnName());
  return sql::PrintExpr(*item.expr);
}

}  // namespace

Result<QueryResult> Executor::Execute(const sql::Statement& stmt) {
  switch (stmt.kind) {
    case sql::StatementKind::kSelect:
      return ExecuteSelect(static_cast<const sql::SelectStatement&>(stmt));
    case sql::StatementKind::kInsert:
      return ExecuteInsert(static_cast<const sql::InsertStatement&>(stmt));
    case sql::StatementKind::kUpdate:
      return ExecuteUpdate(static_cast<const sql::UpdateStatement&>(stmt));
    case sql::StatementKind::kDelete:
      return ExecuteDelete(static_cast<const sql::DeleteStatement&>(stmt));
    case sql::StatementKind::kCreateTable:
      return ExecuteCreateTable(static_cast<const sql::CreateTableStatement&>(stmt));
    case sql::StatementKind::kCreateIndex:
      return ExecuteCreateIndex(static_cast<const sql::CreateIndexStatement&>(stmt));
    case sql::StatementKind::kAlterTable:
      return ExecuteAlterTable(static_cast<const sql::AlterTableStatement&>(stmt));
    case sql::StatementKind::kDropTable:
      return ExecuteDropTable(static_cast<const sql::DropTableStatement&>(stmt));
    case sql::StatementKind::kDropIndex:
      return ExecuteDropIndex(static_cast<const sql::DropIndexStatement&>(stmt));
    case sql::StatementKind::kUnknown:
      return Result<QueryResult>::Error("cannot execute unparsed statement: " + std::string(stmt.raw_sql));
  }
  return Result<QueryResult>::Error("unhandled statement kind");
}

Result<QueryResult> Executor::ExecuteSql(std::string_view sql_text) {
  sql::StatementPtr stmt = sql::ParseStatement(sql_text);
  return Execute(*stmt);
}

Result<QueryResult> Executor::ExecuteScript(std::string_view script) {
  QueryResult last;
  for (const auto& stmt : sql::ParseScript(script)) {
    auto result = Execute(*stmt);
    if (!result.ok()) return result;
    last = std::move(*result);
  }
  return last;
}

// ---------------------------------------------------------------------------
// Subquery flattening
// ---------------------------------------------------------------------------

Status Executor::FlattenSubqueries(sql::Expr* expr) {
  for (auto& child : expr->children) {
    Status s = FlattenSubqueries(child.get());
    if (!s.ok()) return s;
  }
  if (expr->subquery == nullptr) return Status::Ok();

  auto sub = ExecuteSelect(*expr->subquery);
  if (!sub.ok()) return sub.status();

  switch (expr->kind) {
    case sql::ExprKind::kSubquery: {
      Value v = sub->Scalar();
      expr->subquery.reset();
      expr->children.clear();
      if (v.is_null()) {
        expr->kind = sql::ExprKind::kNullLiteral;
      } else if (v.is_bool()) {
        expr->kind = sql::ExprKind::kBoolLiteral;
        expr->text = v.AsBool() ? "true" : "false";
      } else if (v.is_numeric()) {
        expr->kind = sql::ExprKind::kNumberLiteral;
        expr->text = v.ToDisplay();
      } else {
        expr->kind = sql::ExprKind::kStringLiteral;
        expr->text = v.AsString();
      }
      return Status::Ok();
    }
    case sql::ExprKind::kExists: {
      bool any = !sub->rows.empty();
      expr->subquery.reset();
      expr->kind = sql::ExprKind::kBoolLiteral;
      expr->text = any ? "true" : "false";
      return Status::Ok();
    }
    case sql::ExprKind::kIn: {
      for (const Row& row : sub->rows) {
        if (row.empty()) continue;
        sql::ExprPtr lit(new sql::Expr());
        const Value& v = row[0];
        if (v.is_null()) {
          lit->kind = sql::ExprKind::kNullLiteral;
        } else if (v.is_numeric()) {
          lit->kind = sql::ExprKind::kNumberLiteral;
          lit->text = v.ToDisplay();
        } else if (v.is_bool()) {
          lit->kind = sql::ExprKind::kBoolLiteral;
          lit->text = v.AsBool() ? "true" : "false";
        } else {
          lit->kind = sql::ExprKind::kStringLiteral;
          lit->text = v.AsString();
        }
        expr->children.push_back(std::move(lit));
      }
      expr->subquery.reset();
      return Status::Ok();
    }
    default:
      return Status::Error("unsupported subquery position");
  }
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

Result<QueryResult> Executor::ExecuteSelect(const sql::SelectStatement& original) {
  // Work on a copy so subquery flattening never mutates the caller's tree.
  sql::SelectPtr owned = original.CloneSelect();
  sql::SelectStatement& stmt = *owned;

  // ------------------------------ bind sources ----------------------------
  std::vector<BoundSource> sources;
  std::vector<std::unique_ptr<TableSchema>> temp_schemas;

  auto bind = [&](const sql::TableRef& ref) -> Status {
    BoundSource src;
    src.binding = ref.EffectiveName();
    if (ref.subquery != nullptr) {
      auto sub = ExecuteSelect(*ref.subquery);
      if (!sub.ok()) return sub.status();
      auto schema = std::make_unique<TableSchema>();
      schema->name = src.binding;
      for (const auto& col : sub->columns) {
        ColumnSchema c;
        c.name = col;
        c.type = DataType::Make(TypeId::kUnknown);
        schema->columns.push_back(std::move(c));
      }
      src.schema = schema.get();
      temp_schemas.push_back(std::move(schema));
      src.materialized = std::move(sub->rows);
    } else {
      const Table* table = db_->GetTable(ref.name);
      if (table == nullptr) return Status::Error("no such table: " + std::string(ref.name));
      src.table = table;
      src.schema = &table->schema();
    }
    src.null_row.assign(src.schema->columns.size(), Value::Null_());
    sources.push_back(std::move(src));
    return Status::Ok();
  };

  if (stmt.from.empty() && !stmt.items.empty()) {
    // FROM-less SELECT (e.g. SELECT 1+1): evaluate once with empty scope.
    EvalScope scope;
    scope.rng = &rng_;
    QueryResult out;
    Row row;
    for (auto& item : stmt.items) {
      Status s = FlattenSubqueries(item.expr.get());
      if (!s.ok()) return s;
      auto v = Eval(*item.expr, scope);
      if (!v.ok()) return v.status();
      out.columns.push_back(OutputNameFor(item));
      row.push_back(*v);
    }
    out.rows.push_back(std::move(row));
    return out;
  }

  for (const auto& ref : stmt.from) {
    Status s = bind(ref);
    if (!s.ok()) return s;
  }
  for (const auto& join : stmt.joins) {
    Status s = bind(join.table);
    if (!s.ok()) return s;
  }

  EvalScope scope;
  scope.rng = &rng_;
  for (const auto& src : sources) scope.AddSource(src.binding, src.schema);

  // Flatten subqueries in every expression position.
  for (auto& item : stmt.items) {
    if (item.expr->kind != sql::ExprKind::kStar) {
      Status s = FlattenSubqueries(item.expr.get());
      if (!s.ok()) return s;
    }
  }
  for (auto& join : stmt.joins) {
    if (join.on) {
      Status s = FlattenSubqueries(join.on.get());
      if (!s.ok()) return s;
    }
  }
  if (stmt.where) {
    Status s = FlattenSubqueries(stmt.where.get());
    if (!s.ok()) return s;
  }
  if (stmt.having) {
    Status s = FlattenSubqueries(stmt.having.get());
    if (!s.ok()) return s;
  }

  // Bind-time validation: every column reference must resolve against the
  // bound sources (so empty tables still reject bad queries, like a real
  // planner would).
  {
    Status bad = Status::Ok();
    auto validate = [&](const sql::Expr& root) {
      sql::VisitExpr(root, [&](const sql::Expr& e) {
        if (!bad.ok() || e.kind != sql::ExprKind::kColumnRef) return;
        size_t si = 0;
        int ci = -1;
        if (!scope.ResolvePosition(e.name_parts, &si, &ci)) {
          bad = Status::Error("unknown column: " + Join(sql::ToStringVector(e.name_parts), "."));
        }
      });
    };
    for (const auto& item : stmt.items) {
      if (item.expr->kind != sql::ExprKind::kStar) validate(*item.expr);
    }
    if (stmt.where) validate(*stmt.where);
    for (const auto& join : stmt.joins) {
      if (join.on) validate(*join.on);
    }
    for (const auto& g : stmt.group_by) validate(*g);
    if (!bad.ok()) return bad;
  }

  // ------------------- predicate pushdown (mini planner) ------------------
  // Split the WHERE conjunction into per-source filters (applied while
  // materializing each source, with index lookups when possible) and a
  // residual applied after joins. Filters on the null-padded side of an
  // outer join must NOT be pushed — they stay residual.
  std::vector<std::vector<const sql::Expr*>> source_filters(sources.size());
  std::vector<const sql::Expr*> residual_where;
  auto pushable = [&](size_t si) {
    if (si < stmt.from.size()) return true;  // FROM sources are inner
    const auto& join = stmt.joins[si - stmt.from.size()];
    return join.type == sql::JoinType::kInner || join.type == sql::JoinType::kCross;
  };
  if (stmt.where) {
    std::vector<const sql::Expr*> conjuncts;
    CollectConjuncts(*stmt.where, &conjuncts);
    for (const sql::Expr* conj : conjuncts) {
      // Which sources does this conjunct touch?
      int only_source = -2;  // -2 = none yet, -1 = multiple/unresolved
      sql::VisitExpr(*conj, [&](const sql::Expr& e) {
        if (e.kind != sql::ExprKind::kColumnRef) return;
        size_t si = 0;
        int ci = -1;
        if (!scope.ResolvePosition(e.name_parts, &si, &ci)) {
          only_source = -1;
          return;
        }
        if (only_source == -2) {
          only_source = static_cast<int>(si);
        } else if (only_source != static_cast<int>(si)) {
          only_source = -1;
        }
      });
      if (only_source >= 0 && pushable(static_cast<size_t>(only_source))) {
        source_filters[static_cast<size_t>(only_source)].push_back(conj);
      } else {
        residual_where.push_back(conj);
      }
    }
  }

  // Materializes one source's rows with its pushed filters (index-assisted
  // when an equality conjunct hits an indexed column).
  auto materialize = [&](size_t si) -> Result<std::vector<const Row*>> {
    const BoundSource& src = sources[si];
    const auto& filters = source_filters[si];
    std::vector<const Row*> rows;

    auto passes = [&](const Row& row) -> Result<bool> {
      for (size_t s2 = 0; s2 < sources.size(); ++s2) {
        scope.BindRow(s2, s2 == si ? &row : nullptr);
      }
      for (const sql::Expr* filter : filters) {
        auto v = Eval(*filter, scope);
        if (!v.ok()) return v.status();
        if (!IsTrue(*v)) return false;
      }
      return true;
    };

    // Index path: first equality-literal filter with a single-column index.
    if (src.table != nullptr) {
      for (const sql::Expr* filter : filters) {
        std::string column;
        Value value;
        if (!MatchEqualityLiteral(*filter, &column, &value)) continue;
        const Index* index = src.table->FindSingleColumnIndex(column);
        if (index == nullptr || index->schema().columns.size() != 1) continue;
        CompositeKey key;
        key.values.push_back(value);
        for (size_t slot : index->Lookup(key)) {
          if (!src.table->IsLive(slot)) continue;
          const Row& row = src.table->RowAt(slot);
          auto ok_row = passes(row);  // re-checks all filters, incl. this one
          if (!ok_row.ok()) return ok_row.status();
          if (*ok_row) rows.push_back(&row);
        }
        return rows;
      }
    }

    Status failed = Status::Ok();
    auto consider = [&](const Row& row) {
      if (!failed.ok()) return;
      if (filters.empty()) {
        rows.push_back(&row);
        return;
      }
      auto ok_row = passes(row);
      if (!ok_row.ok()) {
        failed = ok_row.status();
        return;
      }
      if (*ok_row) rows.push_back(&row);
    };
    if (src.table != nullptr) {
      src.table->ForEachLive([&](size_t, const Row& row) { consider(row); });
    } else {
      for (const Row& row : src.materialized) consider(row);
    }
    if (!failed.ok()) return failed;
    return rows;
  };

  // --------------------- initial tuples from source 0 ---------------------
  std::vector<Tuple> tuples;
  {
    auto rows = materialize(0);
    if (!rows.ok()) return rows.status();
    tuples.reserve(rows->size());
    for (const Row* row : *rows) tuples.push_back({row});
  }

  // ------------------------ implicit comma joins --------------------------
  for (size_t s = 1; s < stmt.from.size(); ++s) {
    auto rows = materialize(s);
    if (!rows.ok()) return rows.status();
    std::vector<Tuple> next;
    next.reserve(tuples.size() * rows->size());
    for (const Row* row : *rows) {
      for (const Tuple& t : tuples) {
        Tuple copy = t;
        copy.push_back(row);
        next.push_back(std::move(copy));
      }
    }
    tuples = std::move(next);
  }

  // ----------------------------- explicit joins ---------------------------
  for (size_t j = 0; j < stmt.joins.size(); ++j) {
    const sql::JoinClause& join = stmt.joins[j];
    size_t src_index = stmt.from.size() + j;
    const BoundSource& src = sources[src_index];

    // Right-side row count drives the join strategy; materialization is
    // deferred so an index nested loop never scans the table at all.
    size_t right_count = src.table != nullptr ? src.table->live_row_count()
                                              : src.materialized.size();
    std::vector<const Row*> right_rows;
    bool right_materialized = false;
    auto ensure_right_rows = [&]() -> Status {
      if (right_materialized) return Status::Ok();
      auto materialized_rows = materialize(src_index);
      if (!materialized_rows.ok()) return materialized_rows.status();
      right_rows = std::move(*materialized_rows);
      right_materialized = true;
      return Status::Ok();
    };

    // Normalize USING into an equality expression chain.
    sql::ExprPtr synthesized_on;
    const sql::Expr* on = join.on.get();
    if (on == nullptr && !join.using_columns.empty()) {
      for (const auto& col : join.using_columns) {
        auto eq = sql::MakeBinary(
            "=", sql::MakeColumnRef({sources[0].binding, std::string(col)}),
            sql::MakeColumnRef({src.binding, std::string(col)}));
        synthesized_on = synthesized_on
                             ? sql::MakeBinary("AND", std::move(synthesized_on), std::move(eq))
                             : std::move(eq);
      }
      on = synthesized_on.get();
    }

    // Plan: find an equality conjunct `left_expr = right_column` where
    // right_column belongs to the new source and left_expr only to old ones.
    int right_col = -1;
    const sql::Expr* left_key = nullptr;
    if (on != nullptr) {
      std::vector<const sql::Expr*> conjuncts;
      CollectConjuncts(*on, &conjuncts);
      for (const sql::Expr* conj : conjuncts) {
        if (conj->kind != sql::ExprKind::kBinary || (conj->text != "=" && conj->text != "=="))
          continue;
        for (int side = 0; side < 2; ++side) {
          const sql::Expr& a = *conj->children[static_cast<size_t>(side)];
          const sql::Expr& b = *conj->children[static_cast<size_t>(1 - side)];
          if (a.kind != sql::ExprKind::kColumnRef) continue;
          // `a` must resolve inside the new source.
          std::string_view qualifier = a.TableQualifier();
          if (!qualifier.empty() && !EqualsIgnoreCase(qualifier, src.binding)) continue;
          int ci = src.schema->ColumnIndex(a.ColumnName());
          if (ci < 0) continue;
          if (qualifier.empty()) {
            // Ambiguous unqualified name: only accept if no earlier source has it.
            bool ambiguous = false;
            for (size_t e = 0; e < src_index; ++e) {
              if (sources[e].schema->ColumnIndex(a.ColumnName()) >= 0) ambiguous = true;
            }
            if (ambiguous) continue;
          }
          // `b` must NOT reference the new source.
          bool touches_new = false;
          sql::VisitExpr(b, [&](const sql::Expr& e) {
            if (e.kind != sql::ExprKind::kColumnRef) return;
            std::string_view q = e.TableQualifier();
            if (!q.empty() && EqualsIgnoreCase(q, src.binding)) touches_new = true;
            if (q.empty() && src.schema->ColumnIndex(e.ColumnName()) >= 0) {
              bool elsewhere = false;
              for (size_t s2 = 0; s2 < src_index; ++s2) {
                if (sources[s2].schema->ColumnIndex(e.ColumnName()) >= 0) elsewhere = true;
              }
              if (!elsewhere) touches_new = true;
            }
          });
          if (touches_new) continue;
          right_col = ci;
          left_key = &b;
          break;
        }
        if (right_col >= 0) break;
      }
    }

    std::vector<Tuple> next;
    bool left_join = join.type == sql::JoinType::kLeft;

    if (right_col >= 0 && left_key != nullptr) {
      // Equality join. Probe an existing single-column index when the outer
      // side is small (index nested loop); otherwise build a hash table.
      // Both are O(1) probes — the contrast with the nested-loop expression
      // join below is what Fig. 3 measures.
      const Index* right_index = nullptr;
      if (src.table != nullptr && source_filters[src_index].empty() &&
          tuples.size() * 8 < right_count) {
        right_index = src.table->FindSingleColumnIndex(
            src.schema->columns[static_cast<size_t>(right_col)].name);
      }
      std::unordered_map<CompositeKey, std::vector<const Row*>, CompositeKeyHash> hash;
      if (right_index == nullptr) {
        Status s = ensure_right_rows();
        if (!s.ok()) return s;
        for (const Row* row : right_rows) {
          const Value& v = (*row)[static_cast<size_t>(right_col)];
          if (v.is_null()) continue;  // NULL never equi-joins
          CompositeKey key;
          key.values.push_back(v);
          hash[key].push_back(row);
        }
      }
      auto probe = [&](const CompositeKey& key) {
        std::vector<const Row*> matches;
        if (right_index != nullptr) {
          for (size_t slot : right_index->Lookup(key)) {
            if (src.table->IsLive(slot)) matches.push_back(&src.table->RowAt(slot));
          }
        } else {
          auto it = hash.find(key);
          if (it != hash.end()) matches = it->second;
        }
        return matches;
      };
      for (Tuple& t : tuples) {
        for (size_t s2 = 0; s2 < t.size(); ++s2) scope.BindRow(s2, t[s2]);
        scope.BindRow(src_index, nullptr);
        auto key_value = Eval(*left_key, scope);
        if (!key_value.ok()) return key_value.status();
        bool matched = false;
        if (!key_value->is_null()) {
          CompositeKey key;
          key.values.push_back(*key_value);
          for (const Row* row : probe(key)) {
            // Residual conjuncts of ON still apply.
            Tuple candidate = t;
            candidate.push_back(row);
            bool ok_row = true;
            if (on != nullptr) {
              for (size_t s2 = 0; s2 < candidate.size(); ++s2) {
                scope.BindRow(s2, candidate[s2]);
              }
              auto v = Eval(*on, scope);
              if (!v.ok()) return v.status();
              ok_row = IsTrue(*v);
            }
            if (ok_row) {
              next.push_back(std::move(candidate));
              matched = true;
            }
          }
        }
        if (left_join && !matched) {
          Tuple padded = t;
          padded.push_back(&src.null_row);
          next.push_back(std::move(padded));
        }
      }
    } else {
      // Nested-loop join evaluating the ON expression per pair. This is the
      // only option for expression joins (LIKE-on-concatenation etc.).
      Status s = ensure_right_rows();
      if (!s.ok()) return s;
      for (Tuple& t : tuples) {
        bool matched = false;
        for (const Row* row : right_rows) {
          Tuple candidate = t;
          candidate.push_back(row);
          bool ok_row = true;
          if (on != nullptr) {
            for (size_t s2 = 0; s2 < candidate.size(); ++s2) {
              scope.BindRow(s2, candidate[s2]);
            }
            auto v = Eval(*on, scope);
            if (!v.ok()) return v.status();
            ok_row = IsTrue(*v);
          }
          if (ok_row) {
            next.push_back(std::move(candidate));
            matched = true;
          }
        }
        if (left_join && !matched) {
          Tuple padded = t;
          padded.push_back(&src.null_row);
          next.push_back(std::move(padded));
        }
      }
    }
    tuples = std::move(next);
  }

  // --------------------------- residual WHERE -----------------------------
  if (!residual_where.empty()) {
    std::vector<Tuple> kept;
    kept.reserve(tuples.size());
    for (Tuple& t : tuples) {
      for (size_t s2 = 0; s2 < t.size(); ++s2) scope.BindRow(s2, t[s2]);
      bool ok_row = true;
      for (const sql::Expr* conj : residual_where) {
        auto v = Eval(*conj, scope);
        if (!v.ok()) return v.status();
        if (!IsTrue(*v)) {
          ok_row = false;
          break;
        }
      }
      if (ok_row) kept.push_back(std::move(t));
    }
    tuples = std::move(kept);
  }

  // ------------------------------ aggregation -----------------------------
  bool has_aggregate = !stmt.group_by.empty();
  for (const auto& item : stmt.items) {
    if (item.expr->kind != sql::ExprKind::kStar && ContainsAggregate(*item.expr)) {
      has_aggregate = true;
    }
  }
  if (stmt.having && ContainsAggregate(*stmt.having)) has_aggregate = true;

  QueryResult out;

  // Output column names.
  auto expand_star = [&](const sql::Expr& star, std::vector<std::string>* names) {
    for (size_t s2 = 0; s2 < sources.size(); ++s2) {
      if (!star.name_parts.empty() &&
          !EqualsIgnoreCase(star.name_parts.back(), sources[s2].binding)) {
        continue;
      }
      for (const auto& col : sources[s2].schema->columns) names->push_back(col.name);
    }
  };
  for (const auto& item : stmt.items) {
    if (item.expr->kind == sql::ExprKind::kStar) {
      expand_star(*item.expr, &out.columns);
    } else {
      out.columns.push_back(OutputNameFor(item));
    }
  }

  struct PendingRow {
    Row values;
    std::vector<Value> sort_key;
  };
  std::vector<PendingRow> pending;

  // Produces one output row from the currently bound scope.
  auto produce = [&](const std::map<std::string, Value>* aggregates) -> Status {
    scope.aggregates = aggregates;
    PendingRow row_out;
    for (const auto& item : stmt.items) {
      if (item.expr->kind == sql::ExprKind::kStar) {
        for (size_t s2 = 0; s2 < sources.size(); ++s2) {
          if (!item.expr->name_parts.empty() &&
              !EqualsIgnoreCase(item.expr->name_parts.back(), sources[s2].binding)) {
            continue;
          }
          const Row* bound = scope.sources()[s2].row;
          for (size_t c = 0; c < sources[s2].schema->columns.size(); ++c) {
            row_out.values.push_back(bound != nullptr && c < bound->size() ? (*bound)[c]
                                                                           : Value::Null_());
          }
        }
        continue;
      }
      auto v = Eval(*item.expr, scope);
      if (!v.ok()) return v.status();
      row_out.values.push_back(std::move(*v));
    }
    if (stmt.having) {
      auto hv = Eval(*stmt.having, scope);
      if (!hv.ok()) return hv.status();
      if (!IsTrue(*hv)) {
        scope.aggregates = nullptr;
        return Status::Ok();
      }
    }
    for (const auto& ob : stmt.order_by) {
      auto v = Eval(*ob.expr, scope);
      if (!v.ok()) return v.status();
      row_out.sort_key.push_back(std::move(*v));
    }
    pending.push_back(std::move(row_out));
    scope.aggregates = nullptr;
    return Status::Ok();
  };

  if (has_aggregate) {
    // Collect the distinct aggregate expressions appearing anywhere.
    std::map<std::string, const sql::Expr*> agg_exprs;
    auto collect = [&](const sql::Expr& e) {
      sql::VisitExpr(e, [&](const sql::Expr& node) {
        if (node.kind == sql::ExprKind::kFunction && IsAggregateName(node.text)) {
          agg_exprs.emplace(sql::PrintExpr(node), &node);
        }
      });
    };
    for (const auto& item : stmt.items) {
      if (item.expr->kind != sql::ExprKind::kStar) collect(*item.expr);
    }
    if (stmt.having) collect(*stmt.having);
    for (const auto& ob : stmt.order_by) collect(*ob.expr);

    // Group tuples. Fast path: a single-table GROUP BY on an indexed column
    // can read groups straight out of the index buckets (equal keys are
    // adjacent in the multimap), skipping per-row evaluation + hashing —
    // the modest win Fig. 8b measures.
    std::vector<std::pair<CompositeKey, std::vector<Tuple*>>> groups;
    bool grouped_via_index = false;
    if (stmt.group_by.size() == 1 &&
        stmt.group_by[0]->kind == sql::ExprKind::kColumnRef && sources.size() == 1 &&
        stmt.joins.empty() && stmt.where == nullptr && sources[0].table != nullptr) {
      const Index* index =
          sources[0].table->FindSingleColumnIndex(stmt.group_by[0]->ColumnName());
      if (index != nullptr && index->schema().columns.size() == 1) {
        const Table& table = *sources[0].table;
        // Iterate index entries: equal keys are adjacent, so groups form in
        // one pass with no per-row expression evaluation or key hashing.
        tuples.clear();
        tuples.reserve(table.live_row_count());
        index->ForEachEntry([&](const CompositeKey& key, size_t slot) {
          if (!table.IsLive(slot)) return;
          tuples.push_back({&table.RowAt(slot)});
          if (groups.empty() || !(groups.back().first == key)) {
            groups.emplace_back(key, std::vector<Tuple*>{});
          }
        });
        // Second pass attaches Tuple pointers (the vector is stable now).
        size_t ti = 0;
        size_t gi = 0;
        index->ForEachEntry([&](const CompositeKey& key, size_t slot) {
          if (!table.IsLive(slot)) return;
          if (!(groups[gi].first == key)) ++gi;
          groups[gi].second.push_back(&tuples[ti]);
          ++ti;
        });
        grouped_via_index = true;
      }
    }
    if (!grouped_via_index) {
      std::map<CompositeKey, std::vector<Tuple*>> group_map;
      if (stmt.group_by.empty()) {
        auto& all = group_map[CompositeKey{}];
        for (Tuple& t : tuples) all.push_back(&t);
      } else {
        for (Tuple& t : tuples) {
          for (size_t s2 = 0; s2 < t.size(); ++s2) scope.BindRow(s2, t[s2]);
          CompositeKey key;
          for (const auto& g : stmt.group_by) {
            auto v = Eval(*g, scope);
            if (!v.ok()) return v.status();
            key.values.push_back(std::move(*v));
          }
          group_map[key].push_back(&t);
        }
      }
      groups.reserve(group_map.size());
      for (auto& [key, members] : group_map) groups.emplace_back(key, std::move(members));
    }

    for (auto& [key, members] : groups) {
      if (members.empty() && !stmt.group_by.empty()) continue;
      // Compute each aggregate over the group.
      std::map<std::string, Value> agg_values;
      for (const auto& [text, node] : agg_exprs) {
        std::string fn = ToLower(node->text);
        bool star_arg =
            node->children.empty() || node->children[0]->kind == sql::ExprKind::kStar;
        size_t count = 0;
        double sum = 0.0;
        bool all_int = true;
        int64_t isum = 0;
        std::optional<Value> min_v;
        std::optional<Value> max_v;
        std::set<CompositeKey> distinct_seen;
        for (Tuple* t : members) {
          for (size_t s2 = 0; s2 < t->size(); ++s2) scope.BindRow(s2, (*t)[s2]);
          Value v;
          if (star_arg) {
            v = Value::Int(1);
          } else {
            auto r = Eval(*node->children[0], scope);
            if (!r.ok()) return r.status();
            v = std::move(*r);
          }
          if (v.is_null()) continue;
          if (node->distinct_arg) {
            CompositeKey dk;
            dk.values.push_back(v);
            if (!distinct_seen.insert(dk).second) continue;
          }
          ++count;
          if (v.is_numeric()) {
            sum += v.AsReal();
            if (v.is_int()) isum += v.AsInt();
            else all_int = false;
          } else {
            all_int = false;
          }
          if (!min_v.has_value() || v < *min_v) min_v = v;
          if (!max_v.has_value() || *max_v < v) max_v = v;
        }
        Value result;
        if (fn == "count") {
          result = Value::Int(static_cast<int64_t>(count));
        } else if (fn == "sum") {
          result = count == 0 ? Value::Null_()
                              : (all_int ? Value::Int(isum) : Value::Real(sum));
        } else if (fn == "avg") {
          result = count == 0 ? Value::Null_() : Value::Real(sum / count);
        } else if (fn == "min") {
          result = min_v.value_or(Value::Null_());
        } else if (fn == "max") {
          result = max_v.value_or(Value::Null_());
        }
        agg_values.emplace(text, std::move(result));
      }
      // Bind a representative tuple (for group-by column access).
      if (!members.empty()) {
        for (size_t s2 = 0; s2 < members[0]->size(); ++s2) {
          scope.BindRow(s2, (*members[0])[s2]);
        }
      } else {
        for (size_t s2 = 0; s2 < sources.size(); ++s2) {
          scope.BindRow(s2, &sources[s2].null_row);
        }
      }
      Status s = produce(&agg_values);
      if (!s.ok()) return s;
    }
    if (groups.empty() && stmt.group_by.empty()) {
      // Aggregate over empty input still yields one row (COUNT(*) = 0 ...).
      std::map<std::string, Value> agg_values;
      for (const auto& [text, node] : agg_exprs) {
        std::string fn = ToLower(node->text);
        agg_values.emplace(text, fn == "count" ? Value::Int(0) : Value::Null_());
      }
      for (size_t s2 = 0; s2 < sources.size(); ++s2) {
        scope.BindRow(s2, &sources[s2].null_row);
      }
      Status s = produce(&agg_values);
      if (!s.ok()) return s;
    }
  } else {
    for (Tuple& t : tuples) {
      for (size_t s2 = 0; s2 < t.size(); ++s2) scope.BindRow(s2, t[s2]);
      Status s = produce(nullptr);
      if (!s.ok()) return s;
    }
  }

  // ------------------------------- DISTINCT -------------------------------
  if (stmt.distinct) {
    std::set<CompositeKey> seen;
    std::vector<PendingRow> unique_rows;
    for (auto& row : pending) {
      CompositeKey key;
      key.values = row.values;
      if (seen.insert(key).second) unique_rows.push_back(std::move(row));
    }
    pending = std::move(unique_rows);
  }

  // ------------------------------- ORDER BY -------------------------------
  if (!stmt.order_by.empty()) {
    std::stable_sort(pending.begin(), pending.end(),
                     [&](const PendingRow& a, const PendingRow& b) {
                       for (size_t k = 0; k < a.sort_key.size(); ++k) {
                         int c = a.sort_key[k].Compare(b.sort_key[k]);
                         if (c != 0) return stmt.order_by[k].descending ? c > 0 : c < 0;
                       }
                       return false;
                     });
  }

  // ---------------------------- LIMIT / OFFSET ----------------------------
  size_t begin = stmt.offset.has_value() && *stmt.offset > 0
                     ? static_cast<size_t>(*stmt.offset)
                     : 0;
  size_t end = pending.size();
  if (stmt.limit.has_value() && *stmt.limit >= 0) {
    end = std::min(end, begin + static_cast<size_t>(*stmt.limit));
  }
  for (size_t i = begin; i < end && i < pending.size(); ++i) {
    out.rows.push_back(std::move(pending[i].values));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Constraint validation
// ---------------------------------------------------------------------------

Status Executor::ValidateRow(Table& table, const Row& row, size_t self_slot) {
  const TableSchema& schema = table.schema();
  // Types, NOT NULL, enum domains.
  for (size_t c = 0; c < schema.columns.size(); ++c) {
    const ColumnSchema& col = schema.columns[c];
    const Value& v = c < row.size() ? row[c] : Value::Null_();
    if (v.is_null()) {
      if (col.not_null) {
        return Status::Error("NOT NULL violation: " + schema.name + "." + col.name);
      }
      continue;
    }
    if (!col.type.Accepts(v)) {
      return Status::Error("type mismatch for " + schema.name + "." + col.name + ": " +
                           v.ToDisplay() + " is not " + col.type.ToSql());
    }
    if (col.type.id == TypeId::kEnum && !col.type.enum_values.empty()) {
      bool member = false;
      for (const auto& allowed : col.type.enum_values) {
        if (v.AsString() == allowed) member = true;
      }
      if (!member) {
        return Status::Error("enum domain violation: " + schema.name + "." + col.name +
                             " = " + v.ToDisplay());
      }
    }
  }

  // CHECK constraints.
  if (!schema.checks.empty()) {
    EvalScope scope;
    scope.AddSource(schema.name, &schema);
    scope.BindRow(0, &row);
    Status violation;
    for (const auto& check : schema.checks) {
      if (!CheckHolds(schema, check, scope, &violation)) return violation;
    }
  }

  // Uniqueness (PK, UNIQUE columns, UNIQUE constraints).
  auto check_unique = [&](const std::vector<std::string>& columns,
                          const char* label) -> Status {
    std::optional<CompositeKey> key = KeyOf(schema, columns, row);
    if (!key) return Status::Ok();
    for (size_t slot : SlotsWithKey(table, columns, *key)) {
      if (slot != self_slot) {
        return Status::Error(std::string(label) + " violation on " + schema.name);
      }
    }
    return Status::Ok();
  };

  if (!schema.primary_key.empty()) {
    Status s = check_unique(schema.primary_key, "PRIMARY KEY");
    if (!s.ok()) return s;
  }
  for (const auto& col : schema.columns) {
    if (col.unique) {
      Status s = check_unique({col.name}, "UNIQUE");
      if (!s.ok()) return s;
    }
  }
  for (const auto& unique_cols : schema.unique_constraints) {
    Status s = check_unique(unique_cols, "UNIQUE");
    if (!s.ok()) return s;
  }

  for (const auto& fk : schema.foreign_keys) {
    Status s = CheckForeignKey(*db_, schema, fk, row);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// INSERT / UPDATE / DELETE
// ---------------------------------------------------------------------------

Result<QueryResult> Executor::ExecuteInsert(const sql::InsertStatement& stmt) {
  Table* table = db_->GetTable(stmt.table);
  if (table == nullptr) return Result<QueryResult>::Error("no such table: " + std::string(stmt.table));
  const TableSchema& schema = table->schema();

  // Resolve the target column positions.
  std::vector<int> positions;
  if (stmt.columns.empty()) {
    for (size_t c = 0; c < schema.columns.size(); ++c) positions.push_back(static_cast<int>(c));
  } else {
    for (const auto& col : stmt.columns) {
      int ci = schema.ColumnIndex(col);
      if (ci < 0) return Result<QueryResult>::Error("no such column: " + std::string(col));
      positions.push_back(ci);
    }
  }

  std::vector<Row> incoming;
  if (stmt.select != nullptr) {
    auto sub = ExecuteSelect(*stmt.select);
    if (!sub.ok()) return sub;
    incoming = std::move(sub->rows);
  } else {
    EvalScope scope;
    scope.rng = &rng_;
    for (const auto& value_row : stmt.rows) {
      Row row;
      for (const auto& expr : value_row) {
        auto v = Eval(*expr, scope);
        if (!v.ok()) return v.status();
        row.push_back(std::move(*v));
      }
      incoming.push_back(std::move(row));
    }
  }

  QueryResult out;
  for (Row& source_row : incoming) {
    if (source_row.size() != positions.size()) {
      return Result<QueryResult>::Error(
          "INSERT value count " + std::to_string(source_row.size()) + " does not match " +
          std::to_string(positions.size()) + " target columns on " + std::string(stmt.table));
    }
    Row full(schema.columns.size(), Value::Null_());
    for (size_t k = 0; k < positions.size(); ++k) {
      size_t ci = static_cast<size_t>(positions[k]);
      full[ci] = schema.columns[ci].type.Coerce(source_row[k]);
    }
    // Defaults and auto-increment for unset columns.
    for (size_t c = 0; c < schema.columns.size(); ++c) {
      if (!full[c].is_null()) {
        if (schema.columns[c].auto_increment && full[c].is_int()) {
          table->ObserveAutoValue(full[c].AsInt());
        }
        continue;
      }
      bool targeted = false;
      for (int p : positions) {
        if (static_cast<size_t>(p) == c) targeted = true;
      }
      if (targeted && !schema.columns[c].auto_increment) continue;
      if (schema.columns[c].auto_increment) {
        full[c] = Value::Int(table->NextAutoValue());
      } else if (schema.columns[c].default_value.has_value()) {
        full[c] = *schema.columns[c].default_value;
      }
    }
    Status s = ValidateRow(*table, full, kNoSlot);
    if (!s.ok()) return s;
    table->Insert(std::move(full));
    ++out.affected;
  }
  return out;
}

Result<QueryResult> Executor::ExecuteUpdate(const sql::UpdateStatement& original) {
  auto owned = original.CloneStatement();
  auto& stmt = static_cast<sql::UpdateStatement&>(*owned);

  Table* table = db_->GetTable(stmt.table);
  if (table == nullptr) return Result<QueryResult>::Error("no such table: " + std::string(stmt.table));
  const TableSchema& schema = table->schema();
  std::string binding(stmt.alias.empty() ? stmt.table : stmt.alias);

  if (stmt.where) {
    Status s = FlattenSubqueries(stmt.where.get());
    if (!s.ok()) return s;
  }
  for (auto& [col, expr] : stmt.assignments) {
    Status s = FlattenSubqueries(expr.get());
    if (!s.ok()) return s;
  }

  EvalScope scope;
  scope.rng = &rng_;
  scope.AddSource(binding, &schema);

  // Select matching slots (index fast path on equality conjunct).
  std::vector<size_t> slots;
  bool used_index = false;
  if (stmt.where) {
    std::vector<const sql::Expr*> conjuncts;
    CollectConjuncts(*stmt.where, &conjuncts);
    for (const sql::Expr* conj : conjuncts) {
      std::string column;
      Value value;
      if (!MatchEqualityLiteral(*conj, &column, &value)) continue;
      const Index* index = table->FindSingleColumnIndex(column);
      if (index == nullptr || index->schema().columns.size() != 1) continue;
      CompositeKey key;
      key.values.push_back(value);
      slots = index->Lookup(key);
      used_index = true;
      break;
    }
  }
  if (!used_index) slots = table->LiveSlots();

  std::vector<size_t> matched;
  for (size_t slot : slots) {
    if (!table->IsLive(slot)) continue;
    const Row& row = table->RowAt(slot);
    if (stmt.where) {
      scope.BindRow(0, &row);
      auto v = Eval(*stmt.where, scope);
      if (!v.ok()) return v.status();
      if (!IsTrue(*v)) continue;
    }
    matched.push_back(slot);
  }

  QueryResult out;
  for (size_t slot : matched) {
    Row updated = table->RowAt(slot);
    scope.BindRow(0, &table->RowAt(slot));
    for (const auto& [col, expr] : stmt.assignments) {
      int ci = schema.ColumnIndex(col);
      if (ci < 0) return Result<QueryResult>::Error("no such column: " + std::string(col));
      auto v = Eval(*expr, scope);
      if (!v.ok()) return v.status();
      updated[static_cast<size_t>(ci)] =
          schema.columns[static_cast<size_t>(ci)].type.Coerce(*v);
    }
    Status s = ValidateRow(*table, updated, slot);
    if (!s.ok()) return s;
    s = table->UpdateRow(slot, std::move(updated));
    if (!s.ok()) return s;
    ++out.affected;
  }
  return out;
}

Status Executor::DeleteRowsCascading(Table& table, std::vector<size_t> slots, int depth) {
  if (depth > kMaxCascadeDepth) return Status::Error("cascade depth exceeded");
  if (slots.empty()) return Status::Ok();

  const TableSchema& schema = table.schema();

  // Children first: find tables whose FKs reference this one.
  for (Table* child : db_->Tables()) {
    if (child == &table) continue;
    for (const auto& fk : child->schema().foreign_keys) {
      if (!EqualsIgnoreCase(fk.ref_table, schema.name)) continue;
      std::vector<std::string> parent_cols =
          fk.ref_columns.empty() ? schema.primary_key : fk.ref_columns;
      if (parent_cols.size() != fk.columns.size() || parent_cols.empty()) continue;

      for (size_t slot : slots) {
        if (!table.IsLive(slot)) continue;
        std::optional<CompositeKey> key = KeyOf(schema, parent_cols, table.RowAt(slot));
        if (!key) continue;
        // Referencing child rows (index when available).
        std::vector<size_t> child_slots = SlotsWithKey(*child, fk.columns, *key);
        if (child_slots.empty()) continue;
        if (!fk.on_delete_cascade) {
          return Status::Error("FOREIGN KEY restrict: rows in " + child->schema().name +
                               " still reference " + schema.name);
        }
        Status s = DeleteRowsCascading(*child, std::move(child_slots), depth + 1);
        if (!s.ok()) return s;
      }
    }
  }

  for (size_t slot : slots) {
    if (!table.IsLive(slot)) continue;
    Status s = table.DeleteRow(slot);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Result<QueryResult> Executor::ExecuteDelete(const sql::DeleteStatement& original) {
  auto owned = original.CloneStatement();
  auto& stmt = static_cast<sql::DeleteStatement&>(*owned);

  Table* table = db_->GetTable(stmt.table);
  if (table == nullptr) return Result<QueryResult>::Error("no such table: " + std::string(stmt.table));

  if (stmt.where) {
    Status s = FlattenSubqueries(stmt.where.get());
    if (!s.ok()) return s;
  }

  EvalScope scope;
  scope.rng = &rng_;
  scope.AddSource(std::string(stmt.table), &table->schema());

  // Index fast path on an equality conjunct, then residual filtering.
  std::vector<size_t> candidates;
  bool used_index = false;
  if (stmt.where) {
    std::vector<const sql::Expr*> conjuncts;
    CollectConjuncts(*stmt.where, &conjuncts);
    for (const sql::Expr* conj : conjuncts) {
      std::string column;
      Value value;
      if (!MatchEqualityLiteral(*conj, &column, &value)) continue;
      const Index* index = table->FindSingleColumnIndex(column);
      if (index == nullptr || index->schema().columns.size() != 1) continue;
      CompositeKey key;
      key.values.push_back(value);
      candidates = index->Lookup(key);
      used_index = true;
      break;
    }
  }
  if (!used_index) candidates = table->LiveSlots();

  std::vector<size_t> matched;
  for (size_t slot : candidates) {
    if (!table->IsLive(slot)) continue;
    const Row& row = table->RowAt(slot);
    if (stmt.where) {
      scope.BindRow(0, &row);
      auto v = Eval(*stmt.where, scope);
      if (!v.ok()) return v.status();
      if (!IsTrue(*v)) continue;
    }
    matched.push_back(slot);
  }

  size_t affected = matched.size();
  Status s = DeleteRowsCascading(*table, std::move(matched), 0);
  if (!s.ok()) return s;
  QueryResult out;
  out.affected = affected;
  return out;
}

// ---------------------------------------------------------------------------
// DDL: the schema edits are TableSchema's (catalog/schema); the engine does
// the row and index work they imply.
// ---------------------------------------------------------------------------

Result<QueryResult> Executor::ExecuteCreateTable(const sql::CreateTableStatement& stmt) {
  if (stmt.if_not_exists && db_->GetTable(stmt.table) != nullptr) return QueryResult{};
  Status s = db_->CreateTable(TableSchema::FromCreateTable(stmt));
  if (s.ok()) s = BackPrimaryKey(*db_->GetTable(stmt.table));
  if (!s.ok()) return s;
  return QueryResult{};
}

Result<QueryResult> Executor::ExecuteCreateIndex(const sql::CreateIndexStatement& stmt) {
  Table* table = db_->GetTable(stmt.table);
  if (table == nullptr) return Result<QueryResult>::Error("no such table: " + std::string(stmt.table));
  if (stmt.if_not_exists) {
    for (const auto& index : table->indexes()) {
      if (EqualsIgnoreCase(index->schema().name, stmt.index)) return QueryResult{};
    }
  }
  Status s = table->CreateIndex(IndexSchema::FromCreateIndex(stmt));
  if (!s.ok()) return s;
  return QueryResult{};
}

Result<QueryResult> Executor::ExecuteAlterTable(const sql::AlterTableStatement& stmt) {
  Table* table = db_->GetTable(stmt.table);
  if (table == nullptr) {
    if (stmt.if_exists) return QueryResult{};
    return Result<QueryResult>::Error("no such table: " + std::string(stmt.table));
  }
  if (stmt.action == sql::AlterAction::kRenameTable) {
    return Result<QueryResult>::Error("RENAME TABLE is not supported by the engine");
  }
  TableSchema before = table->schema();
  for (const Table* other : db_->Tables()) {
    Status refused = other->schema().CheckReferencedAlter(stmt, before);
    if (!refused.ok()) return refused;
  }
  TableSchema altered = before;
  Status s = altered.Alter(stmt);
  if (!s.ok()) return s;

  // The schema edit is done; what follows is the row work it implies.
  switch (stmt.action) {
    case sql::AlterAction::kAddColumn: {
      // Existing rows take the evaluated DEFAULT; NOT NULL needs one.
      Value fill;
      if (stmt.column.default_value) {
        EvalScope scope;
        scope.rng = &rng_;
        auto v = Eval(*stmt.column.default_value, scope);
        if (v.ok()) fill = *v;
      }
      const ColumnSchema& column = altered.columns.back();
      if (column.not_null && fill.is_null() && table->live_row_count() > 0) {
        return Result<QueryResult>::Error(
            "cannot add NOT NULL column without default to non-empty table");
      }
      s = table->AddColumn(column, fill);
      break;
    }
    case sql::AlterAction::kDropColumn:
      // IF EXISTS over a missing column is a no-op.
      if (before.FindColumn(stmt.target_name)) s = table->DropColumn(stmt.target_name);
      break;
    case sql::AlterAction::kRenameColumn:
      table->RenameColumn(stmt.target_name, stmt.new_name);
      break;
    case sql::AlterAction::kAlterColumnType: {
      // Rewrite every value (full-table cost, as in a real ALTER TYPE).
      size_t ci = static_cast<size_t>(altered.ColumnIndex(stmt.column.name));
      for (size_t slot : table->LiveSlots()) {
        Row row = table->RowAt(slot);
        row[ci] = altered.columns[ci].type.Coerce(row[ci]);
        s = table->UpdateRow(slot, std::move(row));
        if (!s.ok()) break;
      }
      break;
    }
    default:
      break;
  }
  if (!s.ok()) return s;
  table->schema_mutable() = std::move(altered);

  // Existing rows must satisfy the CHECKs and FKs the statement added — a
  // full scan, the cost the Enumerated Types experiment (Fig. 8g) pays on
  // every rename — and a new PK gets a new backing index.
  const TableSchema& now = table->schema();
  bool new_pk = stmt.action != sql::AlterAction::kRenameColumn &&
                now.primary_key != before.primary_key;
  if (now.checks.size() > before.checks.size() ||
      now.foreign_keys.size() > before.foreign_keys.size()) {
    EvalScope scope;
    scope.AddSource(now.name, &now);
    table->ForEachLive([&](size_t, const Row& row) {
      scope.BindRow(0, &row);
      for (size_t i = before.checks.size(); s.ok() && i < now.checks.size(); ++i) {
        CheckHolds(now, now.checks[i], scope, &s);
      }
      for (size_t i = before.foreign_keys.size(); s.ok() && i < now.foreign_keys.size();
           ++i) {
        s = CheckForeignKey(*db_, now, now.foreign_keys[i], row);
      }
    });
  }
  if (s.ok() && new_pk) s = BackPrimaryKey(*table);
  if (!s.ok()) {
    // Leave the table as the statement found it.
    if (stmt.action == sql::AlterAction::kAddColumn) table->DropColumn(stmt.column.name);
    table->schema_mutable() = std::move(before);
    return s;
  }
  for (Table* other : db_->Tables()) other->schema_mutable().FollowReferencedAlter(stmt);
  return QueryResult{};
}

Result<QueryResult> Executor::ExecuteDropTable(const sql::DropTableStatement& stmt) {
  Status s = db_->DropTable(stmt.table);
  if (!s.ok() && !stmt.if_exists) return s;
  return QueryResult{};
}

Result<QueryResult> Executor::ExecuteDropIndex(const sql::DropIndexStatement& stmt) {
  Status s = db_->DropIndex(stmt.index);
  if (!s.ok() && !stmt.if_exists) return s;
  return QueryResult{};
}

}  // namespace sqlcheck
