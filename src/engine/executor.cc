#include "engine/executor.h"

#include <algorithm>
#include <charconv>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

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

/// The row selection of SELECT sources, UPDATE and DELETE: calls
/// `take(slot, row)` for each of `src`'s rows that `keep` accepts. The first
/// `column = literal` conjunct whose column has a single-column index reads
/// its candidates from that index; otherwise every live row is a candidate.
/// `keep` checks each candidate, that conjunct included; with no conjunct
/// every candidate is taken unchecked.
template <typename Keep, typename Take>
Status SelectRows(const BoundSource& src, const std::vector<const sql::Expr*>& conjuncts,
                  const Keep& keep, const Take& take) {
  Status failed = Status::Ok();
  auto consider = [&](size_t slot, const Row& row) {
    if (!failed.ok()) return;
    if (!conjuncts.empty()) {
      Result<bool> kept = keep(row);
      if (!kept.ok()) {
        failed = kept.status();
        return;
      }
      if (!*kept) return;
    }
    take(slot, row);
  };
  if (src.table == nullptr) {
    for (size_t slot = 0; slot < src.materialized.size(); ++slot) {
      consider(slot, src.materialized[slot]);
    }
    return failed;
  }
  for (const sql::Expr* conj : conjuncts) {
    std::string column;
    Value value;
    if (!MatchEqualityLiteral(*conj, &column, &value)) continue;
    const Index* index = src.table->FindSingleColumnIndex(column);
    if (index == nullptr) continue;
    for (size_t slot : index->Lookup(CompositeKey{{value}})) {
      if (src.table->IsLive(slot)) consider(slot, src.table->RowAt(slot));
    }
    return failed;
  }
  src.table->ForEachLive(consider);
  return failed;
}

/// Rewrites `expr` in place into the literal spelling `v`.
void SetLiteral(sql::Expr* expr, const Value& v) {
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
}

/// An ORDER BY or GROUP BY term that is an integer literal k names the k-th
/// output column. Returns its 0-based position, kNoSlot for any other term,
/// or an error when k is out of range (`-k` always is), as SQLite rejects it.
Result<size_t> OutputOrdinal(const sql::Expr& term, std::string_view clause, size_t index,
                             size_t column_count) {
  const bool negative = term.kind == sql::ExprKind::kUnary && term.text == "-";
  const sql::Expr& literal = negative ? *term.children[0] : term;
  std::string_view digits = literal.text;
  if (literal.kind != sql::ExprKind::kNumberLiteral || digits.empty() ||
      !std::all_of(digits.begin(), digits.end(), [](char c) { return c >= '0' && c <= '9'; })) {
    return kNoSlot;
  }
  size_t k = 0;  // left 0 on overflow
  std::from_chars(digits.data(), digits.data() + digits.size(), k);
  if (negative || k < 1 || k > column_count) {
    return Status::Error(std::string(clause) + " term " + std::to_string(index + 1) +
                         " out of range - should be between 1 and " +
                         std::to_string(column_count));
  }
  return k - 1;
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
    case sql::ExprKind::kSubquery:
      expr->children.clear();
      SetLiteral(expr, sub->Scalar());
      break;
    case sql::ExprKind::kExists:
      SetLiteral(expr, Value::Bool(!sub->rows.empty()));
      break;
    case sql::ExprKind::kIn:
      for (const Row& row : sub->rows) {
        if (row.empty()) continue;
        sql::ExprPtr lit(new sql::Expr());
        SetLiteral(lit.get(), row[0]);
        expr->children.push_back(std::move(lit));
      }
      break;
    default:
      return Status::Error("unsupported subquery position");
  }
  expr->subquery.reset();
  return Status::Ok();
}

Status Executor::FlattenClauses(sql::Statement& stmt) {
  Status s = Status::Ok();
  sql::ForEachRootExpr(stmt, [&](sql::Expr& root) {
    if (s.ok()) s = FlattenSubqueries(&root);
  });
  return s;
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

  // ---------------------------- output columns ----------------------------
  // A `*` lists its sources' columns: a bare one lists a USING column once,
  // from the join's left side. Any other item is one expression.
  struct OutputColumn {
    const sql::Expr* expr = nullptr;  // null: column `column` of source `source`
    size_t source = 0;
    size_t column = 0;
  };
  QueryResult out;
  std::vector<OutputColumn> output;
  auto joined_using = [&](size_t si, std::string_view column) {
    if (si < stmt.from.size()) return false;
    const auto& names = stmt.joins[si - stmt.from.size()].using_columns;
    return std::any_of(names.begin(), names.end(),
                       [&](const auto& name) { return EqualsIgnoreCase(name, column); });
  };
  for (const auto& item : stmt.items) {
    if (item.expr->kind != sql::ExprKind::kStar) {
      output.push_back({item.expr.get()});
      out.columns.push_back(OutputNameFor(item));
      continue;
    }
    const auto& qualifier = item.expr->name_parts;
    const size_t listed = output.size();
    for (size_t si = 0; si < sources.size(); ++si) {
      if (!qualifier.empty() && !EqualsIgnoreCase(qualifier.back(), sources[si].binding)) {
        continue;
      }
      const auto& columns = sources[si].schema->columns;
      for (size_t c = 0; c < columns.size(); ++c) {
        if (qualifier.empty() && joined_using(si, columns[c].name)) continue;
        output.push_back({nullptr, si, c});
        out.columns.push_back(columns[c].name);
      }
    }
    if (output.size() == listed) {
      return Status::Error(qualifier.empty() ? std::string("no tables specified")
                                             : "no such table: " + std::string(qualifier.back()));
    }
  }

  // ORDER BY k reads the k-th output column; GROUP BY k groups by its
  // expression, which may not be a `*` column or an aggregate.
  std::vector<size_t> order_columns;
  for (size_t k = 0; k < stmt.order_by.size(); ++k) {
    auto column = OutputOrdinal(*stmt.order_by[k].expr, "ORDER BY", k, output.size());
    if (!column.ok()) return column.status();
    order_columns.push_back(*column);
  }
  for (size_t k = 0; k < stmt.group_by.size(); ++k) {
    auto column = OutputOrdinal(*stmt.group_by[k], "GROUP BY", k, output.size());
    if (!column.ok()) return column.status();
    if (*column == kNoSlot) continue;
    const sql::Expr* named = output[*column].expr;
    if (named == nullptr || ContainsAggregate(*named)) {
      return Status::Error("GROUP BY term " + std::to_string(k + 1) +
                           " names a * column or an aggregate");
    }
    stmt.group_by[k] = named->Clone();
  }

  Status flattened = FlattenClauses(stmt);
  if (!flattened.ok()) return flattened;

  // Bind-time validation: every column reference must resolve against the
  // bound sources (so empty tables still reject bad queries, like a real
  // planner would). An output alias is let through where SQL resolves one:
  // WHERE, GROUP BY, HAVING and ORDER BY, not a select item or an ON. The
  // engine does not resolve it, so a row that reaches one fails.
  auto item_or_on = [&](const sql::Expr& root) {
    return std::any_of(stmt.items.begin(), stmt.items.end(),
                       [&](const sql::SelectItem& item) { return item.expr.get() == &root; }) ||
           std::any_of(stmt.joins.begin(), stmt.joins.end(),
                       [&](const sql::JoinClause& join) { return join.on.get() == &root; });
  };
  auto output_alias = [&](const sql::Expr& e) {
    return e.name_parts.size() == 1 &&
           std::any_of(stmt.items.begin(), stmt.items.end(), [&](const sql::SelectItem& item) {
             return EqualsIgnoreCase(item.alias, e.name_parts[0]);
           });
  };
  Status bad = Status::Ok();
  sql::ForEachRootExpr(stmt, [&](const sql::Expr& root) {
    const bool aliases_resolve = !item_or_on(root);
    sql::VisitExpr(root, [&](const sql::Expr& e) {
      if (!bad.ok() || e.kind != sql::ExprKind::kColumnRef) return;
      if (aliases_resolve && output_alias(e)) return;
      size_t si = 0;
      int ci = -1;
      if (!scope.ResolvePosition(e.name_parts, &si, &ci)) {
        bad = Status::Error("unknown column: " + Join(sql::ToStringVector(e.name_parts), "."));
      }
    });
  });
  if (!bad.ok()) return bad;

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

  // One source's rows that pass its pushed filters.
  auto materialize = [&](size_t si) -> Result<std::vector<const Row*>> {
    const auto& filters = source_filters[si];
    for (size_t s2 = 0; s2 < sources.size(); ++s2) scope.BindRow(s2, nullptr);
    std::vector<const Row*> rows;
    Status s = SelectRows(
        sources[si], filters,
        [&](const Row& row) -> Result<bool> {
          scope.BindRow(si, &row);
          for (const sql::Expr* filter : filters) {
            auto v = Eval(*filter, scope);
            if (!v.ok()) return v.status();
            if (!IsTrue(*v)) return false;
          }
          return true;
        },
        [&](size_t, const Row& row) { rows.push_back(&row); });
    if (!s.ok()) return s;
    return rows;
  };

  // ------------- initial tuples: source 0, or one empty tuple -------------
  std::vector<Tuple> tuples;
  if (sources.empty()) {
    tuples.emplace_back();
  } else {
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

    // USING (c) is `left.c = right.c`, the left side being the first
    // earlier source with a column c.
    sql::ExprPtr synthesized_on;
    const sql::Expr* on = join.on.get();
    if (on == nullptr && !join.using_columns.empty()) {
      for (const auto& col : join.using_columns) {
        size_t left = 0;
        while (left < src_index && sources[left].schema->ColumnIndex(col) < 0) ++left;
        if (left == src_index || src.schema->ColumnIndex(col) < 0) {
          return Status::Error("cannot join using column " + std::string(col) +
                               " - column not present in both tables");
        }
        auto eq = sql::MakeBinary(
            "=", sql::MakeColumnRef({sources[left].binding, std::string(col)}),
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

    // The right rows that may join a tuple. An equality join probes for
    // them: an existing single-column index when the left side is small
    // (index nested loop; the right side is never materialized), else a
    // hash table. Any other join is a nested loop over every right row, the
    // only option for expression joins (LIKE-on-concatenation etc.); that
    // contrast is what Fig. 3 measures.
    const size_t right_count =
        src.table != nullptr ? src.table->live_row_count() : src.materialized.size();
    const Index* right_index = nullptr;
    if (left_key != nullptr && src.table != nullptr && source_filters[src_index].empty() &&
        tuples.size() * 8 < right_count) {
      right_index = src.table->FindSingleColumnIndex(
          src.schema->columns[static_cast<size_t>(right_col)].name);
    }
    std::vector<const Row*> right_rows;
    std::unordered_map<CompositeKey, std::vector<const Row*>, CompositeKeyHash> hash;
    if (right_index == nullptr) {
      auto rows = materialize(src_index);
      if (!rows.ok()) return rows.status();
      right_rows = std::move(*rows);
    }
    if (right_index == nullptr && left_key != nullptr) {
      for (const Row* row : right_rows) {
        const Value& v = (*row)[static_cast<size_t>(right_col)];
        if (!v.is_null()) hash[CompositeKey{{v}}].push_back(row);  // NULL never equi-joins
      }
    }

    std::vector<Tuple> next;
    std::vector<const Row*> probed;
    const bool left_join = join.type == sql::JoinType::kLeft;
    for (Tuple& t : tuples) {
      const std::vector<const Row*>* candidates = &right_rows;
      if (left_key != nullptr) {
        for (size_t s2 = 0; s2 < t.size(); ++s2) scope.BindRow(s2, t[s2]);
        scope.BindRow(src_index, nullptr);
        auto key_value = Eval(*left_key, scope);
        if (!key_value.ok()) return key_value.status();
        probed.clear();
        candidates = &probed;
        if (!key_value->is_null()) {
          CompositeKey key{{*key_value}};
          if (right_index != nullptr) {
            for (size_t slot : right_index->Lookup(key)) {
              if (src.table->IsLive(slot)) probed.push_back(&src.table->RowAt(slot));
            }
          } else if (auto it = hash.find(key); it != hash.end()) {
            candidates = &it->second;
          }
        }
      }
      bool matched = false;
      for (const Row* row : *candidates) {
        // The whole ON condition still applies to a probed row.
        Tuple candidate = t;
        candidate.push_back(row);
        if (on != nullptr) {
          for (size_t s2 = 0; s2 < candidate.size(); ++s2) scope.BindRow(s2, candidate[s2]);
          auto v = Eval(*on, scope);
          if (!v.ok()) return v.status();
          if (!IsTrue(*v)) continue;
        }
        next.push_back(std::move(candidate));
        matched = true;
      }
      if (left_join && !matched) {
        Tuple padded = t;
        padded.push_back(&src.null_row);
        next.push_back(std::move(padded));
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

  struct PendingRow {
    Row values;
    std::vector<Value> sort_key;
  };
  std::vector<PendingRow> pending;

  // Produces one output row from the currently bound scope.
  auto produce = [&](const std::map<std::string, Value>* aggregates) -> Status {
    scope.aggregates = aggregates;
    PendingRow row_out;
    for (const OutputColumn& column : output) {
      if (column.expr == nullptr) {
        const Row* bound = scope.sources()[column.source].row;
        row_out.values.push_back(bound != nullptr && column.column < bound->size()
                                     ? (*bound)[column.column]
                                     : Value::Null_());
        continue;
      }
      auto v = Eval(*column.expr, scope);
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
    for (size_t k = 0; k < stmt.order_by.size(); ++k) {
      if (order_columns[k] != kNoSlot) {
        row_out.sort_key.push_back(row_out.values[order_columns[k]]);
        continue;
      }
      auto v = Eval(*stmt.order_by[k].expr, scope);
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
    sql::ForEachRootExpr(stmt, [&](const sql::Expr& root) {
      sql::VisitExpr(root, [&](const sql::Expr& node) {
        if (node.kind == sql::ExprKind::kFunction && IsAggregateName(node.text)) {
          agg_exprs.emplace(sql::PrintExpr(node), &node);
        }
      });
    });

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
      if (index != nullptr) {
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

    // Without GROUP BY there is one group, empty when no tuple is left (so
    // COUNT(*) = 0 still yields a row); with it, every group has a member.
    for (auto& [key, members] : groups) {
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

Result<std::vector<size_t>> Executor::WriteTargets(sql::Statement& stmt, const Table& table,
                                                   std::string binding, const sql::Expr* where,
                                                   EvalScope* scope) {
  Status s = FlattenClauses(stmt);
  if (!s.ok()) return s;
  scope->rng = &rng_;
  scope->AddSource(std::move(binding), &table.schema());
  std::vector<const sql::Expr*> conjuncts;
  if (where != nullptr) CollectConjuncts(*where, &conjuncts);
  BoundSource src;
  src.table = &table;
  std::vector<size_t> slots;
  s = SelectRows(
      src, conjuncts,
      [&](const Row& row) -> Result<bool> {
        scope->BindRow(0, &row);
        auto v = Eval(*where, *scope);
        if (!v.ok()) return v.status();
        return IsTrue(*v);
      },
      [&](size_t slot, const Row&) { slots.push_back(slot); });
  if (!s.ok()) return s;
  return slots;
}

Result<QueryResult> Executor::ExecuteUpdate(const sql::UpdateStatement& original) {
  auto owned = original.CloneStatement();
  auto& stmt = static_cast<sql::UpdateStatement&>(*owned);

  Table* table = db_->GetTable(stmt.table);
  if (table == nullptr) return Result<QueryResult>::Error("no such table: " + std::string(stmt.table));
  const TableSchema& schema = table->schema();
  EvalScope scope;
  auto matched = WriteTargets(stmt, *table, std::string(stmt.alias.empty() ? stmt.table : stmt.alias),
                              stmt.where.get(), &scope);
  if (!matched.ok()) return matched.status();

  QueryResult out;
  for (size_t slot : *matched) {
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
  EvalScope scope;
  auto matched = WriteTargets(stmt, *table, std::string(stmt.table), stmt.where.get(), &scope);
  if (!matched.ok()) return matched.status();

  size_t affected = matched->size();
  Status s = DeleteRowsCascading(*table, std::move(*matched), 0);
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
