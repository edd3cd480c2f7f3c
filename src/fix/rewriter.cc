#include "fix/rewriter.h"

#include <utility>
#include <vector>

#include "analysis/query_analyzer.h"
#include "catalog/schema.h"
#include "common/strings.h"
#include "sql/parser.h"

namespace sqlcheck {

namespace {

/// One FROM/JOIN source resolved against the catalog: the name columns must
/// be qualified with (alias if set) and the schema to expand from.
struct ResolvedSource {
  std::string_view qualifier;
  const TableSchema* schema;
};

/// Resolves every source of `select`; false when any source is a subquery or
/// missing from the catalog (expansion would have to guess).
bool ResolveSources(const sql::SelectStatement& select, const Catalog& catalog,
                    std::vector<ResolvedSource>* out) {
  auto add = [&](const sql::TableRef& ref) {
    if (ref.subquery) return false;
    const TableSchema* schema = catalog.FindTable(ref.name);
    if (schema == nullptr) return false;
    out->push_back({std::string_view(ref.EffectiveName()), schema});
    return true;
  };
  for (const auto& f : select.from) {
    if (!add(f)) return false;
  }
  for (const auto& j : select.joins) {
    if (!add(j.table)) return false;
  }
  return !out->empty();
}

bool IsRandCall(const sql::Expr& e) {
  return e.kind == sql::ExprKind::kFunction && e.children.empty() &&
         (EqualsIgnoreCase(e.text, "rand") || EqualsIgnoreCase(e.text, "random"));
}

/// True when `pattern` is '%tail' with a wildcard-free ASCII tail; writes the
/// reversed tail. Multi-byte payloads are refused — reversing bytes would
/// corrupt UTF-8 sequences.
bool ReversibleTail(std::string_view pattern, std::string* reversed) {
  if (pattern.size() < 2 || pattern[0] != '%') return false;
  std::string_view tail = pattern.substr(1);
  for (char c : tail) {
    if (c == '%' || c == '_' || static_cast<unsigned char>(c) >= 0x80) return false;
  }
  reversed->assign(tail.rbegin(), tail.rend());
  return true;
}

/// Reverses every qualifying leading-wildcard LIKE under `e`; returns how
/// many predicates were transformed.
int ReverseLikes(sql::Expr* e) {
  int count = 0;
  if (e->kind == sql::ExprKind::kLike && e->children.size() >= 2 &&
      (EqualsIgnoreCase(e->text, "LIKE") || EqualsIgnoreCase(e->text, "ILIKE")) &&
      e->children[0]->kind == sql::ExprKind::kColumnRef &&
      e->children[1]->kind == sql::ExprKind::kStringLiteral) {
    std::string reversed;
    if (ReversibleTail(e->children[1]->text, &reversed)) {
      std::vector<sql::ExprPtr> args;
      args.push_back(std::move(e->children[0]));
      e->children[0] = sql::MakeFunction("REVERSE", std::move(args));
      e->children[1]->text = reversed + "%";
      ++count;
    }
  }
  for (auto& child : e->children) count += ReverseLikes(child.get());
  return count;
}

/// Wraps nullable column refs appearing under `||` / CONCAT in COALESCE;
/// returns how many columns were wrapped.
int WrapNullableConcatOperands(sql::Expr* e, const Context& context,
                               const std::string& default_table, bool under_concat) {
  int count = 0;
  bool concat_here =
      (e->kind == sql::ExprKind::kBinary && e->text == "||") ||
      (e->kind == sql::ExprKind::kFunction && EqualsIgnoreCase(e->text, "concat"));
  for (auto& child : e->children) {
    if ((under_concat || concat_here) && child->kind == sql::ExprKind::kColumnRef) {
      std::string table(child->TableQualifier());
      if (table.empty()) table = default_table;
      if (context.ColumnNullable(table, child->ColumnName())) {
        std::vector<sql::ExprPtr> args;
        args.push_back(std::move(child));
        args.push_back(sql::MakeStringLiteral(""));
        child = sql::MakeFunction("COALESCE", std::move(args));
        ++count;
        continue;
      }
    }
    count += WrapNullableConcatOperands(child.get(), context, default_table,
                                        under_concat || concat_here);
  }
  return count;
}

}  // namespace

sql::StatementPtr ExpandWildcard(const sql::SelectStatement& select,
                                 const Context& context) {
  std::vector<ResolvedSource> sources;
  if (!ResolveSources(select, context.catalog(), &sources)) return nullptr;
  const bool qualify = sources.size() > 1;
  bool using_join = false;
  for (const auto& j : select.joins) using_join |= !j.using_columns.empty();

  auto cloned = select.CloneSelect();
  sql::AstVector<sql::SelectItem> items;
  bool expanded = false;
  for (auto& item : cloned->items) {
    if (!item.expr || item.expr->kind != sql::ExprKind::kStar) {
      items.push_back(std::move(item));
      continue;
    }
    std::string_view star_qualifier;
    if (!item.expr->name_parts.empty()) star_qualifier = item.expr->name_parts.back();
    // A bare * lists each USING column once; per-source expansion would list
    // it once per side.
    if (star_qualifier.empty() && using_join) return nullptr;
    bool matched = false;
    for (const ResolvedSource& src : sources) {
      if (!star_qualifier.empty() && !EqualsIgnoreCase(star_qualifier, src.qualifier)) {
        continue;
      }
      matched = true;
      if (src.schema->columns.empty()) return nullptr;  // nothing to expand to
      for (const auto& col : src.schema->columns) {
        sql::SelectItem concrete;
        std::vector<std::string> parts;
        if (qualify) parts.emplace_back(src.qualifier);
        parts.push_back(col.name);
        concrete.expr = sql::MakeColumnRef(std::move(parts));
        items.push_back(std::move(concrete));
      }
    }
    if (!matched) return nullptr;  // t.* over a source we cannot see
    expanded = true;
  }
  if (!expanded) return nullptr;
  cloned->items = std::move(items);
  return cloned;
}

sql::StatementPtr ExpandInsertColumns(const sql::InsertStatement& insert,
                                      const Context& context) {
  const TableSchema* schema = context.catalog().FindTable(insert.table);
  if (schema == nullptr || schema->columns.empty()) return nullptr;
  // Every VALUES row, or the SELECT's star-free list, must fill the schema
  // exactly; on an arity mismatch the statement is already broken.
  const size_t width = schema->columns.size();
  for (const auto& row : insert.rows) {
    if (row.size() != width) return nullptr;
  }
  if (insert.select != nullptr) {
    if (insert.select->items.size() != width) return nullptr;
    for (const auto& item : insert.select->items) {
      if (item.expr && item.expr->kind == sql::ExprKind::kStar) return nullptr;
    }
  }
  auto cloned = insert.CloneStatement();
  auto* fixed = static_cast<sql::InsertStatement*>(cloned.get());
  fixed->columns.clear();
  for (const auto& col : schema->columns) fixed->columns.emplace_back(col.name);
  return cloned;
}

sql::StatementPtr ReplaceOrderByRand(const sql::SelectStatement& select,
                                     const Context& context) {
  // Only the random-pick idiom (ORDER BY RAND() ... LIMIT n) has an
  // equivalent key-probe form; a full shuffle does not.
  if (!select.limit.has_value() || select.order_by.empty()) return nullptr;
  if (select.from.size() != 1 || select.from[0].subquery || !select.joins.empty()) {
    return nullptr;
  }
  for (const auto& ob : select.order_by) {
    if (!IsRandCall(*ob.expr)) return nullptr;
  }
  const TableSchema* schema = context.catalog().FindTable(select.from[0].name);
  if (schema == nullptr || schema->primary_key.size() != 1) return nullptr;
  const std::string& pk = schema->primary_key[0];

  auto cloned = select.CloneSelect();
  cloned->order_by.clear();
  sql::OrderItem by_key;
  by_key.expr = sql::MakeColumnRef({pk});
  cloned->order_by.push_back(std::move(by_key));

  // pk >= (SELECT FLOOR(RAND() * MAX(pk)) FROM t)
  auto probe_select = sql::SelectPtr(new sql::SelectStatement());
  {
    std::vector<sql::ExprPtr> max_args;
    max_args.push_back(sql::MakeColumnRef({pk}));
    auto scaled = sql::MakeBinary("*", sql::MakeFunction("RAND", {}),
                                  sql::MakeFunction("MAX", std::move(max_args)));
    std::vector<sql::ExprPtr> floor_args;
    floor_args.push_back(std::move(scaled));
    sql::SelectItem probe_item;
    probe_item.expr = sql::MakeFunction("FLOOR", std::move(floor_args));
    probe_select->items.push_back(std::move(probe_item));
    sql::TableRef source;
    source.name = cloned->from[0].name;
    probe_select->from.push_back(std::move(source));
  }
  auto subquery = sql::MakeExpr(sql::ExprKind::kSubquery);
  subquery->subquery = std::move(probe_select);
  auto probe = sql::MakeBinary(">=", sql::MakeColumnRef({pk}), std::move(subquery));
  cloned->where = cloned->where
                      ? sql::MakeBinary("AND", std::move(cloned->where), std::move(probe))
                      : std::move(probe);
  return cloned;
}

sql::StatementPtr RewriteLeadingWildcards(const sql::SelectStatement& select) {
  auto cloned = select.CloneSelect();
  int count = 0;
  if (cloned->where) count += ReverseLikes(cloned->where.get());
  if (cloned->having) count += ReverseLikes(cloned->having.get());
  if (count == 0) return nullptr;
  return cloned;
}

sql::StatementPtr WrapConcatNulls(const sql::SelectStatement& select,
                                  const Context& context) {
  auto cloned = select.CloneSelect();
  std::string default_table;
  if (cloned->from.size() == 1) default_table = cloned->from[0].name;
  int count = 0;
  for (auto& item : cloned->items) {
    if (item.expr) {
      count += WrapNullableConcatOperands(item.expr.get(), context, default_table, false);
    }
  }
  if (cloned->where) {
    count += WrapNullableConcatOperands(cloned->where.get(), context, default_table, false);
  }
  // A detection this transformation cannot reach (concat in ORDER BY /
  // HAVING, NOT NULL operands only) must fall back to guidance, not claim a
  // rewrite that changed nothing.
  if (count == 0) return nullptr;
  return cloned;
}

RewriteCheck VerifyRewrite(const Fix& fix, const Rule* rule, const Context& context,
                           const DetectorConfig& config, Arena* scratch,
                           sql::TokenBuffer* tokens) {
  if (fix.statements.empty()) {
    return {false, "rewrite proposal carries no statements"};
  }
  Arena local_arena;
  sql::TokenBuffer local_tokens;
  Arena& arena = scratch != nullptr ? *scratch : local_arena;
  sql::TokenBuffer& buffer = tokens != nullptr ? *tokens : local_tokens;
  for (const std::string& text : fix.statements) {
    // The previous statement's tree, facts and detections are gone by now.
    arena.Reset();
    sql::StatementPtr stmt = sql::ParseStatement(text, &arena, &buffer);
    if (stmt == nullptr || stmt->kind == sql::StatementKind::kUnknown) {
      return {false, "rewritten SQL does not re-parse cleanly"};
    }
    if (rule == nullptr) continue;  // rule disabled/custom: parse check only
    QueryFacts facts = AnalyzeQuery(*stmt);
    std::vector<Detection> again;
    rule->CheckQuery(facts, context, config, &again);
    for (const Detection& d : again) {
      if (d.type == fix.type) {
        return {false, std::string("rewritten SQL still triggers ") + ApName(fix.type)};
      }
    }
  }
  return {true, {}};
}

}  // namespace sqlcheck
