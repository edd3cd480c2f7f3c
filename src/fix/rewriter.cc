#include "fix/rewriter.h"

#include <utility>
#include <vector>

#include "analysis/query_analyzer.h"
#include "catalog/schema.h"
#include "common/strings.h"
#include "sql/parser.h"
#include "sql/printer.h"

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

/// An edit replacing `e`'s source span with `text`.
SourceEdit Replace(const sql::Expr& e, std::string text) {
  return {e.begin, e.end - e.begin, std::move(text)};
}

/// An edit wrapping `e`'s source text (in `raw`) in `prefix` ... `suffix`.
SourceEdit Wrap(const sql::Expr& e, std::string_view raw, std::string_view prefix,
                std::string_view suffix) {
  std::string text(prefix);
  text += raw.substr(e.begin, e.end - e.begin);
  text += suffix;
  return Replace(e, std::move(text));
}

/// A possibly qualified name (`archive.t`) as SQL text, each part quoted as
/// needed.
std::string PrintDottedName(std::string_view name) {
  std::string out;
  for (size_t start = 0;;) {
    const size_t dot = name.find('.', start);
    out += sql::PrintName(name.substr(start, dot - start));
    if (dot == std::string_view::npos) return out;
    out += '.';
    start = dot + 1;
  }
}

/// Reverses every qualifying leading-wildcard LIKE under `e`.
void ReverseLikes(const sql::Expr& e, std::string_view raw, SourceEdits* out) {
  // Exactly two operands: an ESCAPE clause changes what the pattern means.
  if (e.kind == sql::ExprKind::kLike && e.children.size() == 2 &&
      (EqualsIgnoreCase(e.text, "LIKE") || EqualsIgnoreCase(e.text, "ILIKE")) &&
      e.children[0]->kind == sql::ExprKind::kColumnRef &&
      e.children[1]->kind == sql::ExprKind::kStringLiteral) {
    std::string reversed;
    if (ReversibleTail(e.children[1]->text, &reversed)) {
      out->push_back(Wrap(*e.children[0], raw, "REVERSE(", ")"));
      out->push_back(Replace(*e.children[1], sql::QuoteString(reversed + "%")));
    }
  }
  for (const auto& child : e.children) ReverseLikes(*child, raw, out);
}

/// Wraps nullable column refs appearing under `||` / CONCAT in COALESCE.
void WrapNullableConcatOperands(const sql::Expr& e, std::string_view raw,
                                const Context& context, std::string_view default_table,
                                bool under_concat, SourceEdits* out) {
  bool concat_here =
      (e.kind == sql::ExprKind::kBinary && e.text == "||") ||
      (e.kind == sql::ExprKind::kFunction && EqualsIgnoreCase(e.text, "concat"));
  for (const auto& child : e.children) {
    if ((under_concat || concat_here) && child->kind == sql::ExprKind::kColumnRef) {
      std::string_view table = child->TableQualifier();
      if (table.empty()) table = default_table;
      if (context.ColumnNullable(table, child->ColumnName())) {
        out->push_back(Wrap(*child, raw, "COALESCE(", ", '')"));
        continue;
      }
    }
    WrapNullableConcatOperands(*child, raw, context, default_table,
                               under_concat || concat_here, out);
  }
}

}  // namespace

SourceEdits ExpandWildcard(const sql::SelectStatement& select, const Context& context) {
  std::vector<ResolvedSource> sources;
  if (!ResolveSources(select, context.catalog(), &sources)) return {};
  const bool qualify = sources.size() > 1;
  bool using_join = false;
  for (const auto& j : select.joins) using_join |= !j.using_columns.empty();

  SourceEdits edits;
  for (const auto& item : select.items) {
    if (!item.expr || item.expr->kind != sql::ExprKind::kStar) continue;
    std::string_view star_qualifier;
    if (!item.expr->name_parts.empty()) star_qualifier = item.expr->name_parts.back();
    // A bare * lists each USING column once; per-source expansion would list
    // it once per side.
    if (star_qualifier.empty() && using_join) return {};
    std::string columns;
    bool matched = false;
    for (const ResolvedSource& src : sources) {
      if (!star_qualifier.empty() && !EqualsIgnoreCase(star_qualifier, src.qualifier)) {
        continue;
      }
      matched = true;
      if (src.schema->columns.empty()) return {};  // nothing to expand to
      for (const auto& col : src.schema->columns) {
        if (!columns.empty()) columns += ", ";
        if (qualify) {
          columns += PrintDottedName(src.qualifier);
          columns += '.';
        }
        columns += sql::PrintName(col.name);
      }
    }
    if (!matched) return {};  // t.* over a source we cannot see
    edits.push_back(Replace(*item.expr, std::move(columns)));
  }
  return edits;
}

SourceEdits ExpandInsertColumns(const sql::InsertStatement& insert,
                                const Context& context) {
  const TableSchema* schema = context.catalog().FindTable(insert.table);
  if (schema == nullptr || schema->columns.empty()) return {};
  // Every VALUES row, or the SELECT's star-free list, must fill the schema
  // exactly; on an arity mismatch the statement is already broken.
  const size_t width = schema->columns.size();
  for (const auto& row : insert.rows) {
    if (row.size() != width) return {};
  }
  if (insert.select != nullptr) {
    if (insert.select->items.size() != width) return {};
    for (const auto& item : insert.select->items) {
      if (item.expr && item.expr->kind == sql::ExprKind::kStar) return {};
    }
  }
  std::string columns = " (";
  for (const auto& col : schema->columns) {
    if (columns.size() > 2) columns += ", ";
    columns += sql::PrintName(col.name);
  }
  columns += ')';
  return {SourceEdit{insert.table_end, 0, std::move(columns)}};
}

SourceEdits ReplaceOrderByRand(const sql::SelectStatement& select,
                               const Context& context) {
  // Only the random-pick idiom (ORDER BY RAND() ... LIMIT n) has an
  // equivalent key-probe form; a full shuffle does not.
  if (!select.limit.has_value() || select.order_by.empty()) return {};
  if (select.from.size() != 1 || select.from[0].subquery || !select.joins.empty()) {
    return {};
  }
  // A DESC would stay behind the replaced item and flip the key order.
  for (const auto& ob : select.order_by) {
    if (!IsRandCall(*ob.expr) || ob.descending) return {};
  }
  const TableSchema* schema = context.catalog().FindTable(select.from[0].name);
  if (schema == nullptr || schema->primary_key.size() != 1) return {};
  const std::string pk = sql::PrintName(schema->primary_key[0]);
  const std::string probe = pk + " >= (SELECT FLOOR(RAND() * MAX(" + pk + ")) FROM " +
                            PrintDottedName(select.from[0].name) + ")";

  SourceEdits edits;
  const sql::Expr* where = select.where.get();
  if (where == nullptr) {
    edits.push_back({select.where_pos, 0, " WHERE " + probe});
  } else if (where->kind == sql::ExprKind::kBinary && where->text == "OR" &&
             where->begin == where->children[0]->begin) {
    // An unparenthesized OR binds looser than the AND that joins the probe.
    edits.push_back({where->begin, 0, "("});
    edits.push_back({where->end, 0, ") AND " + probe});
  } else {
    edits.push_back({where->end, 0, " AND " + probe});
  }
  const sql::Expr& first = *select.order_by.front().expr;
  const sql::Expr& last = *select.order_by.back().expr;
  edits.push_back({first.begin, last.end - first.begin, pk});
  return edits;
}

SourceEdits RewriteLeadingWildcards(const sql::SelectStatement& select) {
  SourceEdits edits;
  if (select.where) ReverseLikes(*select.where, select.raw_sql, &edits);
  if (select.having) ReverseLikes(*select.having, select.raw_sql, &edits);
  return edits;
}

SourceEdits WrapConcatNulls(const sql::SelectStatement& select, const Context& context) {
  std::string_view default_table;
  if (select.from.size() == 1) default_table = select.from[0].name;
  SourceEdits edits;
  for (const auto& item : select.items) {
    if (item.expr) {
      WrapNullableConcatOperands(*item.expr, select.raw_sql, context, default_table,
                                 false, &edits);
    }
  }
  if (select.where) {
    WrapNullableConcatOperands(*select.where, select.raw_sql, context, default_table,
                               false, &edits);
  }
  // A detection this transformation cannot reach (concat in ORDER BY /
  // HAVING, NOT NULL operands only) must fall back to guidance, not claim a
  // rewrite that changed nothing.
  return edits;
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
