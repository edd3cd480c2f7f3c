#include "analysis/query_analyzer.h"

#include <string_view>
#include <utility>
#include <vector>

#include "analysis/alias_map.h"
#include "common/strings.h"
#include "engine/like.h"
#include "sql/printer.h"

namespace sqlcheck {

namespace {

bool IsLiteralExpr(const sql::Expr& e) {
  return e.kind == sql::ExprKind::kNullLiteral || e.kind == sql::ExprKind::kBoolLiteral ||
         e.kind == sql::ExprKind::kNumberLiteral || e.kind == sql::ExprKind::kStringLiteral ||
         e.kind == sql::ExprKind::kParam;
}

std::string_view LiteralDisplay(const sql::Expr& e) {
  switch (e.kind) {
    case sql::ExprKind::kNullLiteral: return "NULL";
    case sql::ExprKind::kBoolLiteral: return e.text;
    case sql::ExprKind::kNumberLiteral: return e.text;
    case sql::ExprKind::kStringLiteral: return e.text;
    case sql::ExprKind::kParam: return e.text;
    default: return "";
  }
}

class FactCollector {
 public:
  FactCollector(QueryFacts* facts, const AliasMap& aliases, std::string_view sole_table)
      : facts_(facts), aliases_(aliases), sole_table_(sole_table) {}

  /// Walks a predicate expression (WHERE/ON/HAVING) collecting predicate,
  /// pattern, and concat usages.
  void CollectPredicates(const sql::Expr& e) {
    using sql::ExprKind;
    switch (e.kind) {
      case ExprKind::kBinary: {
        std::string_view op = e.text;
        if (op == "AND" || op == "OR") {
          CollectPredicates(*e.children[0]);
          CollectPredicates(*e.children[1]);
          return;
        }
        if (op == "||") {
          CollectConcat(e);
          return;
        }
        if (op == "~" || op == "~*" || op == "!~" || op == "!~*") {
          RecordPattern(e, "REGEXP");
          return;
        }
        // Comparison between a column and a literal.
        const sql::Expr& lhs = *e.children[0];
        const sql::Expr& rhs = *e.children[1];
        if (lhs.kind == ExprKind::kColumnRef && IsLiteralExpr(rhs)) {
          RecordPredicate(lhs, op, LiteralDisplay(rhs));
        } else if (rhs.kind == ExprKind::kColumnRef && IsLiteralExpr(lhs)) {
          RecordPredicate(rhs, op, LiteralDisplay(lhs));
        } else {
          CollectPredicates(lhs);
          CollectPredicates(rhs);
        }
        return;
      }
      case ExprKind::kLike:
        // kLike nodes carry their operator pre-uppercased by the parser.
        RecordPattern(e, e.text);
        return;
      case ExprKind::kIn:
        if (!e.children.empty() && e.children[0]->kind == ExprKind::kColumnRef) {
          RecordPredicate(*e.children[0], "IN", "");
        }
        return;
      case ExprKind::kBetween:
        if (!e.children.empty() && e.children[0]->kind == ExprKind::kColumnRef) {
          RecordPredicate(*e.children[0], "BETWEEN", "");
        }
        return;
      case ExprKind::kIsNull:
        if (!e.children.empty() && e.children[0]->kind == ExprKind::kColumnRef) {
          RecordPredicate(*e.children[0], e.negated ? "IS NOT NULL" : "IS NULL", "");
        }
        return;
      case ExprKind::kUnary:
        if (!e.children.empty()) CollectPredicates(*e.children[0]);
        return;
      case ExprKind::kFunction:
        if (EqualsIgnoreCase(e.text, "concat")) {
          CollectConcat(e);
          return;
        }
        for (const auto& c : e.children) CollectPredicates(*c);
        return;
      default:
        for (const auto& c : e.children) CollectPredicates(*c);
        return;
    }
  }

  /// Records columns appearing under a concatenation (`a || b`, CONCAT(..)).
  /// Columns inside a NULL-defaulting wrapper (COALESCE/IFNULL/NVL) are
  /// skipped: the wrapper already supplies a fallback, so they cannot void
  /// the concatenation — and the COALESCE rewrite the fix engine emits must
  /// re-analyze clean.
  void CollectConcat(const sql::Expr& e) {
    if (IsNullDefaulted(e)) return;
    if (e.kind == sql::ExprKind::kColumnRef) {
      std::string_view table = ResolveTable(aliases_, e, sole_table_);
      std::string qualified;
      if (table.empty()) {
        qualified = e.ColumnName();
      } else {
        qualified = table;
        qualified += '.';
        qualified += e.ColumnName();
      }
      facts_->concat_columns.push_back(std::move(qualified));
    }
    for (const auto& child : e.children) CollectConcat(*child);
  }

  static bool IsNullDefaulted(const sql::Expr& e) {
    return e.kind == sql::ExprKind::kFunction &&
           (EqualsIgnoreCase(e.text, "coalesce") || EqualsIgnoreCase(e.text, "ifnull") ||
            EqualsIgnoreCase(e.text, "nvl"));
  }

  /// Scans any expression for embedded concat/pattern usages (select lists).
  void ScanExpression(const sql::Expr& e) {
    sql::VisitExpr(e, [&](const sql::Expr& node) {
      if (node.kind == sql::ExprKind::kBinary && node.text == "||") CollectConcat(node);
      if (node.kind == sql::ExprKind::kFunction && EqualsIgnoreCase(node.text, "concat")) {
        CollectConcat(node);
      }
      if (node.kind == sql::ExprKind::kLike) RecordPattern(node, node.text);
    });
  }

  void RecordJoinOn(const sql::Expr& on) {
    // Equality edges become JoinEdge records; anything else marks an
    // expression join and is also predicate-scanned.
    std::vector<const sql::Expr*> conjuncts;
    CollectConjunctsLocal(on, &conjuncts);
    for (const sql::Expr* conj : conjuncts) {
      if (conj->kind == sql::ExprKind::kBinary &&
          (conj->text == "=" || conj->text == "==") &&
          conj->children[0]->kind == sql::ExprKind::kColumnRef &&
          conj->children[1]->kind == sql::ExprKind::kColumnRef) {
        JoinEdge edge;
        edge.left_table = ResolveTable(aliases_, *conj->children[0], "");
        edge.left_column = conj->children[0]->ColumnName();
        edge.right_table = ResolveTable(aliases_, *conj->children[1], "");
        edge.right_column = conj->children[1]->ColumnName();
        facts_->joins.push_back(std::move(edge));
      } else {
        JoinEdge edge;
        edge.expression_join = true;
        facts_->joins.push_back(std::move(edge));
        CollectPredicates(*conj);
      }
    }
  }

 private:
  static void CollectConjunctsLocal(const sql::Expr& e,
                                    std::vector<const sql::Expr*>* out) {
    if (e.kind == sql::ExprKind::kBinary && e.text == "AND") {
      CollectConjunctsLocal(*e.children[0], out);
      CollectConjunctsLocal(*e.children[1], out);
    } else {
      out->push_back(&e);
    }
  }

  void RecordPredicate(const sql::Expr& column_ref, std::string_view op,
                       std::string_view literal) {
    PredicateUse use;
    use.table = ResolveTable(aliases_, column_ref, sole_table_);
    use.column = column_ref.ColumnName();
    use.op = op;
    use.literal = literal;
    facts_->predicates.push_back(std::move(use));
  }

  void RecordPattern(const sql::Expr& e, std::string_view op) {
    PatternUse use;
    use.op = op;
    if (!e.children.empty() && e.children[0]->kind == sql::ExprKind::kColumnRef) {
      use.table = ResolveTable(aliases_, *e.children[0], sole_table_);
      use.column = e.children[0]->ColumnName();
    }
    if (e.children.size() > 1) {
      const sql::Expr& pattern = *e.children[1];
      if (pattern.kind == sql::ExprKind::kStringLiteral) {
        use.pattern = pattern.text;
        use.leading_wildcard = !pattern.text.empty() &&
                               (pattern.text[0] == '%' || pattern.text[0] == '_' ||
                                pattern.text.rfind(".*", 0) == 0);
        use.word_boundary = HasWordBoundaryMarkers(pattern.text);
      } else {
        use.computed_pattern = true;
        // A computed pattern may still carry boundary-marker literals.
        sql::VisitExpr(pattern, [&](const sql::Expr& node) {
          if (node.kind == sql::ExprKind::kStringLiteral &&
              HasWordBoundaryMarkers(node.text)) {
            use.word_boundary = true;
          }
        });
      }
    }
    facts_->patterns.push_back(std::move(use));
  }

  QueryFacts* facts_;
  const AliasMap& aliases_;
  std::string_view sole_table_;
};

void AnalyzeSelect(const sql::SelectStatement& s, QueryFacts* facts) {
  AliasMap aliases;
  for (const auto& f : s.from) aliases.AddBinding(f);
  for (const auto& j : s.joins) aliases.AddBinding(j.table);

  std::string_view sole_table;
  if (s.from.size() == 1 && s.joins.empty() && !s.from[0].name.empty()) {
    sole_table = s.from[0].name;
  }
  FactCollector collector(facts, aliases, sole_table);

  facts->distinct = s.distinct;
  facts->join_count = s.JoinCount();
  facts->has_where = s.where != nullptr;
  std::vector<std::string_view> referenced;
  s.CollectReferencedTables(&referenced);
  for (std::string_view t : referenced) {
    bool seen = false;
    for (std::string_view existing : facts->tables) {
      if (EqualsIgnoreCase(existing, t)) seen = true;
    }
    if (!seen) facts->tables.push_back(t);
  }

  for (const auto& item : s.items) {
    if (item.expr->kind == sql::ExprKind::kStar) {
      facts->selects_wildcard = true;
    } else {
      collector.ScanExpression(*item.expr);
    }
  }
  for (const auto& j : s.joins) {
    if (j.on) collector.RecordJoinOn(*j.on);
    for (const auto& col : j.using_columns) {
      JoinEdge edge;
      if (!s.from.empty()) edge.left_table = s.from[0].name;
      edge.left_column = col;
      edge.right_table = j.table.name;
      edge.right_column = col;
      facts->joins.push_back(std::move(edge));
    }
  }
  if (s.where) collector.CollectPredicates(*s.where);
  if (s.having) collector.CollectPredicates(*s.having);
  for (const auto& g : s.group_by) {
    if (g->kind == sql::ExprKind::kColumnRef) {
      std::string_view table = g->TableQualifier();
      std::string_view resolved = aliases.Resolve(table);
      if (resolved.empty()) resolved = table;
      if (resolved.empty()) resolved = sole_table;
      std::string qualified;
      if (resolved.empty()) {
        qualified = g->ColumnName();
      } else {
        qualified = resolved;
        qualified += '.';
        qualified += g->ColumnName();
      }
      facts->group_by_columns.push_back(std::move(qualified));
    }
  }
  for (const auto& ob : s.order_by) {
    if (ob.expr->kind == sql::ExprKind::kFunction &&
        (EqualsIgnoreCase(ob.expr->text, "rand") ||
         EqualsIgnoreCase(ob.expr->text, "random"))) {
      facts->order_by_rand = true;
    }
    collector.ScanExpression(*ob.expr);
  }

  // Nested subqueries contribute facts too (joins/predicates seen anywhere).
  auto scan_subqueries = [&](const sql::SelectStatement& inner) {
    QueryFacts inner_facts;
    AnalyzeSelect(inner, &inner_facts);
    for (std::string_view t : inner_facts.tables) {
      if (!facts->ReferencesTable(t)) facts->tables.push_back(t);
    }
    for (auto& p : inner_facts.predicates) facts->predicates.push_back(std::move(p));
    for (auto& p : inner_facts.patterns) facts->patterns.push_back(std::move(p));
    for (auto& j : inner_facts.joins) facts->joins.push_back(std::move(j));
    facts->join_count += inner_facts.join_count;
    if (inner_facts.order_by_rand) facts->order_by_rand = true;
  };
  for (const auto& f : s.from) {
    if (f.subquery) scan_subqueries(*f.subquery);
  }
  auto visit_expr_subqueries = [&](const sql::Expr& root) {
    sql::VisitExpr(root, [&](const sql::Expr& node) {
      if (node.subquery) scan_subqueries(*node.subquery);
    });
  };
  if (s.where) visit_expr_subqueries(*s.where);
  for (const auto& item : s.items) {
    if (item.expr->kind != sql::ExprKind::kStar) visit_expr_subqueries(*item.expr);
  }
}

}  // namespace

QueryFacts AnalyzeQuery(const sql::Statement& stmt) {
  QueryFacts facts;
  facts.stmt = &stmt;
  facts.kind = stmt.kind;
  facts.raw_sql = stmt.raw_sql;

  switch (stmt.kind) {
    case sql::StatementKind::kSelect:
      AnalyzeSelect(static_cast<const sql::SelectStatement&>(stmt), &facts);
      break;
    case sql::StatementKind::kInsert: {
      const auto& s = static_cast<const sql::InsertStatement&>(stmt);
      facts.tables.emplace_back(s.table);
      facts.insert_without_columns = s.columns.empty();
      facts.insert_columns.reserve(s.columns.size());
      for (const auto& c : s.columns) facts.insert_columns.push_back(c);
      if (s.select) {
        QueryFacts inner;
        AnalyzeSelect(*s.select, &inner);
        for (std::string_view t : inner.tables) {
          if (!facts.ReferencesTable(t)) facts.tables.push_back(t);
        }
        facts.selects_wildcard = inner.selects_wildcard;
      }
      break;
    }
    case sql::StatementKind::kUpdate: {
      const auto& s = static_cast<const sql::UpdateStatement&>(stmt);
      facts.tables.emplace_back(s.table);
      facts.has_where = s.where != nullptr;
      AliasMap aliases;
      aliases.Bind(s.alias.empty() ? std::string_view(s.table) : std::string_view(s.alias),
                   s.table);
      aliases.Bind(s.table, s.table);
      FactCollector collector(&facts, aliases, s.table);
      for (const auto& [col, expr] : s.assignments) {
        facts.updated_columns.emplace_back(col);
        collector.ScanExpression(*expr);
      }
      if (s.where) collector.CollectPredicates(*s.where);
      break;
    }
    case sql::StatementKind::kDelete: {
      const auto& s = static_cast<const sql::DeleteStatement&>(stmt);
      facts.tables.emplace_back(s.table);
      facts.has_where = s.where != nullptr;
      AliasMap aliases;
      aliases.Bind(s.table, s.table);
      FactCollector collector(&facts, aliases, s.table);
      if (s.where) collector.CollectPredicates(*s.where);
      break;
    }
    case sql::StatementKind::kCreateTable:
      facts.tables.emplace_back(static_cast<const sql::CreateTableStatement&>(stmt).table);
      break;
    case sql::StatementKind::kCreateIndex:
      facts.tables.emplace_back(static_cast<const sql::CreateIndexStatement&>(stmt).table);
      break;
    case sql::StatementKind::kAlterTable:
      facts.tables.emplace_back(static_cast<const sql::AlterTableStatement&>(stmt).table);
      break;
    case sql::StatementKind::kDropTable:
      facts.tables.emplace_back(static_cast<const sql::DropTableStatement&>(stmt).table);
      break;
    default:
      break;
  }
  return facts;
}

}  // namespace sqlcheck
