#include "sql/printer.h"

#include "common/strings.h"

namespace sqlcheck::sql {

std::string QuoteString(std::string_view s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') out += "''";
    else out.push_back(c);
  }
  out += "'";
  return out;
}

std::string PrintName(std::string_view name) {
  bool needs_quotes = name.empty();
  for (char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) needs_quotes = true;
  }
  if (needs_quotes) return "\"" + std::string(name) + "\"";
  return std::string(name);
}

namespace {

std::string PrintSelectBody(const SelectStatement& s);

std::string PrintTableRef(const TableRef& ref) {
  std::string out;
  if (ref.subquery) {
    out = "(" + PrintSelectBody(*ref.subquery) + ")";
  } else {
    out = PrintName(ref.name);
  }
  if (!ref.alias.empty()) out += " AS " + PrintName(ref.alias);
  return out;
}

const char* JoinTypeName(JoinType t) {
  switch (t) {
    case JoinType::kInner: return "JOIN";
    case JoinType::kLeft: return "LEFT JOIN";
    case JoinType::kRight: return "RIGHT JOIN";
    case JoinType::kFull: return "FULL JOIN";
    case JoinType::kCross: return "CROSS JOIN";
  }
  return "JOIN";
}

std::string PrintExprImpl(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kNullLiteral:
      return "NULL";
    case ExprKind::kBoolLiteral:
      return e.text == "true" ? "TRUE" : "FALSE";
    case ExprKind::kNumberLiteral:
      return std::string(e.text);
    case ExprKind::kStringLiteral:
      return QuoteString(e.text);
    case ExprKind::kParam:
      return std::string(e.text);
    case ExprKind::kColumnRef: {
      std::vector<std::string> parts;
      for (const auto& p : e.name_parts) parts.push_back(PrintName(p));
      return Join(parts, ".");
    }
    case ExprKind::kStar:
      if (!e.name_parts.empty()) return PrintName(e.name_parts.back()) + ".*";
      return "*";
    case ExprKind::kUnary:
      if (EqualsIgnoreCase(e.text, "not")) return "NOT (" + PrintExprImpl(*e.children[0]) + ")";
      return std::string(e.text) + PrintExprImpl(*e.children[0]);
    case ExprKind::kBinary:
      return "(" + PrintExprImpl(*e.children[0]) + " " + std::string(e.text) + " " +
             PrintExprImpl(*e.children[1]) + ")";
    case ExprKind::kLike:
      return "(" + PrintExprImpl(*e.children[0]) + (e.negated ? " NOT " : " ") +
             std::string(e.text) + " " + PrintExprImpl(*e.children[1]) +
             (e.children.size() > 2 ? " ESCAPE " + PrintExprImpl(*e.children[2]) : "") +
             ")";
    case ExprKind::kIsNull:
      return "(" + PrintExprImpl(*e.children[0]) + (e.negated ? " IS NOT NULL" : " IS NULL") +
             ")";
    case ExprKind::kIn: {
      std::string out = "(" + PrintExprImpl(*e.children[0]) + (e.negated ? " NOT IN (" : " IN (");
      if (e.subquery) {
        out += PrintSelectBody(*e.subquery);
      } else {
        for (size_t i = 1; i < e.children.size(); ++i) {
          if (i > 1) out += ", ";
          out += PrintExprImpl(*e.children[i]);
        }
      }
      return out + "))";
    }
    case ExprKind::kBetween:
      return "(" + PrintExprImpl(*e.children[0]) + (e.negated ? " NOT BETWEEN " : " BETWEEN ") +
             PrintExprImpl(*e.children[1]) + " AND " + PrintExprImpl(*e.children[2]) + ")";
    case ExprKind::kFunction: {
      std::string out = ToUpper(e.text) + "(";
      if (e.distinct_arg) out += "DISTINCT ";
      for (size_t i = 0; i < e.children.size(); ++i) {
        if (i > 0) out += ", ";
        out += PrintExprImpl(*e.children[i]);
      }
      return out + ")";
    }
    case ExprKind::kCase: {
      std::string out = "CASE";
      size_t i = 0;
      bool has_operand = e.text == "operand";
      if (has_operand) {
        out += " " + PrintExprImpl(*e.children[i++]);
      }
      size_t remaining = e.children.size() - i;
      bool has_else = e.negated;
      size_t pairs = (remaining - (has_else ? 1 : 0)) / 2;
      for (size_t p = 0; p < pairs; ++p) {
        out += " WHEN " + PrintExprImpl(*e.children[i]) + " THEN " +
               PrintExprImpl(*e.children[i + 1]);
        i += 2;
      }
      if (has_else) out += " ELSE " + PrintExprImpl(*e.children[i]);
      return out + " END";
    }
    case ExprKind::kExists:
      return "EXISTS (" + (e.subquery ? PrintSelectBody(*e.subquery) : "") + ")";
    case ExprKind::kSubquery:
      return "(" + (e.subquery ? PrintSelectBody(*e.subquery) : "") + ")";
    case ExprKind::kCast:
      return "CAST(" + PrintExprImpl(*e.children[0]) + " AS " + std::string(e.text) + ")";
    case ExprKind::kRaw:
      // Non-validating placeholder: parse failures fall back to
      // UnknownStatement (printed from raw_sql), so kRaw has no payload.
      return "";
  }
  return "";
}

std::string PrintSelectBody(const SelectStatement& s) {
  std::string out = "SELECT ";
  if (s.distinct) out += "DISTINCT ";
  for (size_t i = 0; i < s.items.size(); ++i) {
    if (i > 0) out += ", ";
    out += PrintExprImpl(*s.items[i].expr);
    if (!s.items[i].alias.empty()) out += " AS " + PrintName(s.items[i].alias);
  }
  if (!s.from.empty()) {
    out += " FROM ";
    for (size_t i = 0; i < s.from.size(); ++i) {
      if (i > 0) out += ", ";
      out += PrintTableRef(s.from[i]);
    }
  }
  for (const auto& j : s.joins) {
    out += std::string(" ") + JoinTypeName(j.type) + " " + PrintTableRef(j.table);
    if (j.on) {
      out += " ON " + PrintExprImpl(*j.on);
    } else if (!j.using_columns.empty()) {
      std::vector<std::string> cols;
      for (const auto& c : j.using_columns) cols.push_back(PrintName(c));
      out += " USING (" + Join(cols, ", ") + ")";
    }
  }
  if (s.where) out += " WHERE " + PrintExprImpl(*s.where);
  if (!s.group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < s.group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += PrintExprImpl(*s.group_by[i]);
    }
  }
  if (s.having) out += " HAVING " + PrintExprImpl(*s.having);
  if (!s.order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < s.order_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += PrintExprImpl(*s.order_by[i].expr);
      if (s.order_by[i].descending) out += " DESC";
    }
  }
  if (s.limit.has_value()) out += " LIMIT " + std::to_string(*s.limit);
  if (s.offset.has_value()) out += " OFFSET " + std::to_string(*s.offset);
  return out;
}

}  // namespace

std::string PrintExpr(const Expr& expr) { return PrintExprImpl(expr); }

}  // namespace sqlcheck::sql
