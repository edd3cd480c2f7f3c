#include "engine/eval.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/strings.h"
#include "engine/like.h"
#include "sql/printer.h"

namespace sqlcheck {

Result<Value> EvalScope::ResolveColumn(const sql::AstVector<sql::AstString>& parts) const {
  size_t source_index = 0;
  int column_index = -1;
  if (!ResolvePosition(parts, &source_index, &column_index)) {
    return Result<Value>::Error("unknown column: " + Join(sql::ToStringVector(parts), "."));
  }
  const Source& src = sources_[source_index];
  if (src.row == nullptr) {
    return Result<Value>::Error("column outside row context: " + Join(sql::ToStringVector(parts), "."));
  }
  size_t ci = static_cast<size_t>(column_index);
  return ci < src.row->size() ? (*src.row)[ci] : Value::Null_();
}

bool EvalScope::ResolvePosition(const sql::AstVector<sql::AstString>& parts, size_t* source_index,
                                int* column_index) const {
  if (parts.empty()) return false;
  std::string_view column = parts.back();
  if (parts.size() >= 2) {
    std::string_view qualifier = parts[parts.size() - 2];
    for (size_t s = 0; s < sources_.size(); ++s) {
      if (!EqualsIgnoreCase(sources_[s].binding, qualifier)) continue;
      int ci = sources_[s].schema->ColumnIndex(column);
      if (ci < 0) return false;
      *source_index = s;
      *column_index = ci;
      return true;
    }
    return false;
  }
  for (size_t s = 0; s < sources_.size(); ++s) {
    int ci = sources_[s].schema->ColumnIndex(column);
    if (ci >= 0) {
      *source_index = s;
      *column_index = ci;
      return true;
    }
  }
  return false;
}

bool IsTrue(const Value& v) { return !v.is_null() && v.AsBool(); }

bool IsAggregateName(std::string_view name) {
  return EqualsIgnoreCase(name, "sum") || EqualsIgnoreCase(name, "count") ||
         EqualsIgnoreCase(name, "avg") || EqualsIgnoreCase(name, "min") ||
         EqualsIgnoreCase(name, "max");
}

bool ContainsAggregate(const sql::Expr& expr) {
  bool found = false;
  sql::VisitExpr(expr, [&](const sql::Expr& e) {
    if (e.kind == sql::ExprKind::kFunction && IsAggregateName(e.text)) found = true;
  });
  return found;
}

namespace {

/// SQL comparison: NULL if either side is NULL, else Bool.
Value CompareValues(const Value& lhs, const Value& rhs, const std::string& op) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null_();
  int c = lhs.Compare(rhs);
  if (op == "=" || op == "==") return Value::Bool(c == 0);
  if (op == "!=" || op == "<>") return Value::Bool(c != 0);
  if (op == "<") return Value::Bool(c < 0);
  if (op == ">") return Value::Bool(c > 0);
  if (op == "<=") return Value::Bool(c <= 0);
  if (op == ">=") return Value::Bool(c >= 0);
  return Value::Null_();
}

Value Arithmetic(const Value& lhs, const Value& rhs, char op) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null_();
  bool int_math = lhs.is_int() && rhs.is_int();
  switch (op) {
    case '+':
      return int_math ? Value::Int(lhs.AsInt() + rhs.AsInt())
                      : Value::Real(lhs.AsReal() + rhs.AsReal());
    case '-':
      return int_math ? Value::Int(lhs.AsInt() - rhs.AsInt())
                      : Value::Real(lhs.AsReal() - rhs.AsReal());
    case '*':
      return int_math ? Value::Int(lhs.AsInt() * rhs.AsInt())
                      : Value::Real(lhs.AsReal() * rhs.AsReal());
    case '/':
      if (int_math) {
        return rhs.AsInt() == 0 ? Value::Null_() : Value::Int(lhs.AsInt() / rhs.AsInt());
      }
      return rhs.AsReal() == 0.0 ? Value::Null_() : Value::Real(lhs.AsReal() / rhs.AsReal());
    case '%':
      if (lhs.is_int() && rhs.is_int() && rhs.AsInt() != 0) {
        return Value::Int(lhs.AsInt() % rhs.AsInt());
      }
      return Value::Null_();
    default:
      return Value::Null_();
  }
}

std::string ToStringValue(const Value& v) { return v.is_string() ? v.AsString() : v.ToDisplay(); }

Result<Value> EvalFunction(const sql::Expr& expr, const EvalScope& scope);

Result<Value> EvalImpl(const sql::Expr& expr, const EvalScope& scope) {
  using sql::ExprKind;
  switch (expr.kind) {
    case ExprKind::kNullLiteral:
    case ExprKind::kBoolLiteral:
    case ExprKind::kNumberLiteral:
    case ExprKind::kStringLiteral:
      return LiteralValue(expr);
    case ExprKind::kParam:
      return Result<Value>::Error("unbound parameter: " + std::string(expr.text));
    case ExprKind::kColumnRef:
      return scope.ResolveColumn(expr.name_parts);
    case ExprKind::kStar:
      return Result<Value>::Error("* is not a scalar expression");
    case ExprKind::kUnary: {
      auto v = EvalImpl(*expr.children[0], scope);
      if (!v.ok()) return v;
      if (EqualsIgnoreCase(expr.text, "not")) {
        if (v->is_null()) return Value::Null_();
        return Value::Bool(!v->AsBool());
      }
      if (expr.text == "-") {
        if (v->is_null()) return Value::Null_();
        return v->is_int() ? Value::Int(-v->AsInt()) : Value::Real(-v->AsReal());
      }
      return Result<Value>::Error("unknown unary operator: " + std::string(expr.text));
    }
    case ExprKind::kBinary: {
      std::string_view op = expr.text;
      if (op == "AND" || op == "OR") {
        auto lhs = EvalImpl(*expr.children[0], scope);
        if (!lhs.ok()) return lhs;
        // Short-circuit with three-valued logic.
        if (op == "AND") {
          if (!lhs->is_null() && !lhs->AsBool()) return Value::Bool(false);
          auto rhs = EvalImpl(*expr.children[1], scope);
          if (!rhs.ok()) return rhs;
          if (!rhs->is_null() && !rhs->AsBool()) return Value::Bool(false);
          if (lhs->is_null() || rhs->is_null()) return Value::Null_();
          return Value::Bool(true);
        }
        if (!lhs->is_null() && lhs->AsBool()) return Value::Bool(true);
        auto rhs = EvalImpl(*expr.children[1], scope);
        if (!rhs.ok()) return rhs;
        if (!rhs->is_null() && rhs->AsBool()) return Value::Bool(true);
        if (lhs->is_null() || rhs->is_null()) return Value::Null_();
        return Value::Bool(false);
      }
      auto lhs = EvalImpl(*expr.children[0], scope);
      if (!lhs.ok()) return lhs;
      auto rhs = EvalImpl(*expr.children[1], scope);
      if (!rhs.ok()) return rhs;
      if (op == "||") {
        // SQL concatenation: NULL poisons the result — the very behaviour
        // the Concatenate NULLs AP warns about.
        if (lhs->is_null() || rhs->is_null()) return Value::Null_();
        return Value::Str(ToStringValue(*lhs) + ToStringValue(*rhs));
      }
      if (op == "+" || op == "-" || op == "*" || op == "/" || op == "%") {
        return Arithmetic(*lhs, *rhs, op[0]);
      }
      if (op == "IS") return Value::Bool(lhs->Compare(*rhs) == 0);
      if (op == "IS NOT") return Value::Bool(lhs->Compare(*rhs) != 0);
      if (op == "~" || op == "~*") {
        if (lhs->is_null() || rhs->is_null()) return Value::Null_();
        return Value::Bool(SimpleRegexMatch(ToStringValue(*lhs), ToStringValue(*rhs)));
      }
      if (op == "!~" || op == "!~*") {
        if (lhs->is_null() || rhs->is_null()) return Value::Null_();
        return Value::Bool(!SimpleRegexMatch(ToStringValue(*lhs), ToStringValue(*rhs)));
      }
      return CompareValues(*lhs, *rhs, std::string(op));
    }
    case ExprKind::kLike: {
      auto text = EvalImpl(*expr.children[0], scope);
      if (!text.ok()) return text;
      auto pattern = EvalImpl(*expr.children[1], scope);
      if (!pattern.ok()) return pattern;
      if (text->is_null() || pattern->is_null()) return Value::Null_();
      bool matched;
      if (EqualsIgnoreCase(expr.text, "regexp") || EqualsIgnoreCase(expr.text, "rlike") ||
          EqualsIgnoreCase(expr.text, "similar to")) {
        matched = SimpleRegexMatch(ToStringValue(*text), ToStringValue(*pattern));
      } else {
        matched = SqlPatternMatch(ToStringValue(*text), ToStringValue(*pattern),
                                  EqualsIgnoreCase(expr.text, "ilike"));
      }
      return Value::Bool(expr.negated ? !matched : matched);
    }
    case ExprKind::kIsNull: {
      auto v = EvalImpl(*expr.children[0], scope);
      if (!v.ok()) return v;
      return Value::Bool(expr.negated ? !v->is_null() : v->is_null());
    }
    case ExprKind::kIn: {
      auto needle = EvalImpl(*expr.children[0], scope);
      if (!needle.ok()) return needle;
      if (needle->is_null()) return Value::Null_();
      if (expr.subquery != nullptr) {
        return Result<Value>::Error("IN subquery must be handled by the executor");
      }
      bool saw_null = false;
      for (size_t i = 1; i < expr.children.size(); ++i) {
        auto candidate = EvalImpl(*expr.children[i], scope);
        if (!candidate.ok()) return candidate;
        if (candidate->is_null()) {
          saw_null = true;
          continue;
        }
        if (needle->Compare(*candidate) == 0) return Value::Bool(!expr.negated);
      }
      if (saw_null) return Value::Null_();
      return Value::Bool(expr.negated);
    }
    case ExprKind::kBetween: {
      auto v = EvalImpl(*expr.children[0], scope);
      if (!v.ok()) return v;
      auto lo = EvalImpl(*expr.children[1], scope);
      if (!lo.ok()) return lo;
      auto hi = EvalImpl(*expr.children[2], scope);
      if (!hi.ok()) return hi;
      if (v->is_null() || lo->is_null() || hi->is_null()) return Value::Null_();
      bool in_range = v->Compare(*lo) >= 0 && v->Compare(*hi) <= 0;
      return Value::Bool(expr.negated ? !in_range : in_range);
    }
    case ExprKind::kFunction:
      return EvalFunction(expr, scope);
    case ExprKind::kCase: {
      size_t i = 0;
      Value operand;
      bool has_operand = expr.text == "operand";
      if (has_operand) {
        auto v = EvalImpl(*expr.children[i++], scope);
        if (!v.ok()) return v;
        operand = *v;
      }
      bool has_else = expr.negated;
      size_t pair_end = expr.children.size() - (has_else ? 1 : 0);
      for (; i + 2 <= pair_end; i += 2) {
        auto when = EvalImpl(*expr.children[i], scope);
        if (!when.ok()) return when;
        bool hit;
        if (has_operand) {
          hit = !when->is_null() && operand.Compare(*when) == 0;
        } else {
          hit = IsTrue(*when);
        }
        if (hit) return EvalImpl(*expr.children[i + 1], scope);
      }
      if (has_else) return EvalImpl(*expr.children.back(), scope);
      return Value::Null_();
    }
    case ExprKind::kExists:
    case ExprKind::kSubquery:
      return Result<Value>::Error("subquery must be handled by the executor");
    case ExprKind::kCast: {
      auto v = EvalImpl(*expr.children[0], scope);
      if (!v.ok()) return v;
      if (v->is_null()) return Value::Null_();
      std::string target = ToLower(expr.text);
      if (target.find("int") != std::string::npos || target.find("serial") != std::string::npos) {
        if (v->is_string()) return Value::Int(std::strtoll(v->AsString().c_str(), nullptr, 10));
        return Value::Int(v->AsInt());
      }
      if (target.find("float") != std::string::npos || target.find("real") != std::string::npos ||
          target.find("double") != std::string::npos ||
          target.find("numeric") != std::string::npos ||
          target.find("decimal") != std::string::npos) {
        if (v->is_string()) return Value::Real(std::strtod(v->AsString().c_str(), nullptr));
        return Value::Real(v->AsReal());
      }
      if (target.find("bool") != std::string::npos) return Value::Bool(v->AsBool());
      return Value::Str(ToStringValue(*v));
    }
    case ExprKind::kRaw:
      return Result<Value>::Error("cannot evaluate raw token run");
  }
  return Result<Value>::Error("unhandled expression kind");
}

Result<Value> EvalFunction(const sql::Expr& expr, const EvalScope& scope) {
  std::string name = ToLower(expr.text);
  if (IsAggregateName(name)) {
    if (scope.aggregates != nullptr) {
      auto it = scope.aggregates->find(sql::PrintExpr(expr));
      if (it != scope.aggregates->end()) return it->second;
    }
    return Result<Value>::Error("aggregate outside aggregation context: " + std::string(expr.text));
  }

  // COALESCE short-circuits, so evaluate args lazily.
  if (name == "coalesce" || name == "ifnull" || name == "nvl") {
    for (const auto& arg : expr.children) {
      auto v = EvalImpl(*arg, scope);
      if (!v.ok()) return v;
      if (!v->is_null()) return v;
    }
    return Value::Null_();
  }
  if (name == "rand" || name == "random") {
    if (scope.rng == nullptr) return Result<Value>::Error("RAND() needs an executor RNG");
    return Value::Real(scope.rng->NextDouble());
  }
  if (name == "now" || name == "current_timestamp") {
    // Deterministic clock: reproducible experiments beat wall-clock realism.
    return Value::Str("2020-06-14 00:00:00");
  }

  std::vector<Value> args;
  args.reserve(expr.children.size());
  for (const auto& arg : expr.children) {
    auto v = EvalImpl(*arg, scope);
    if (!v.ok()) return v;
    args.push_back(std::move(*v));
  }

  auto require = [&](size_t n) { return args.size() >= n; };
  if (name == "upper" || name == "ucase") {
    if (!require(1)) return Result<Value>::Error("UPPER needs 1 arg");
    if (args[0].is_null()) return Value::Null_();
    return Value::Str(ToUpper(ToStringValue(args[0])));
  }
  if (name == "lower" || name == "lcase") {
    if (!require(1)) return Result<Value>::Error("LOWER needs 1 arg");
    if (args[0].is_null()) return Value::Null_();
    return Value::Str(ToLower(ToStringValue(args[0])));
  }
  if (name == "length" || name == "len" || name == "char_length") {
    if (!require(1)) return Result<Value>::Error("LENGTH needs 1 arg");
    if (args[0].is_null()) return Value::Null_();
    return Value::Int(static_cast<int64_t>(ToStringValue(args[0]).size()));
  }
  if (name == "abs") {
    if (!require(1)) return Result<Value>::Error("ABS needs 1 arg");
    if (args[0].is_null()) return Value::Null_();
    return args[0].is_int() ? Value::Int(std::llabs(args[0].AsInt()))
                            : Value::Real(std::fabs(args[0].AsReal()));
  }
  if (name == "round") {
    if (!require(1)) return Result<Value>::Error("ROUND needs 1 arg");
    if (args[0].is_null()) return Value::Null_();
    double scale = args.size() > 1 ? std::pow(10.0, args[1].AsReal()) : 1.0;
    return Value::Real(std::round(args[0].AsReal() * scale) / scale);
  }
  if (name == "concat") {
    // MySQL CONCAT: NULL in, NULL out (same trap as ||).
    std::string out;
    for (const Value& v : args) {
      if (v.is_null()) return Value::Null_();
      out += ToStringValue(v);
    }
    return Value::Str(out);
  }
  if (name == "concat_ws") {
    if (args.empty() || args[0].is_null()) return Value::Null_();
    std::string sep = ToStringValue(args[0]);
    std::string out;
    bool first = true;
    for (size_t i = 1; i < args.size(); ++i) {
      if (args[i].is_null()) continue;  // CONCAT_WS skips NULLs
      if (!first) out += sep;
      out += ToStringValue(args[i]);
      first = false;
    }
    return Value::Str(out);
  }
  if (name == "replace") {
    if (!require(3)) return Result<Value>::Error("REPLACE needs 3 args");
    if (args[0].is_null() || args[1].is_null() || args[2].is_null()) return Value::Null_();
    std::string s = ToStringValue(args[0]);
    const std::string from = ToStringValue(args[1]);
    const std::string to = ToStringValue(args[2]);
    if (from.empty()) return Value::Str(s);
    std::string out;
    size_t pos = 0;
    while (true) {
      size_t hit = s.find(from, pos);
      if (hit == std::string::npos) {
        out += s.substr(pos);
        break;
      }
      out += s.substr(pos, hit - pos);
      out += to;
      pos = hit + from.size();
    }
    return Value::Str(out);
  }
  if (name == "substr" || name == "substring") {
    if (!require(2)) return Result<Value>::Error("SUBSTR needs 2+ args");
    if (args[0].is_null() || args[1].is_null()) return Value::Null_();
    std::string s = ToStringValue(args[0]);
    int64_t start = args[1].AsInt();  // 1-based per SQL
    if (start < 1) start = 1;
    size_t begin = static_cast<size_t>(start - 1);
    if (begin >= s.size()) return Value::Str("");
    size_t count = args.size() > 2 && !args[2].is_null()
                       ? static_cast<size_t>(std::max<int64_t>(0, args[2].AsInt()))
                       : std::string::npos;
    return Value::Str(s.substr(begin, count));
  }
  if (name == "trim") {
    if (!require(1)) return Result<Value>::Error("TRIM needs 1 arg");
    if (args[0].is_null()) return Value::Null_();
    return Value::Str(std::string(Trim(ToStringValue(args[0]))));
  }
  if (name == "nullif") {
    if (!require(2)) return Result<Value>::Error("NULLIF needs 2 args");
    if (!args[0].is_null() && !args[1].is_null() && args[0].Compare(args[1]) == 0) {
      return Value::Null_();
    }
    return args[0];
  }
  if (name == "reverse") {
    // Byte-wise, matching the rewriter's ReversibleTail guard (it refuses
    // multi-byte tails precisely because engines reverse bytes, not glyphs).
    if (!require(1)) return Result<Value>::Error("REVERSE needs 1 arg");
    if (args[0].is_null()) return Value::Null_();
    std::string s = ToStringValue(args[0]);
    std::reverse(s.begin(), s.end());
    return Value::Str(s);
  }
  if (name == "floor") {
    if (!require(1)) return Result<Value>::Error("FLOOR needs 1 arg");
    if (args[0].is_null()) return Value::Null_();
    if (args[0].is_int()) return args[0];
    return Value::Int(static_cast<int64_t>(std::floor(args[0].AsReal())));
  }
  if (name == "ceil" || name == "ceiling") {
    if (!require(1)) return Result<Value>::Error("CEIL needs 1 arg");
    if (args[0].is_null()) return Value::Null_();
    if (args[0].is_int()) return args[0];
    return Value::Int(static_cast<int64_t>(std::ceil(args[0].AsReal())));
  }
  return Result<Value>::Error("unknown function: " + std::string(expr.text));
}

}  // namespace

Result<Value> Eval(const sql::Expr& expr, const EvalScope& scope) {
  return EvalImpl(expr, scope);
}

}  // namespace sqlcheck
