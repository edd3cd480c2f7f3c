#include "catalog/value.h"

#include <cstdlib>
#include <functional>

#include "sql/ast.h"

namespace sqlcheck {

int64_t Value::AsInt() const {
  if (is_int()) return std::get<int64_t>(data_);
  if (is_real()) return static_cast<int64_t>(std::get<double>(data_));
  if (is_bool()) return std::get<bool>(data_) ? 1 : 0;
  return 0;
}

double Value::AsReal() const {
  if (is_real()) return std::get<double>(data_);
  if (is_int()) return static_cast<double>(std::get<int64_t>(data_));
  if (is_bool()) return std::get<bool>(data_) ? 1.0 : 0.0;
  return 0.0;
}

bool Value::AsBool() const {
  if (is_bool()) return std::get<bool>(data_);
  if (is_int()) return std::get<int64_t>(data_) != 0;
  if (is_real()) return std::get<double>(data_) != 0.0;
  return false;
}

const std::string& Value::AsString() const {
  static const std::string kEmpty;
  if (is_string()) return std::get<std::string>(data_);
  return kEmpty;
}

std::string Value::ToDisplay() const {
  if (is_null()) return "NULL";
  if (is_bool()) return AsBool() ? "true" : "false";
  if (is_int()) return std::to_string(AsInt());
  if (is_real()) {
    std::string s = std::to_string(AsReal());
    // Trim trailing zeros but keep one decimal.
    size_t dot = s.find('.');
    if (dot != std::string::npos) {
      size_t last = s.find_last_not_of('0');
      s.erase(last == dot ? dot + 2 : last + 1);
    }
    return s;
  }
  return AsString();
}

namespace {
int TypeRank(const Value& v) {
  if (v.is_null()) return 0;
  if (v.is_bool()) return 1;
  if (v.is_numeric()) return 2;
  return 3;  // string
}
}  // namespace

int Value::Compare(const Value& other) const {
  int lr = TypeRank(*this);
  int rr = TypeRank(other);
  if (lr != rr) return lr < rr ? -1 : 1;
  switch (lr) {
    case 0:
      return 0;
    case 1:
      return AsBool() == other.AsBool() ? 0 : (!AsBool() ? -1 : 1);
    case 2: {
      // Mixed int/real compares numerically; int/int stays exact.
      if (is_int() && other.is_int()) {
        int64_t a = AsInt();
        int64_t b = other.AsInt();
        return a == b ? 0 : (a < b ? -1 : 1);
      }
      double a = AsReal();
      double b = other.AsReal();
      return a == b ? 0 : (a < b ? -1 : 1);
    }
    default: {
      int c = AsString().compare(other.AsString());
      return c == 0 ? 0 : (c < 0 ? -1 : 1);
    }
  }
}

size_t Value::Hash() const {
  if (is_null()) return 0x9e3779b9;
  if (is_bool()) return AsBool() ? 0x51ed2701 : 0x2127599b;
  if (is_int()) return std::hash<int64_t>{}(AsInt());
  if (is_real()) {
    double d = AsReal();
    // Hash integral doubles like the equivalent int so 1 and 1.0 collide
    // (they also Compare() equal).
    if (d == static_cast<double>(static_cast<int64_t>(d))) {
      return std::hash<int64_t>{}(static_cast<int64_t>(d));
    }
    return std::hash<double>{}(d);
  }
  return std::hash<std::string>{}(AsString());
}

bool IsLiteral(const sql::Expr& expr) {
  switch (expr.kind) {
    case sql::ExprKind::kNullLiteral:
    case sql::ExprKind::kBoolLiteral:
    case sql::ExprKind::kNumberLiteral:
    case sql::ExprKind::kStringLiteral:
      return true;
    default:
      return false;
  }
}

Value LiteralValue(const sql::Expr& expr) {
  switch (expr.kind) {
    case sql::ExprKind::kBoolLiteral:  // The parser lowercases TRUE/FALSE.
      return Value::Bool(expr.text == "true");
    case sql::ExprKind::kNumberLiteral: {
      std::string text(expr.text);
      if (text.find_first_of(".eE") != std::string::npos) {
        return Value::Real(std::strtod(text.c_str(), nullptr));
      }
      return Value::Int(std::strtoll(text.c_str(), nullptr, 10));
    }
    case sql::ExprKind::kStringLiteral:
      return Value::Str(std::string(expr.text));
    default:
      return Value::Null_();
  }
}

bool CompositeKey::operator==(const CompositeKey& other) const {
  if (values.size() != other.values.size()) return false;
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].Compare(other.values[i]) != 0) return false;
  }
  return true;
}

bool CompositeKey::operator<(const CompositeKey& other) const {
  size_t n = std::min(values.size(), other.values.size());
  for (size_t i = 0; i < n; ++i) {
    int c = values[i].Compare(other.values[i]);
    if (c != 0) return c < 0;
  }
  return values.size() < other.values.size();
}

size_t CompositeKeyHash::operator()(const CompositeKey& key) const {
  size_t h = 0x811c9dc5;
  for (const Value& v : key.values) {
    h ^= v.Hash() + 0x9e3779b9 + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace sqlcheck
