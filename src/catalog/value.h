#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace sqlcheck {

namespace sql {
struct Expr;
}  // namespace sql

/// \brief Runtime value held in a table cell or produced by evaluation.
///
/// SQL three-valued-logic NULL handling lives in the evaluator; Value itself
/// only records *that* a cell is null.
class Value {
 public:
  Value() : data_(Null{}) {}

  static Value Null_() { return Value(); }
  static Value Int(int64_t v) { return Value(Data(v)); }
  static Value Real(double v) { return Value(Data(v)); }
  static Value Str(std::string v) { return Value(Data(std::move(v))); }
  static Value Bool(bool v) { return Value(Data(v)); }

  bool is_null() const { return std::holds_alternative<Null>(data_); }
  bool is_int() const { return std::holds_alternative<int64_t>(data_); }
  bool is_real() const { return std::holds_alternative<double>(data_); }
  bool is_string() const { return std::holds_alternative<std::string>(data_); }
  bool is_bool() const { return std::holds_alternative<bool>(data_); }
  bool is_numeric() const { return is_int() || is_real(); }

  int64_t AsInt() const;
  double AsReal() const;       ///< Int promotes to double.
  bool AsBool() const;
  const std::string& AsString() const;

  /// Display form ("NULL", "42", "3.14", "abc", "true").
  std::string ToDisplay() const;

  /// Total order used by indexes and ORDER BY: NULL < bool < numeric < string.
  /// (SQL NULL comparison semantics are applied above this layer.)
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  size_t Hash() const;

 private:
  struct Null {
    bool operator==(const Null&) const { return true; }
  };
  using Data = std::variant<Null, int64_t, double, std::string, bool>;
  explicit Value(Data data) : data_(std::move(data)) {}

  Data data_;
};

/// True for a NULL, boolean, number or string literal expression.
bool IsLiteral(const sql::Expr& expr);

/// The value a literal expression denotes; NULL for any other expression.
/// A number with '.', 'e' or 'E' is real, any other an integer.
Value LiteralValue(const sql::Expr& expr);

/// \brief A physical row.
using Row = std::vector<Value>;

/// \brief Composite key (one or more column values) for index lookups.
struct CompositeKey {
  std::vector<Value> values;

  bool operator==(const CompositeKey& other) const;
  bool operator<(const CompositeKey& other) const;
};

struct CompositeKeyHash {
  size_t operator()(const CompositeKey& key) const;
};

}  // namespace sqlcheck
