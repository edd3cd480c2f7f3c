#include "sql/printer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sql/parser.h"

namespace sqlcheck::sql {
namespace {

/// The first select item of `SELECT <text>`, printed.
std::string PrintedItem(const std::string& text) {
  StatementPtr stmt = ParseStatement("SELECT " + text);
  const auto* select = stmt->As<SelectStatement>();
  if (select == nullptr || select->items.empty()) return "<unparsed: " + text + ">";
  return PrintExpr(*select->items[0].expr);
}

TEST(PrinterTest, SimpleStatements) {
  StatementPtr select = ParseStatement("select a from t");
  EXPECT_EQ(PrintExpr(*select->As<SelectStatement>()->items[0].expr), "a");
  StatementPtr del = ParseStatement("delete from t where x = 1");
  EXPECT_EQ(PrintExpr(*del->As<DeleteStatement>()->where), "(x = 1)");
}

TEST(PrinterTest, QuotingInLiteralsAndIdentifiers) {
  EXPECT_EQ(PrintedItem("'it''s'"), "'it''s'");
  EXPECT_EQ(PrintedItem("\"weird col\""), "\"weird col\"");
  EXPECT_EQ(QuoteString("it's"), "'it''s'");
  EXPECT_EQ(PrintName("weird col"), "\"weird col\"");
  EXPECT_EQ(PrintName("plain_1"), "plain_1");
}

/// Every expression of `stmt`, subqueries included, in parse order.
void CollectExprs(const Expr& e, std::vector<const Expr*>* out);

void CollectSelect(const SelectStatement& s, std::vector<const Expr*>* out) {
  for (const auto& item : s.items) CollectExprs(*item.expr, out);
  for (const auto& f : s.from) {
    if (f.subquery) CollectSelect(*f.subquery, out);
  }
  for (const auto& j : s.joins) {
    if (j.table.subquery) CollectSelect(*j.table.subquery, out);
    if (j.on) CollectExprs(*j.on, out);
  }
  if (s.where) CollectExprs(*s.where, out);
  for (const auto& g : s.group_by) CollectExprs(*g, out);
  if (s.having) CollectExprs(*s.having, out);
  for (const auto& o : s.order_by) CollectExprs(*o.expr, out);
}

void CollectExprs(const Expr& e, std::vector<const Expr*>* out) {
  out->push_back(&e);
  for (const auto& child : e.children) CollectExprs(*child, out);
  if (e.subquery) CollectSelect(*e.subquery, out);
}

void CollectColumn(const ColumnDefAst& col, std::vector<const Expr*>* out) {
  if (col.default_value) CollectExprs(*col.default_value, out);
  if (col.check) CollectExprs(*col.check, out);
}

std::vector<const Expr*> StatementExprs(const Statement& stmt) {
  std::vector<const Expr*> out;
  if (const auto* s = stmt.As<SelectStatement>()) CollectSelect(*s, &out);
  if (const auto* s = stmt.As<InsertStatement>()) {
    for (const auto& row : s->rows) {
      for (const auto& e : row) CollectExprs(*e, &out);
    }
    if (s->select) CollectSelect(*s->select, &out);
  }
  if (const auto* s = stmt.As<UpdateStatement>()) {
    for (const auto& [column, value] : s->assignments) CollectExprs(*value, &out);
    if (s->where) CollectExprs(*s->where, &out);
  }
  if (const auto* s = stmt.As<DeleteStatement>()) {
    if (s->where) CollectExprs(*s->where, &out);
  }
  if (const auto* s = stmt.As<CreateTableStatement>()) {
    for (const auto& col : s->columns) CollectColumn(col, &out);
    for (const auto& c : s->constraints) {
      if (c.check) CollectExprs(*c.check, &out);
    }
  }
  if (const auto* s = stmt.As<AlterTableStatement>()) {
    CollectColumn(s->column, &out);
    if (s->constraint.check) CollectExprs(*s->constraint.check, &out);
  }
  return out;
}

// Property, for every expression of each statement: the source text its
// span covers parses back to the same printed expression (fixes edit
// these spans), and printing, re-parsing and printing again is stable.
class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, PrintParsePrintIsStable) {
  StatementPtr stmt = ParseStatement(GetParam());
  ASSERT_NE(stmt->kind, StatementKind::kUnknown) << GetParam();
  const std::string_view raw = stmt->raw_sql;
  for (const Expr* e : StatementExprs(*stmt)) {
    const std::string once = PrintExpr(*e);
    ASSERT_LE(e->begin, e->end);
    ASSERT_LE(e->end, raw.size());
    const std::string span(raw.substr(e->begin, e->end - e->begin));
    EXPECT_EQ(PrintedItem(span), once) << "span '" << span << "' of " << GetParam();
    EXPECT_EQ(PrintedItem(once), once) << "unstable print in " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Statements, RoundTripTest,
    ::testing::Values(
        "SELECT a, b FROM t",
        "SELECT * FROM t",
        "SELECT t.* FROM t",
        "SELECT DISTINCT a FROM t WHERE b > 3",
        "SELECT a AS x FROM t AS u",
        "SELECT a FROM t WHERE a IN (1, 2, 3)",
        "SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND b IS NOT NULL",
        "SELECT a FROM t WHERE name LIKE '%x%' ESCAPE '!'",
        "SELECT a FROM t WHERE NOT (a = 1 OR b = 2)",
        "SELECT COUNT(*), COUNT(DISTINCT a), SUM(b + 1) FROM t GROUP BY c HAVING "
        "COUNT(*) > 2",
        "SELECT a FROM t ORDER BY a DESC, b LIMIT 10 OFFSET 5",
        "SELECT a FROM t1 JOIN t2 ON t1.id = t2.id LEFT JOIN t3 ON t2.id = t3.id",
        "SELECT a FROM t1 CROSS JOIN t2",
        "SELECT a FROM (SELECT a FROM u) AS sub",
        "SELECT CASE WHEN a > 1 THEN 'x' ELSE 'y' END FROM t",
        "SELECT CAST(a AS INTEGER) FROM t",
        "SELECT a || '-' || b FROM t",
        "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.id)",
        "SELECT (a + 1)::TEXT, - (b), ((c)) FROM t WHERE ((a) OR b) AND NOT c LIKE 'x'",
        "SELECT a FROM t WHERE id IN (SELECT id FROM u)",
        "SELECT a FROM t ORDER BY RAND()",
        "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
        "INSERT INTO t VALUES (1, NULL, TRUE)",
        "INSERT INTO t (a) SELECT a FROM u WHERE a > 0",
        "UPDATE t SET a = a + 1, b = 'x' WHERE id = 3",
        "DELETE FROM t",
        "CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR(30) NOT NULL, "
        "score FLOAT DEFAULT 0)",
        "CREATE TABLE t (a INTEGER, b INTEGER, PRIMARY KEY (a, b), "
        "FOREIGN KEY (a) REFERENCES u (x) ON DELETE CASCADE)",
        "CREATE TABLE t (role ENUM('a', 'b') NOT NULL)",
        "CREATE TABLE t (v VARCHAR(10) CHECK (v IN ('x', 'y')))",
        "CREATE UNIQUE INDEX idx ON t (a, b)",
        "ALTER TABLE t ADD COLUMN c INTEGER",
        "ALTER TABLE t DROP COLUMN c",
        "ALTER TABLE t ADD CONSTRAINT chk CHECK (a > 0)",
        "ALTER TABLE t DROP CONSTRAINT IF EXISTS chk",
        "ALTER TABLE t ALTER COLUMN a TYPE NUMERIC(10, 2)",
        "DROP TABLE IF EXISTS t",
        "DROP INDEX idx"));

// Property: expression printing respects structure (parenthesization keeps
// the parsed precedence).
class ExprPrecedenceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ExprPrecedenceTest, ReparseKeepsStructure) {
  std::string q = std::string("SELECT ") + GetParam() + " FROM t";
  StatementPtr first = ParseStatement(q);
  auto* s1 = first->As<SelectStatement>();
  ASSERT_NE(s1, nullptr);
  std::string printed = PrintExpr(*s1->items[0].expr);
  StatementPtr second = ParseStatement("SELECT " + printed + " FROM t");
  auto* s2 = second->As<SelectStatement>();
  ASSERT_NE(s2, nullptr) << printed;
  EXPECT_EQ(PrintExpr(*s2->items[0].expr), printed);
}

INSTANTIATE_TEST_SUITE_P(Expressions, ExprPrecedenceTest,
                         ::testing::Values("1 + 2 * 3", "(1 + 2) * 3", "a AND b OR c",
                                           "a AND (b OR c)", "NOT a = b",
                                           "a - b - c", "a / b / c",
                                           "x || y || z", "-a + b"));

}  // namespace
}  // namespace sqlcheck::sql
