#include "sql/parser.h"

#include <gtest/gtest.h>

#include "sql/printer.h"

namespace sqlcheck::sql {
namespace {

template <typename T>
const T& ParseAs(std::string_view text) {
  static StatementPtr holder;  // keeps the statement alive for the returned ref
  holder = ParseStatement(text);
  const T* typed = holder->As<T>();
  EXPECT_NE(typed, nullptr) << "parsed as " << StatementKindName(holder->kind) << ": " << text;
  return *typed;
}

TEST(ParserSelectTest, SimpleSelect) {
  const auto& s = ParseAs<SelectStatement>("SELECT a, b FROM t");
  ASSERT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[0].expr->ColumnName(), "a");
  ASSERT_EQ(s.from.size(), 1u);
  EXPECT_EQ(s.from[0].name, "t");
}

TEST(ParserSelectTest, SelectStarAndQualifiedStar) {
  const auto& s = ParseAs<SelectStatement>("SELECT *, t.* FROM t");
  ASSERT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[0].expr->kind, ExprKind::kStar);
  EXPECT_EQ(s.items[1].expr->kind, ExprKind::kStar);
  ASSERT_EQ(s.items[1].expr->name_parts.size(), 1u);
  EXPECT_EQ(s.items[1].expr->name_parts[0], "t");
}

TEST(ParserSelectTest, DistinctFlag) {
  EXPECT_TRUE(ParseAs<SelectStatement>("SELECT DISTINCT a FROM t").distinct);
  EXPECT_FALSE(ParseAs<SelectStatement>("SELECT a FROM t").distinct);
}

TEST(ParserSelectTest, AliasWithAndWithoutAs) {
  const auto& s = ParseAs<SelectStatement>("SELECT a AS x, b y FROM t AS u");
  EXPECT_EQ(s.items[0].alias, "x");
  EXPECT_EQ(s.items[1].alias, "y");
  EXPECT_EQ(s.from[0].alias, "u");
}

TEST(ParserSelectTest, JoinVariants) {
  const auto& s = ParseAs<SelectStatement>(
      "SELECT * FROM a JOIN b ON a.id = b.id LEFT JOIN c ON b.id = c.id "
      "CROSS JOIN d");
  ASSERT_EQ(s.joins.size(), 3u);
  EXPECT_EQ(s.joins[0].type, JoinType::kInner);
  EXPECT_EQ(s.joins[1].type, JoinType::kLeft);
  EXPECT_EQ(s.joins[2].type, JoinType::kCross);
  EXPECT_EQ(s.JoinCount(), 3);
}

TEST(ParserSelectTest, JoinUsing) {
  const auto& s = ParseAs<SelectStatement>("SELECT * FROM a JOIN b USING (id, ts)");
  ASSERT_EQ(s.joins.size(), 1u);
  EXPECT_EQ(sql::ToStringVector(s.joins[0].using_columns),
            (std::vector<std::string>{"id", "ts"}));
}

TEST(ParserSelectTest, CommaJoinCountsAsImplicitJoin) {
  const auto& s = ParseAs<SelectStatement>("SELECT * FROM a, b, c");
  EXPECT_EQ(s.from.size(), 3u);
  EXPECT_EQ(s.JoinCount(), 2);
}

TEST(ParserSelectTest, WhereGroupHavingOrderLimitOffset) {
  const auto& s = ParseAs<SelectStatement>(
      "SELECT dept, COUNT(*) FROM emp WHERE salary > 10 GROUP BY dept "
      "HAVING COUNT(*) > 2 ORDER BY dept DESC LIMIT 5 OFFSET 3");
  EXPECT_NE(s.where, nullptr);
  ASSERT_EQ(s.group_by.size(), 1u);
  EXPECT_NE(s.having, nullptr);
  ASSERT_EQ(s.order_by.size(), 1u);
  EXPECT_TRUE(s.order_by[0].descending);
  EXPECT_EQ(s.limit, 5);
  EXPECT_EQ(s.offset, 3);
}

TEST(ParserSelectTest, MysqlLimitCommaForm) {
  const auto& s = ParseAs<SelectStatement>("SELECT a FROM t LIMIT 10, 20");
  EXPECT_EQ(s.offset, 10);
  EXPECT_EQ(s.limit, 20);
}

TEST(ParserSelectTest, SubqueryInFrom) {
  const auto& s = ParseAs<SelectStatement>("SELECT x FROM (SELECT a AS x FROM t) AS sub");
  ASSERT_EQ(s.from.size(), 1u);
  ASSERT_NE(s.from[0].subquery, nullptr);
  EXPECT_EQ(s.from[0].alias, "sub");
}

TEST(ParserSelectTest, InSubqueryAndExists) {
  const auto& s = ParseAs<SelectStatement>(
      "SELECT * FROM t WHERE id IN (SELECT id FROM u) AND EXISTS (SELECT 1 FROM v)");
  ASSERT_NE(s.where, nullptr);
  EXPECT_EQ(s.where->text, "AND");
}

TEST(ParserSelectTest, LikeVariantsAndNegation) {
  const auto& s = ParseAs<SelectStatement>(
      "SELECT * FROM t WHERE a LIKE '%x%' AND b NOT LIKE 'y' AND c REGEXP '^z'");
  EXPECT_NE(s.where, nullptr);
  // Root is AND; descend to confirm LIKE nodes exist with negation flags.
  int like_count = 0;
  int negated_count = 0;
  VisitExpr(*s.where, [&](const Expr& e) {
    if (e.kind == ExprKind::kLike) {
      ++like_count;
      if (e.negated) ++negated_count;
    }
  });
  EXPECT_EQ(like_count, 3);
  EXPECT_EQ(negated_count, 1);
}

TEST(ParserSelectTest, BetweenAndInList) {
  const auto& s = ParseAs<SelectStatement>(
      "SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1, 2, 3)");
  int between = 0;
  int in_list = 0;
  VisitExpr(*s.where, [&](const Expr& e) {
    if (e.kind == ExprKind::kBetween) ++between;
    if (e.kind == ExprKind::kIn) in_list += static_cast<int>(e.children.size()) - 1;
  });
  EXPECT_EQ(between, 1);
  EXPECT_EQ(in_list, 3);
}

TEST(ParserSelectTest, IsNullAndIsNotNull) {
  const auto& s =
      ParseAs<SelectStatement>("SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL");
  int is_null = 0;
  int negated = 0;
  VisitExpr(*s.where, [&](const Expr& e) {
    if (e.kind == ExprKind::kIsNull) {
      ++is_null;
      if (e.negated) ++negated;
    }
  });
  EXPECT_EQ(is_null, 2);
  EXPECT_EQ(negated, 1);
}

TEST(ParserSelectTest, OperatorPrecedence) {
  const auto& s = ParseAs<SelectStatement>("SELECT 1 + 2 * 3 FROM t");
  const Expr& e = *s.items[0].expr;
  ASSERT_EQ(e.kind, ExprKind::kBinary);
  EXPECT_EQ(e.text, "+");
  EXPECT_EQ(e.children[1]->text, "*");
}

TEST(ParserSelectTest, ConcatOperator) {
  const auto& s = ParseAs<SelectStatement>("SELECT first || ' ' || last FROM people");
  const Expr& e = *s.items[0].expr;
  EXPECT_EQ(e.text, "||");
}

TEST(ParserSelectTest, FunctionCallsWithDistinctArg) {
  const auto& s = ParseAs<SelectStatement>("SELECT COUNT(DISTINCT user_id), SUM(x) FROM t");
  EXPECT_EQ(s.items[0].expr->kind, ExprKind::kFunction);
  EXPECT_TRUE(s.items[0].expr->distinct_arg);
  EXPECT_EQ(s.items[1].expr->text, "SUM");
}

TEST(ParserSelectTest, CaseExpression) {
  const auto& s = ParseAs<SelectStatement>(
      "SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t");
  EXPECT_EQ(s.items[0].expr->kind, ExprKind::kCase);
}

TEST(ParserInsertTest, ImplicitColumns) {
  const auto& s = ParseAs<InsertStatement>("INSERT INTO t VALUES (1, 'a', true)");
  EXPECT_TRUE(s.columns.empty());
  ASSERT_EQ(s.rows.size(), 1u);
  EXPECT_EQ(s.rows[0].size(), 3u);
}

TEST(ParserInsertTest, ExplicitColumnsMultiRow) {
  const auto& s =
      ParseAs<InsertStatement>("INSERT INTO t (a, b) VALUES (1, 2), (3, 4)");
  EXPECT_EQ(sql::ToStringVector(s.columns), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(s.rows.size(), 2u);
}

TEST(ParserInsertTest, InsertSelect) {
  const auto& s = ParseAs<InsertStatement>("INSERT INTO t (a) SELECT x FROM u");
  EXPECT_NE(s.select, nullptr);
}

TEST(ParserUpdateTest, AssignmentsAndWhere) {
  const auto& s =
      ParseAs<UpdateStatement>("UPDATE t SET a = 1, b = b + 1 WHERE id = 5");
  EXPECT_EQ(s.table, "t");
  ASSERT_EQ(s.assignments.size(), 2u);
  EXPECT_EQ(s.assignments[0].first, "a");
  EXPECT_NE(s.where, nullptr);
}

TEST(ParserDeleteTest, DeleteWithWhere) {
  const auto& s = ParseAs<DeleteStatement>("DELETE FROM t WHERE id = 3");
  EXPECT_EQ(s.table, "t");
  EXPECT_NE(s.where, nullptr);
}

TEST(ParserCreateTableTest, ColumnsTypesConstraints) {
  const auto& s = ParseAs<CreateTableStatement>(
      "CREATE TABLE users ("
      "  id INTEGER PRIMARY KEY,"
      "  email VARCHAR(120) NOT NULL UNIQUE,"
      "  score FLOAT DEFAULT 0,"
      "  role VARCHAR(10) REFERENCES roles(role_id) ON DELETE CASCADE,"
      "  bio TEXT,"
      "  CHECK (score >= 0)"
      ")");
  EXPECT_EQ(s.table, "users");
  ASSERT_EQ(s.columns.size(), 5u);
  EXPECT_TRUE(s.columns[0].primary_key);
  EXPECT_TRUE(s.columns[1].not_null);
  EXPECT_TRUE(s.columns[1].unique);
  EXPECT_EQ(std::vector<int64_t>(s.columns[1].type.params.begin(),
                                 s.columns[1].type.params.end()),
            (std::vector<int64_t>{120}));
  EXPECT_NE(s.columns[2].default_value, nullptr);
  ASSERT_TRUE(s.columns[3].references.has_value());
  EXPECT_EQ(s.columns[3].references->table, "roles");
  EXPECT_TRUE(s.columns[3].references->on_delete_cascade);
  ASSERT_EQ(s.constraints.size(), 1u);
  EXPECT_EQ(s.constraints[0].kind, TableConstraintKind::kCheck);
  EXPECT_TRUE(s.HasPrimaryKey());
  EXPECT_TRUE(s.HasForeignKey());
}

TEST(ParserCreateTableTest, CompositePrimaryKeyAndForeignKey) {
  const auto& s = ParseAs<CreateTableStatement>(
      "CREATE TABLE hosting ("
      "  user_id VARCHAR(10),"
      "  tenant_id VARCHAR(10),"
      "  PRIMARY KEY (user_id, tenant_id),"
      "  FOREIGN KEY (user_id) REFERENCES users(user_id)"
      ")");
  ASSERT_EQ(s.constraints.size(), 2u);
  EXPECT_EQ(s.constraints[0].columns.size(), 2u);
  EXPECT_EQ(s.constraints[1].reference.table, "users");
}

TEST(ParserCreateTableTest, EnumType) {
  const auto& s = ParseAs<CreateTableStatement>(
      "CREATE TABLE u (role ENUM('admin', 'user', 'guest'))");
  ASSERT_EQ(s.columns.size(), 1u);
  EXPECT_EQ(sql::ToStringVector(s.columns[0].type.enum_values),
            (std::vector<std::string>{"admin", "user", "guest"}));
}

TEST(ParserCreateTableTest, TimestampWithTimeZone) {
  const auto& s = ParseAs<CreateTableStatement>(
      "CREATE TABLE e (at1 TIMESTAMP WITH TIME ZONE, at2 TIMESTAMP, at3 TIMESTAMPTZ)");
  EXPECT_TRUE(s.columns[0].type.with_time_zone);
  EXPECT_FALSE(s.columns[1].type.with_time_zone);
}

TEST(ParserCreateIndexTest, UniqueAndPlain) {
  const auto& s =
      ParseAs<CreateIndexStatement>("CREATE UNIQUE INDEX idx_u ON t (a, b)");
  EXPECT_TRUE(s.unique);
  EXPECT_EQ(s.index, "idx_u");
  EXPECT_EQ(s.table, "t");
  EXPECT_EQ(sql::ToStringVector(s.columns), (std::vector<std::string>{"a", "b"}));
}

TEST(ParserAlterTest, AddDropColumnAndConstraint) {
  const auto& add = ParseAs<AlterTableStatement>("ALTER TABLE t ADD COLUMN c INTEGER");
  EXPECT_EQ(add.action, AlterAction::kAddColumn);
  EXPECT_EQ(add.column.name, "c");

  const auto& drop = ParseAs<AlterTableStatement>("ALTER TABLE t DROP COLUMN c");
  EXPECT_EQ(drop.action, AlterAction::kDropColumn);

  const auto& add_check = ParseAs<AlterTableStatement>(
      "ALTER TABLE u ADD CONSTRAINT chk CHECK (role IN ('R1', 'R2'))");
  EXPECT_EQ(add_check.action, AlterAction::kAddConstraint);
  EXPECT_EQ(add_check.constraint.kind, TableConstraintKind::kCheck);
  EXPECT_EQ(add_check.constraint.name, "chk");

  const auto& drop_check = ParseAs<AlterTableStatement>(
      "ALTER TABLE u DROP CONSTRAINT IF EXISTS chk");
  EXPECT_EQ(drop_check.action, AlterAction::kDropConstraint);
  EXPECT_TRUE(drop_check.if_exists);
}

TEST(ParserDropTest, DropTableAndIndex) {
  const auto& t = ParseAs<DropTableStatement>("DROP TABLE IF EXISTS t");
  EXPECT_TRUE(t.if_exists);
  const auto& i = ParseAs<DropIndexStatement>("DROP INDEX idx");
  EXPECT_EQ(i.index, "idx");
}

TEST(ParserFallbackTest, GarbageBecomesUnknown) {
  auto stmt = ParseStatement("THIS IS NOT SQL AT ALL ~~~~");
  EXPECT_EQ(stmt->kind, StatementKind::kUnknown);
  EXPECT_FALSE(stmt->As<UnknownStatement>()->tokens.empty());
}

TEST(ParserFallbackTest, CreateViewFallsBackGracefully) {
  auto stmt = ParseStatement("CREATE VIEW v AS SELECT 1");
  EXPECT_EQ(stmt->kind, StatementKind::kUnknown);
}

TEST(ParserFallbackTest, RawSqlIsPreserved) {
  auto stmt = ParseStatement("SELECT a FROM t");
  EXPECT_EQ(stmt->raw_sql, "SELECT a FROM t");
}

TEST(ParserScriptTest, MultiStatementScript) {
  auto stmts = ParseScript("CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t");
  ASSERT_EQ(stmts.size(), 3u);
  EXPECT_EQ(stmts[0]->kind, StatementKind::kCreateTable);
  EXPECT_EQ(stmts[1]->kind, StatementKind::kInsert);
  EXPECT_EQ(stmts[2]->kind, StatementKind::kSelect);
}

TEST(ParserDialectTest, KeywordAsColumnName) {
  const auto& s = ParseAs<SelectStatement>("SELECT key, type FROM config");
  ASSERT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[0].expr->ColumnName(), "key");
  EXPECT_EQ(s.items[1].expr->ColumnName(), "type");
}

TEST(ParserDialectTest, TheGlobaleaksMvaQueryParses) {
  // The motivating query from the paper (§2.1, Task 1).
  const auto& s = ParseAs<SelectStatement>(
      "SELECT * FROM Tenants WHERE User_IDs LIKE '[[:<:]]U1[[:>:]]'");
  EXPECT_NE(s.where, nullptr);
  EXPECT_EQ(s.where->kind, ExprKind::kLike);
}

TEST(ParserDialectTest, ExpressionJoinFromPaperParses) {
  // §2.1 Task 2: join through a LIKE over concatenation.
  const auto& s = ParseAs<SelectStatement>(
      "SELECT * FROM Tenants AS t JOIN Users AS u "
      "ON t.User_IDs LIKE '[[:<:]]' || u.User_ID || '[[:>:]]' "
      "WHERE t.Tenant_ID = 'T1'");
  ASSERT_EQ(s.joins.size(), 1u);
  EXPECT_NE(s.joins[0].on, nullptr);
  EXPECT_EQ(s.joins[0].on->kind, ExprKind::kLike);
}

}  // namespace
}  // namespace sqlcheck::sql
