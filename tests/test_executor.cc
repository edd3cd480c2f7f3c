#include "engine/executor.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/hash.h"

namespace sqlcheck {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : exec_(&db_) {}

  QueryResult Run(std::string_view sql_text) {
    auto r = exec_.ExecuteSql(sql_text);
    EXPECT_TRUE(r.ok()) << r.message() << " for: " << sql_text;
    return r.ok() ? std::move(*r) : QueryResult{};
  }

  Status RunExpectError(std::string_view sql_text) {
    auto r = exec_.ExecuteSql(sql_text);
    EXPECT_FALSE(r.ok()) << "expected failure for: " << sql_text;
    return r.status();
  }

  Database db_;
  Executor exec_;
};

TEST_F(ExecutorTest, CreateInsertSelectRoundTrip) {
  Run("CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR(20))");
  Run("INSERT INTO t (id, name) VALUES (1, 'alice'), (2, 'bob')");
  auto r = Run("SELECT name FROM t ORDER BY id");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "alice");
  EXPECT_EQ(r.rows[1][0].AsString(), "bob");
}

TEST_F(ExecutorTest, SelectStarExpandsColumns) {
  Run("CREATE TABLE t (a INT, b INT, c INT)");
  Run("INSERT INTO t VALUES (1, 2, 3)");
  auto r = Run("SELECT * FROM t");
  EXPECT_EQ(r.columns, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][2].AsInt(), 3);
}

TEST_F(ExecutorTest, WhereFiltersAndComparisons) {
  Run("CREATE TABLE t (x INT)");
  Run("INSERT INTO t VALUES (1), (2), (3), (4), (5)");
  EXPECT_EQ(Run("SELECT x FROM t WHERE x > 3").rows.size(), 2u);
  EXPECT_EQ(Run("SELECT x FROM t WHERE x BETWEEN 2 AND 4").rows.size(), 3u);
  EXPECT_EQ(Run("SELECT x FROM t WHERE x IN (1, 5, 9)").rows.size(), 2u);
  EXPECT_EQ(Run("SELECT x FROM t WHERE x <> 3").rows.size(), 4u);
}

TEST_F(ExecutorTest, NullSemanticsInWhere) {
  Run("CREATE TABLE t (x INT)");
  Run("INSERT INTO t VALUES (1), (NULL), (3)");
  // NULL comparisons are never true (the classic NULL Usage AP trap).
  EXPECT_EQ(Run("SELECT x FROM t WHERE x = NULL").rows.size(), 0u);
  EXPECT_EQ(Run("SELECT x FROM t WHERE x != NULL").rows.size(), 0u);
  EXPECT_EQ(Run("SELECT x FROM t WHERE x IS NULL").rows.size(), 1u);
  EXPECT_EQ(Run("SELECT x FROM t WHERE x IS NOT NULL").rows.size(), 2u);
}

TEST_F(ExecutorTest, ConcatenationPropagatesNull) {
  Run("CREATE TABLE people (first VARCHAR(10), last VARCHAR(10))");
  Run("INSERT INTO people VALUES ('ada', 'lovelace'), ('prince', NULL)");
  auto r = Run("SELECT first || ' ' || last FROM people");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "ada lovelace");
  EXPECT_TRUE(r.rows[1][0].is_null());  // the Concatenate NULLs AP in action
}

TEST_F(ExecutorTest, AggregatesSumCountAvgMinMax) {
  Run("CREATE TABLE t (x INT)");
  Run("INSERT INTO t VALUES (1), (2), (3), (NULL)");
  auto r = Run("SELECT COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x) FROM t");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 4);
  EXPECT_EQ(r.rows[0][1].AsInt(), 3);
  EXPECT_EQ(r.rows[0][2].AsInt(), 6);
  EXPECT_DOUBLE_EQ(r.rows[0][3].AsReal(), 2.0);
  EXPECT_EQ(r.rows[0][4].AsInt(), 1);
  EXPECT_EQ(r.rows[0][5].AsInt(), 3);
}

TEST_F(ExecutorTest, GroupByWithHaving) {
  Run("CREATE TABLE sales (dept VARCHAR(10), amount INT)");
  Run("INSERT INTO sales VALUES ('a', 10), ('a', 20), ('b', 5), ('c', 7), ('c', 1)");
  auto r = Run(
      "SELECT dept, SUM(amount) FROM sales GROUP BY dept HAVING SUM(amount) > 6 "
      "ORDER BY dept");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "a");
  EXPECT_EQ(r.rows[0][1].AsInt(), 30);
  EXPECT_EQ(r.rows[1][0].AsString(), "c");
}

TEST_F(ExecutorTest, CountDistinct) {
  Run("CREATE TABLE t (x INT)");
  Run("INSERT INTO t VALUES (1), (1), (2), (2), (3)");
  auto r = Run("SELECT COUNT(DISTINCT x) FROM t");
  EXPECT_EQ(r.Scalar().AsInt(), 3);
}

TEST_F(ExecutorTest, HashJoinOnEquality) {
  Run("CREATE TABLE a (id INT PRIMARY KEY, v VARCHAR(5))");
  Run("CREATE TABLE b (id INT, w VARCHAR(5))");
  Run("INSERT INTO a VALUES (1, 'x'), (2, 'y')");
  Run("INSERT INTO b VALUES (1, 'p'), (1, 'q'), (3, 'r')");
  auto r = Run("SELECT a.v, b.w FROM a JOIN b ON a.id = b.id ORDER BY b.w");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][1].AsString(), "p");
  EXPECT_EQ(r.rows[1][1].AsString(), "q");
}

TEST_F(ExecutorTest, LeftJoinPadsWithNulls) {
  Run("CREATE TABLE a (id INT)");
  Run("CREATE TABLE b (id INT, w VARCHAR(5))");
  Run("INSERT INTO a VALUES (1), (2)");
  Run("INSERT INTO b VALUES (1, 'p')");
  auto r = Run("SELECT a.id, b.w FROM a LEFT JOIN b ON a.id = b.id ORDER BY a.id");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][1].AsString(), "p");
  EXPECT_TRUE(r.rows[1][1].is_null());
}

TEST_F(ExecutorTest, ExpressionJoinWithLike) {
  // The paper's multi-valued-attribute join (§2.1 Task 2).
  Run("CREATE TABLE tenants (tenant_id VARCHAR(5), user_ids TEXT)");
  Run("CREATE TABLE users (user_id VARCHAR(5), name VARCHAR(10))");
  Run("INSERT INTO tenants VALUES ('T1', 'U1,U2'), ('T2', 'U3,U4')");
  Run("INSERT INTO users VALUES ('U1', 'n1'), ('U2', 'n2'), ('U3', 'n3'), ('U4', 'n4')");
  auto r = Run(
      "SELECT u.name FROM tenants AS t JOIN users AS u "
      "ON t.user_ids LIKE '[[:<:]]' || u.user_id || '[[:>:]]' "
      "WHERE t.tenant_id = 'T1' ORDER BY u.name");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsString(), "n1");
  EXPECT_EQ(r.rows[1][0].AsString(), "n2");
}

TEST_F(ExecutorTest, CommaJoinProducesCrossProduct) {
  Run("CREATE TABLE a (x INT)");
  Run("CREATE TABLE b (y INT)");
  Run("INSERT INTO a VALUES (1), (2)");
  Run("INSERT INTO b VALUES (10), (20), (30)");
  EXPECT_EQ(Run("SELECT * FROM a, b").rows.size(), 6u);
}

TEST_F(ExecutorTest, DistinctRemovesDuplicates) {
  Run("CREATE TABLE t (x INT)");
  Run("INSERT INTO t VALUES (1), (1), (2)");
  EXPECT_EQ(Run("SELECT DISTINCT x FROM t").rows.size(), 2u);
}

TEST_F(ExecutorTest, OrderByRandShuffles) {
  Run("CREATE TABLE t (x INT)");
  for (int i = 0; i < 50; ++i) {
    Run("INSERT INTO t VALUES (" + std::to_string(i) + ")");
  }
  auto r = Run("SELECT x FROM t ORDER BY RAND()");
  ASSERT_EQ(r.rows.size(), 50u);
  bool out_of_order = false;
  for (size_t i = 1; i < r.rows.size(); ++i) {
    if (r.rows[i][0].AsInt() < r.rows[i - 1][0].AsInt()) out_of_order = true;
  }
  EXPECT_TRUE(out_of_order);
}

TEST_F(ExecutorTest, LimitAndOffset) {
  Run("CREATE TABLE t (x INT)");
  Run("INSERT INTO t VALUES (1), (2), (3), (4), (5)");
  auto r = Run("SELECT x FROM t ORDER BY x LIMIT 2 OFFSET 1");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
  EXPECT_EQ(r.rows[1][0].AsInt(), 3);
}

TEST_F(ExecutorTest, UpdateWithWhere) {
  Run("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Run("INSERT INTO t VALUES (1, 10), (2, 20)");
  auto r = Run("UPDATE t SET v = v + 1 WHERE id = 2");
  EXPECT_EQ(r.affected, 1u);
  EXPECT_EQ(Run("SELECT v FROM t WHERE id = 2").Scalar().AsInt(), 21);
}

TEST_F(ExecutorTest, DeleteWithWhere) {
  Run("CREATE TABLE t (id INT)");
  Run("INSERT INTO t VALUES (1), (2), (3)");
  EXPECT_EQ(Run("DELETE FROM t WHERE id >= 2").affected, 2u);
  EXPECT_EQ(Run("SELECT COUNT(*) FROM t").Scalar().AsInt(), 1);
}

TEST_F(ExecutorTest, PrimaryKeyUniquenessEnforced) {
  Run("CREATE TABLE t (id INT PRIMARY KEY)");
  Run("INSERT INTO t VALUES (1)");
  auto s = RunExpectError("INSERT INTO t VALUES (1)");
  EXPECT_NE(s.message().find("PRIMARY KEY"), std::string::npos);
}

TEST_F(ExecutorTest, NotNullEnforced) {
  Run("CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(5) NOT NULL)");
  RunExpectError("INSERT INTO t (id) VALUES (1)");
}

TEST_F(ExecutorTest, CheckConstraintEnforced) {
  Run("CREATE TABLE t (rating INT CHECK (rating BETWEEN 1 AND 5))");
  Run("INSERT INTO t VALUES (3)");
  auto s = RunExpectError("INSERT INTO t VALUES (9)");
  EXPECT_NE(s.message().find("CHECK"), std::string::npos);
}

TEST_F(ExecutorTest, EnumDomainEnforced) {
  Run("CREATE TABLE u (role ENUM('admin', 'user'))");
  Run("INSERT INTO u VALUES ('admin')");
  RunExpectError("INSERT INTO u VALUES ('superuser')");
}

TEST_F(ExecutorTest, ForeignKeyEnforcedOnInsert) {
  Run("CREATE TABLE parent (id INT PRIMARY KEY)");
  Run("CREATE TABLE child (pid INT REFERENCES parent(id))");
  Run("INSERT INTO parent VALUES (1)");
  Run("INSERT INTO child VALUES (1)");
  auto s = RunExpectError("INSERT INTO child VALUES (99)");
  EXPECT_NE(s.message().find("FOREIGN KEY"), std::string::npos);
}

TEST_F(ExecutorTest, ForeignKeyRestrictsParentDelete) {
  Run("CREATE TABLE parent (id INT PRIMARY KEY)");
  Run("CREATE TABLE child (pid INT REFERENCES parent(id))");
  Run("INSERT INTO parent VALUES (1)");
  Run("INSERT INTO child VALUES (1)");
  RunExpectError("DELETE FROM parent WHERE id = 1");
}

TEST_F(ExecutorTest, CascadeDeleteRemovesChildren) {
  Run("CREATE TABLE parent (id INT PRIMARY KEY)");
  Run("CREATE TABLE child (pid INT REFERENCES parent(id) ON DELETE CASCADE)");
  Run("INSERT INTO parent VALUES (1), (2)");
  Run("INSERT INTO child VALUES (1), (1), (2)");
  Run("DELETE FROM parent WHERE id = 1");
  EXPECT_EQ(Run("SELECT COUNT(*) FROM child").Scalar().AsInt(), 1);
}

TEST_F(ExecutorTest, AutoIncrementAssignsIds) {
  Run("CREATE TABLE t (id SERIAL PRIMARY KEY, v VARCHAR(3))");
  Run("INSERT INTO t (v) VALUES ('a')");
  Run("INSERT INTO t (v) VALUES ('b')");
  auto r = Run("SELECT id FROM t ORDER BY id");
  EXPECT_EQ(r.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.rows[1][0].AsInt(), 2);
}

TEST_F(ExecutorTest, DefaultValuesApplied) {
  Run("CREATE TABLE t (id INT, status VARCHAR(10) DEFAULT 'new')");
  Run("INSERT INTO t (id) VALUES (1)");
  EXPECT_EQ(Run("SELECT status FROM t").Scalar().AsString(), "new");
}

TEST_F(ExecutorTest, InsertSelectCopiesRows) {
  Run("CREATE TABLE src (x INT)");
  Run("CREATE TABLE dst (x INT)");
  Run("INSERT INTO src VALUES (1), (2), (3)");
  auto r = Run("INSERT INTO dst (x) SELECT x FROM src WHERE x > 1");
  EXPECT_EQ(r.affected, 2u);
}

TEST_F(ExecutorTest, ScalarSubqueryInWhere) {
  Run("CREATE TABLE t (x INT)");
  Run("INSERT INTO t VALUES (1), (5), (9)");
  auto r = Run("SELECT x FROM t WHERE x > (SELECT AVG(x) FROM t)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 9);
}

TEST_F(ExecutorTest, InSubquery) {
  Run("CREATE TABLE a (x INT)");
  Run("CREATE TABLE b (x INT)");
  Run("INSERT INTO a VALUES (1), (2), (3)");
  Run("INSERT INTO b VALUES (2), (3), (4)");
  EXPECT_EQ(Run("SELECT x FROM a WHERE x IN (SELECT x FROM b)").rows.size(), 2u);
}

TEST_F(ExecutorTest, SubqueryInFrom) {
  Run("CREATE TABLE t (x INT)");
  Run("INSERT INTO t VALUES (1), (2), (3)");
  auto r = Run("SELECT big FROM (SELECT x AS big FROM t WHERE x > 1) AS sub ORDER BY big");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 2);
}

TEST_F(ExecutorTest, IndexLookupMatchesScanResults) {
  Run("CREATE TABLE t (id INT, v INT)");
  for (int i = 0; i < 100; ++i) {
    Run("INSERT INTO t VALUES (" + std::to_string(i % 10) + ", " + std::to_string(i) + ")");
  }
  auto before = Run("SELECT COUNT(*) FROM t WHERE id = 7");
  Run("CREATE INDEX idx_id ON t (id)");
  auto after = Run("SELECT COUNT(*) FROM t WHERE id = 7");
  EXPECT_EQ(before.Scalar().AsInt(), after.Scalar().AsInt());
}

TEST_F(ExecutorTest, AlterAddCheckValidatesExistingRows) {
  Run("CREATE TABLE u (role VARCHAR(5))");
  Run("INSERT INTO u VALUES ('R1'), ('R9')");
  RunExpectError("ALTER TABLE u ADD CONSTRAINT chk CHECK (role IN ('R1', 'R2'))");
  Run("UPDATE u SET role = 'R2' WHERE role = 'R9'");
  Run("ALTER TABLE u ADD CONSTRAINT chk CHECK (role IN ('R1', 'R2'))");
  RunExpectError("INSERT INTO u VALUES ('R9')");
}

TEST_F(ExecutorTest, AlterDropConstraintRemovesCheck) {
  Run("CREATE TABLE u (role VARCHAR(5))");
  Run("ALTER TABLE u ADD CONSTRAINT chk CHECK (role IN ('R1'))");
  RunExpectError("INSERT INTO u VALUES ('R2')");
  Run("ALTER TABLE u DROP CONSTRAINT chk");
  Run("INSERT INTO u VALUES ('R2')");
}

TEST_F(ExecutorTest, AlterAddAndDropColumn) {
  Run("CREATE TABLE t (a INT)");
  Run("INSERT INTO t VALUES (1)");
  Run("ALTER TABLE t ADD COLUMN b VARCHAR(5) DEFAULT 'x'");
  EXPECT_EQ(Run("SELECT b FROM t").Scalar().AsString(), "x");
  Run("ALTER TABLE t DROP COLUMN a");
  auto r = Run("SELECT * FROM t");
  EXPECT_EQ(r.columns, (std::vector<std::string>{"b"}));
}

TEST_F(ExecutorTest, FloatColumnLosesPrecisionNumericDoesNot) {
  // The Rounding Errors AP (§2.2): FLOAT storage drifts, NUMERIC stays exact.
  Run("CREATE TABLE f (v FLOAT)");
  Run("CREATE TABLE n (v NUMERIC(10, 2))");
  for (int i = 0; i < 100; ++i) {
    Run("INSERT INTO f VALUES (0.1)");
    Run("INSERT INTO n VALUES (0.1)");
  }
  double fsum = Run("SELECT SUM(v) FROM f").Scalar().AsReal();
  double nsum = Run("SELECT SUM(v) FROM n").Scalar().AsReal();
  EXPECT_GT(std::abs(fsum - 10.0), 1e-9);   // float drifted
  EXPECT_LT(std::abs(nsum - 10.0), 1e-9);   // numeric exact (double here)
}

TEST_F(ExecutorTest, ErrorsOnMissingTableAndColumn) {
  RunExpectError("SELECT * FROM nope");
  Run("CREATE TABLE t (a INT)");
  RunExpectError("SELECT b FROM t");
  RunExpectError("INSERT INTO t (b) VALUES (1)");
}

TEST_F(ExecutorTest, InsertColumnCountMismatchFails) {
  Run("CREATE TABLE t (a INT, b INT)");
  RunExpectError("INSERT INTO t (a) VALUES (1, 2)");
}

TEST_F(ExecutorTest, ScriptExecutionReturnsLastResult) {
  auto r = exec_.ExecuteScript(
      "CREATE TABLE t (x INT); INSERT INTO t VALUES (7); SELECT x FROM t;");
  ASSERT_TRUE(r.ok()) << r.message();
  EXPECT_EQ(r->Scalar().AsInt(), 7);
}

TEST_F(ExecutorTest, FromlessSelectEvaluatesExpressions) {
  auto r = Run("SELECT 1 + 2, UPPER('abc')");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt(), 3);
  EXPECT_EQ(r.rows[0][1].AsString(), "ABC");
}

// ---------------------------------------------------------------------------
// Edge cases the Tier-3 differential verifier leans on: the engine is now a
// load-bearing oracle for rewrite equivalence, so its three-valued logic,
// LIKE matching, and write-path constraint checks get pinned down here.
// ---------------------------------------------------------------------------

TEST_F(ExecutorTest, ThreeValuedLogicInCompoundPredicates) {
  Run("CREATE TABLE t (x INT, y INT)");
  Run("INSERT INTO t VALUES (1, 1), (2, NULL), (NULL, 3), (NULL, NULL)");
  // UNKNOWN AND FALSE = FALSE, UNKNOWN OR TRUE = TRUE; WHERE keeps only TRUE.
  EXPECT_EQ(Run("SELECT x FROM t WHERE x = 1 OR y = 3").rows.size(), 2u);
  EXPECT_EQ(Run("SELECT x FROM t WHERE x = 1 AND y = 1").rows.size(), 1u);
  // NOT (UNKNOWN) is UNKNOWN: negating a NULL comparison rescues nothing.
  EXPECT_EQ(Run("SELECT x FROM t WHERE NOT (x = 1)").rows.size(), 1u);
  // A predicate and its negation never cover rows where it is UNKNOWN.
  size_t hits = Run("SELECT x FROM t WHERE x < 2").rows.size() +
                Run("SELECT x FROM t WHERE NOT (x < 2)").rows.size();
  EXPECT_EQ(hits, 2u);
  EXPECT_EQ(Run("SELECT x FROM t").rows.size(), 4u);
  // NOT IN with a NULL in the list matches nothing (the NULL Usage trap).
  EXPECT_EQ(Run("SELECT x FROM t WHERE x NOT IN (2, NULL)").rows.size(), 0u);
  EXPECT_EQ(Run("SELECT x FROM t WHERE x IN (1, NULL)").rows.size(), 1u);
}

TEST_F(ExecutorTest, LikeBoundaryAndEscapeCases) {
  Run("CREATE TABLE s (v VARCHAR(20))");
  Run("INSERT INTO s VALUES (''), ('a'), ('ab'), ('ba'), ('aba'), "
      "('100%'), ('a_b'), ('ab_'), ('%')");
  // '%' alone matches everything, including the empty string.
  EXPECT_EQ(Run("SELECT v FROM s WHERE v LIKE '%'").rows.size(), 9u);
  // Leading/trailing/both-sided wildcards at string boundaries.
  EXPECT_EQ(Run("SELECT v FROM s WHERE v LIKE 'a%'").rows.size(), 5u);
  EXPECT_EQ(Run("SELECT v FROM s WHERE v LIKE '%a'").rows.size(), 3u);
  EXPECT_EQ(Run("SELECT v FROM s WHERE v LIKE '%a%'").rows.size(), 6u);
  // '_' demands exactly one character — the empty string never matches.
  EXPECT_EQ(Run("SELECT v FROM s WHERE v LIKE '_'").rows.size(), 2u);  // 'a', '%'
  EXPECT_EQ(Run("SELECT v FROM s WHERE v LIKE '_b'").rows.size(), 1u);
  EXPECT_EQ(Run("SELECT v FROM s WHERE v LIKE 'a_'").rows.size(), 1u);
  // Escaped wildcards match literally. The lexer itself consumes one level
  // of backslash escaping inside string literals, so the SQL text needs
  // \\% for the matcher to receive \% (a literal percent sign).
  EXPECT_EQ(Run("SELECT v FROM s WHERE v LIKE '100\\\\%'").rows.size(), 1u);
  EXPECT_EQ(Run("SELECT v FROM s WHERE v LIKE 'a\\\\_b'").rows.size(), 1u);
  EXPECT_EQ(Run("SELECT v FROM s WHERE v LIKE '\\\\%'").rows.size(), 1u);
  // Unescaped, the same pattern text is pure wildcard: everything matches.
  EXPECT_EQ(Run("SELECT v FROM s WHERE v LIKE '\\%'").rows.size(), 9u);
  // The empty pattern matches only the empty string.
  EXPECT_EQ(Run("SELECT v FROM s WHERE v LIKE ''").rows.size(), 1u);
}

TEST_F(ExecutorTest, ForeignKeyValidatedOnChildUpdate) {
  Run("CREATE TABLE parent (id INT PRIMARY KEY)");
  Run("CREATE TABLE child (pid INT REFERENCES parent(id))");
  Run("INSERT INTO parent VALUES (1), (2)");
  Run("INSERT INTO child VALUES (1)");
  Run("UPDATE child SET pid = 2 WHERE pid = 1");
  auto s = RunExpectError("UPDATE child SET pid = 99");
  EXPECT_NE(s.message().find("FOREIGN KEY"), std::string::npos);
  // The failed update must not have clobbered the row.
  EXPECT_EQ(Run("SELECT pid FROM child").Scalar().AsInt(), 2);
}

TEST_F(ExecutorTest, NullForeignKeyIsAlwaysAccepted) {
  Run("CREATE TABLE parent (id INT PRIMARY KEY)");
  Run("CREATE TABLE child (pid INT REFERENCES parent(id))");
  // SQL FK semantics: a NULL reference is UNKNOWN, which passes.
  Run("INSERT INTO child VALUES (NULL)");
  Run("INSERT INTO parent VALUES (1)");
  Run("INSERT INTO child VALUES (1)");
  Run("UPDATE child SET pid = NULL WHERE pid = 1");
  EXPECT_EQ(Run("SELECT COUNT(*) FROM child WHERE pid IS NULL").Scalar().AsInt(), 2);
}

TEST_F(ExecutorTest, CheckConstraintPassesOnNullResult) {
  // CHECK rejects only FALSE; NULL (UNKNOWN) passes — both at insert time
  // and when ALTER ... ADD CHECK revalidates existing rows.
  Run("CREATE TABLE t (rating INT CHECK (rating BETWEEN 1 AND 5))");
  Run("INSERT INTO t VALUES (NULL)");
  Run("CREATE TABLE u (score INT)");
  Run("INSERT INTO u VALUES (3), (NULL)");
  Run("ALTER TABLE u ADD CONSTRAINT chk CHECK (score > 0)");
  RunExpectError("INSERT INTO u VALUES (-1)");
  Run("INSERT INTO u VALUES (NULL)");
}

TEST_F(ExecutorTest, AlterAddCheckRevalidationLeavesSchemaUnchangedOnFailure) {
  Run("CREATE TABLE t (v INT)");
  Run("INSERT INTO t VALUES (10)");
  RunExpectError("ALTER TABLE t ADD CONSTRAINT neg CHECK (v < 0)");
  // The rejected constraint must not linger: this insert would violate it.
  Run("INSERT INTO t VALUES (5)");
}

TEST_F(ExecutorTest, UpdateRevalidatesCheckConstraints) {
  Run("CREATE TABLE t (rating INT CHECK (rating BETWEEN 1 AND 5))");
  Run("INSERT INTO t VALUES (3)");
  auto s = RunExpectError("UPDATE t SET rating = 9");
  EXPECT_NE(s.message().find("CHECK"), std::string::npos);
  EXPECT_EQ(Run("SELECT rating FROM t").Scalar().AsInt(), 3);
}

TEST_F(ExecutorTest, CheckGoesWithItsDroppedColumn) {
  Run("CREATE TABLE t (a INT CHECK (a > 0), b INT)");
  Run("ALTER TABLE t DROP COLUMN a");
  Run("INSERT INTO t VALUES (1)");
  EXPECT_TRUE(db_.GetTable("t")->schema().checks.empty());
}

TEST_F(ExecutorTest, CheckFollowsRenamedColumn) {
  Run("CREATE TABLE t (a INT CHECK (a > 0), b INT)");
  Run("ALTER TABLE t RENAME COLUMN a TO x");
  Run("INSERT INTO t VALUES (1, 2)");
  EXPECT_EQ(db_.GetTable("t")->schema().checks[0].expression_sql, "(x > 0)");
  // Still enforced under the new name.
  auto s = RunExpectError("INSERT INTO t VALUES (0, 2)");
  EXPECT_NE(s.message().find("CHECK"), std::string::npos) << s.message();
}

// ---------------------------------------------------------------------------
// Answers the engine gives as SQLite 3 does. u = (1,30),(2,10),(3,20); each
// expected result is the sqlite3 CLI's over the same rows.
// ---------------------------------------------------------------------------

class SqliteAnswerTest : public ExecutorTest {
 protected:
  SqliteAnswerTest() {
    Run("CREATE TABLE u (id INT PRIMARY KEY, a INT)");
    Run("INSERT INTO u VALUES (1, 30), (2, 10), (3, 20)");
  }

  // Rows as "v|v" lines, NULL spelled out.
  static std::vector<std::string> Rows(const QueryResult& r) {
    std::vector<std::string> out;
    for (const Row& row : r.rows) {
      std::string line;
      for (size_t c = 0; c < row.size(); ++c) {
        if (c > 0) line += "|";
        line += row[c].is_null() ? "NULL" : row[c].ToDisplay();
      }
      out.push_back(line);
    }
    return out;
  }
  using Lines = std::vector<std::string>;
};

TEST_F(SqliteAnswerTest, OrderByOrdinalNamesAnOutputColumn) {
  EXPECT_EQ(Rows(Run("SELECT id, a FROM u ORDER BY 2")), (Lines{"2|10", "3|20", "1|30"}));
  // `*` is expanded before the ordinal is read.
  EXPECT_EQ(Rows(Run("SELECT * FROM u ORDER BY 2 DESC")), (Lines{"1|30", "3|20", "2|10"}));
  // A non-integer constant is an expression, not an ordinal.
  EXPECT_EQ(Rows(Run("SELECT id FROM u ORDER BY 1.5")), (Lines{"1", "2", "3"}));
}

TEST_F(SqliteAnswerTest, OrdinalOutOfRangeIsAnError) {
  for (const char* sql : {"SELECT id FROM u ORDER BY 9", "SELECT id FROM u ORDER BY 0",
                          "SELECT id FROM u ORDER BY -1", "SELECT a FROM u GROUP BY 2"}) {
    auto s = RunExpectError(sql);
    EXPECT_NE(s.message().find("out of range"), std::string::npos) << s.message();
  }
}

TEST_F(SqliteAnswerTest, GroupByOrdinalGroupsByThatItem) {
  auto r = Run("SELECT a, COUNT(*) FROM u GROUP BY 1");
  EXPECT_EQ(Rows(r), (Lines{"10|1", "20|1", "30|1"}));
  // An ordinal may not name an aggregate or a `*` column.
  RunExpectError("SELECT a, COUNT(*) FROM u GROUP BY 2");
  RunExpectError("SELECT * FROM u GROUP BY 1");
}

TEST_F(SqliteAnswerTest, UsingJoinListsItsColumnOnceUnderAStar) {
  Run("CREATE TABLE v (id INT, b INT)");
  Run("INSERT INTO v VALUES (1, 100), (3, 300), (4, 400)");
  auto r = Run("SELECT * FROM u JOIN v USING (id)");
  EXPECT_EQ(r.columns, (Lines{"id", "a", "b"}));
  EXPECT_EQ(Rows(r), (Lines{"1|30|100", "3|20|300"}));
  r = Run("SELECT * FROM u LEFT JOIN v USING (id)");
  EXPECT_EQ(r.columns, (Lines{"id", "a", "b"}));
  EXPECT_EQ(Rows(r), (Lines{"1|30|100", "2|10|NULL", "3|20|300"}));
  // A qualified star is unchanged.
  EXPECT_EQ(Run("SELECT v.* FROM u JOIN v USING (id)").columns, (Lines{"id", "b"}));
  // The left side of USING is the first earlier source with the column.
  Run("CREATE TABLE w (k INT, label VARCHAR(5))");
  Run("INSERT INTO w VALUES (10, 'x'), (30, 'y')");
  r = Run("SELECT u.id, w.label, v.b FROM w JOIN u ON u.a = w.k JOIN v USING (id)");
  EXPECT_EQ(Rows(r), (Lines{"1|y|100"}));
  RunExpectError("SELECT * FROM u JOIN w USING (id)");
}

TEST_F(SqliteAnswerTest, FromlessSelectHonorsWhereAndLimit) {
  EXPECT_EQ(Rows(Run("SELECT 1 WHERE 1 = 0")), Lines{});
  EXPECT_EQ(Rows(Run("SELECT 1 LIMIT 0")), Lines{});
  EXPECT_EQ(Rows(Run("SELECT 1 WHERE 1 = 1")), Lines{"1"});
  EXPECT_EQ(Rows(Run("SELECT COUNT(*)")), Lines{"1"});
  RunExpectError("SELECT *");
}

TEST_F(SqliteAnswerTest, OrderByAndGroupBySubqueriesAreFlattened) {
  EXPECT_EQ(Rows(Run("SELECT * FROM u ORDER BY (SELECT 1)")),
            (Lines{"1|30", "2|10", "3|20"}));
  // A subquery's value is a constant key, never an ordinal.
  EXPECT_EQ(Rows(Run("SELECT id FROM u ORDER BY (SELECT 2)")), (Lines{"1", "2", "3"}));
  EXPECT_EQ(Rows(Run("SELECT a FROM u ORDER BY (SELECT MAX(id) FROM u) - a")),
            (Lines{"30", "20", "10"}));
  EXPECT_EQ(Rows(Run("SELECT COUNT(*) FROM u GROUP BY (SELECT 1)")), Lines{"3"});
}

TEST_F(SqliteAnswerTest, AnAliasDoesNotNameASourceColumnInItsOwnItem) {
  // sqlite3: "no such column: nosuch" (and "k"), with or without rows to read.
  Run("CREATE TABLE e (id INT PRIMARY KEY, x INT)");
  for (const char* sql : {"SELECT nosuch AS nosuch FROM e", "SELECT nosuch AS nosuch FROM u",
                          "SELECT nosuch AS nosuch FROM u WHERE id = 99",
                          "SELECT x + 1 AS k, k FROM e"}) {
    auto s = RunExpectError(sql);
    EXPECT_NE(s.message().find("unknown column: "), std::string::npos) << sql;
  }
  // ORDER BY and WHERE may name an alias; over no row there is nothing to read.
  EXPECT_EQ(Rows(Run("SELECT x AS k FROM e ORDER BY k")), Lines{});
  EXPECT_EQ(Rows(Run("SELECT x AS k FROM e WHERE k > 1")), Lines{});
}

TEST_F(SqliteAnswerTest, RightAndFullJoinsPadUnmatchedRows) {
  Run("CREATE TABLE e (id INT PRIMARY KEY, x INT)");
  Run("INSERT INTO e VALUES (1, 5), (9, 6)");
  EXPECT_EQ(Rows(Run("SELECT u.id, e.x FROM u RIGHT JOIN e ON u.id = e.id")),
            (Lines{"1|5", "NULL|6"}));
  EXPECT_EQ(Rows(Run("SELECT u.id, e.x FROM u FULL JOIN e ON u.id = e.id")),
            (Lines{"1|5", "2|NULL", "3|NULL", "NULL|6"}));
  // A RIGHT join null-pads every earlier source, so a WHERE on one of them
  // filters the joined rows, not the source's.
  EXPECT_EQ(Rows(Run("SELECT u.id, e.x FROM u RIGHT JOIN e ON u.id = e.id WHERE u.id IS NULL")),
            (Lines{"NULL|6"}));
  // A left side small enough for an index probe still lists the right rows
  // that no tuple matched.
  std::string rows;
  for (int i = 1; i <= 20; ++i) {
    rows += (i > 1 ? ", (" : "(") + std::to_string(i) + ", " + std::to_string(i * 10) + ")";
  }
  Run("CREATE TABLE w (id INT PRIMARY KEY, b INT)");
  Run("INSERT INTO w VALUES " + rows);
  EXPECT_EQ(Rows(Run("SELECT COUNT(*), COUNT(d.id) FROM (SELECT 1 AS id) AS d "
                     "RIGHT JOIN w ON w.id = d.id")),
            Lines{"20|1"});
}

TEST_F(SqliteAnswerTest, OrderByAnOutputAliasReadsThatColumn) {
  // The alias wins over the source column of the same name.
  EXPECT_EQ(Rows(Run("SELECT a AS id FROM u ORDER BY id")), (Lines{"10", "20", "30"}));
  EXPECT_EQ(Rows(Run("SELECT a AS k FROM u ORDER BY k")), (Lines{"10", "20", "30"}));
  EXPECT_EQ(Rows(Run("SELECT id, a AS k FROM u ORDER BY k DESC")),
            (Lines{"1|30", "3|20", "2|10"}));
}

TEST_F(SqliteAnswerTest, AggregatesOutsideAnAggregationAreRefused) {
  // sqlite3 refuses each at prepare ("misuse of aggregate function COUNT()",
  // "aggregate functions are not allowed in the GROUP BY clause"), rows or
  // no rows.
  Run("CREATE TABLE z (id INT, tag VARCHAR(5), a INT)");
  for (const char* sql : {"SELECT id FROM z WHERE COUNT(*) > 0",
                          "SELECT u.id FROM u JOIN z ON COUNT(*) > 0",
                          "SELECT id FROM z GROUP BY COUNT(*)",
                          "SELECT id FROM z ORDER BY COUNT(*)",
                          "SELECT id FROM u ORDER BY COUNT(*)",
                          "UPDATE z SET id = 1 WHERE COUNT(*) > 0",
                          "UPDATE z SET id = COUNT(*)",
                          "DELETE FROM z WHERE COUNT(*) > 0"}) {
    auto s = RunExpectError(sql);
    EXPECT_NE(s.message().find("aggregate"), std::string::npos) << sql << ": " << s.message();
  }
  // An aggregating SELECT may order by an aggregate, and a subquery may
  // aggregate anywhere.
  EXPECT_EQ(Rows(Run("SELECT tag FROM z GROUP BY tag ORDER BY SUM(a)")), Lines{});
  EXPECT_EQ(Rows(Run("SELECT COUNT(*) FROM z ORDER BY SUM(a)")), Lines{"0"});
  EXPECT_EQ(Rows(Run("SELECT id FROM u WHERE a > (SELECT MIN(a) FROM u)")), (Lines{"1", "3"}));
}

// ---------------------------------------------------------------------------
// One fixed script over every executor path (row selection by index and by
// scan, hash / index nested-loop / nested-loop / LEFT / comma joins, derived
// tables, IN / EXISTS / scalar subqueries, index and hash GROUP BY, HAVING,
// DISTINCT, ORDER BY / LIMIT / OFFSET, UPDATE / DELETE with cascade, error
// texts). The pin is the FNV-1a digest of the transcript: columns, rows in
// order, affected counts and error texts. It was recorded from this test
// source built against the executor before its row-selection, join and
// clause-walking paths were merged, so it holds the engine's answers fixed
// across that refactor.
// ---------------------------------------------------------------------------

TEST_F(ExecutorTest, ResultsOverAFixedScriptArePinned) {
  const std::vector<std::string> script = {
      "CREATE TABLE u (id INT PRIMARY KEY, a INT, tag VARCHAR(10))",
      "CREATE INDEX idx_u_a ON u (a)",
      "INSERT INTO u VALUES (1, 30, 'red'), (2, 10, 'blue'), (3, 20, 'red'), "
      "(4, NULL, 'green'), (5, 10, NULL), (6, 40, 'blue')",
      "CREATE TABLE v (id INT, b INT, note VARCHAR(20))",
      "CREATE INDEX idx_v_id ON v (id)",
      "INSERT INTO v VALUES (1, 100, 'one'), (1, 150, 'uno'), (3, 300, 'three'), "
      "(4, NULL, 'four'), (7, 700, 'seven'), (8, 800, 'eight'), (9, 900, 'nine'), "
      "(10, 1000, 'ten'), (11, 1100, 'eleven'), (NULL, 0, 'none')",
      "CREATE TABLE w (k INT, label VARCHAR(10))",
      "INSERT INTO w VALUES (10, 'blue-ish'), (20, 'red-ish'), (30, 'reddish'), "
      "(NULL, 'null')",
      "CREATE TABLE parent (id INT PRIMARY KEY, name VARCHAR(10))",
      "CREATE TABLE child (id INT PRIMARY KEY, "
      "pid INT REFERENCES parent(id) ON DELETE CASCADE, qty INT)",
      "CREATE TABLE pinned (id INT PRIMARY KEY, pid INT REFERENCES parent(id))",
      "INSERT INTO parent VALUES (1, 'p1'), (2, 'p2'), (3, 'p3')",
      "INSERT INTO child VALUES (10, 1, 5), (11, 1, 7), (12, 2, 9)",
      "INSERT INTO pinned VALUES (1, 3)",
      // Row selection: index probe, scan, probe plus re-check, derived table.
      "SELECT id, tag FROM u WHERE a = 10",
      "SELECT id FROM u WHERE tag = 'red'",
      "SELECT id, a FROM u WHERE a = 10 AND id > 2",
      "SELECT * FROM u WHERE id = 999",
      "SELECT d.id, d.a FROM (SELECT id, a FROM u WHERE a > 10) AS d WHERE d.a < 40",
      "SELECT id FROM u WHERE a IS NULL",
      // Joins: hash, index nested loop, nested loop, LEFT, comma, USING.
      "SELECT u.id, v.b FROM u JOIN v ON u.id = v.id",
      "SELECT u.id, v.note FROM u JOIN v ON v.id = u.id WHERE u.id = 1",
      "SELECT u.id, w.label FROM u JOIN w ON w.label LIKE u.tag || '%'",
      "SELECT u.id, v.b FROM u LEFT JOIN v ON u.id = v.id",
      "SELECT u.id, w.k FROM u LEFT JOIN w ON w.k > u.a",
      "SELECT u.id, v.b FROM u LEFT JOIN v ON u.id = v.id WHERE v.b IS NULL",
      "SELECT u.id, w.label FROM u, w WHERE u.a = w.k",
      "SELECT u.id, v.b FROM u JOIN v USING (id)",
      "SELECT u.id, v.b FROM u JOIN v ON u.id = v.id AND v.b > 120",
      "SELECT u.*, v.b FROM u JOIN v ON u.id = v.id",
      "SELECT u.id, v.b, w.label FROM u JOIN v ON u.id = v.id JOIN w ON w.k = u.a",
      "SELECT d.id, v.b FROM (SELECT id FROM u WHERE a < 25) AS d JOIN v ON v.id = d.id",
      // Subqueries.
      "SELECT id FROM u WHERE id IN (SELECT id FROM v WHERE b > 120)",
      "SELECT id FROM u WHERE id NOT IN (SELECT id FROM v)",
      "SELECT id FROM u WHERE EXISTS (SELECT k FROM w WHERE k > 25)",
      "SELECT id FROM u WHERE a = (SELECT MAX(a) FROM u)",
      "SELECT id, (SELECT COUNT(*) FROM v) AS n FROM u WHERE id < 3",
      // Aggregation.
      "SELECT COUNT(*), COUNT(a), SUM(a), AVG(a), MIN(tag), MAX(tag) FROM u",
      "SELECT COUNT(*), SUM(a), MAX(a) FROM u WHERE a > 1000",
      "SELECT a, COUNT(*) FROM u GROUP BY a",
      "SELECT tag, COUNT(*), SUM(a) FROM u GROUP BY tag",
      "SELECT u.tag, SUM(v.b) FROM u JOIN v ON u.id = v.id GROUP BY u.tag",
      "SELECT tag, COUNT(*) FROM u GROUP BY tag HAVING COUNT(*) > 1",
      "SELECT COUNT(DISTINCT a), COUNT(DISTINCT tag) FROM u",
      "SELECT tag, SUM(a) FROM u GROUP BY tag ORDER BY SUM(a) DESC",
      // DISTINCT, ORDER BY, LIMIT / OFFSET, expressions.
      "SELECT DISTINCT tag FROM u",
      "SELECT id, a FROM u ORDER BY a DESC, id",
      "SELECT id FROM u ORDER BY id LIMIT 2 OFFSET 1",
      "SELECT id FROM u ORDER BY id LIMIT 0",
      "SELECT 1 + 2, UPPER('abc')",
      "SELECT id, CASE WHEN a > 15 THEN 'hi' ELSE 'lo' END, COALESCE(tag, '?') FROM u",
      // DML: index and scan row selection, subqueries, cascade, errors.
      "UPDATE u SET a = a + 1 WHERE id = 2",
      "UPDATE v SET note = 'big' WHERE b > 850",
      "UPDATE w SET label = (SELECT MAX(tag) FROM u) WHERE k = 30",
      "UPDATE u SET id = 3 WHERE id = 4",
      "DELETE FROM parent WHERE id = 1",
      "SELECT id, pid FROM child",
      "DELETE FROM parent WHERE id = 3",
      "DELETE FROM v WHERE note = 'big'",
      "DELETE FROM w WHERE k IN (SELECT a FROM u WHERE tag = 'red')",
      "SELECT * FROM u",
      "SELECT * FROM v",
      "SELECT * FROM w",
      // Error texts.
      "SELECT nosuch FROM u",
      "SELECT id FROM nosuch",
      "SELECT id FROM u WHERE nosuch = 1",
      "INSERT INTO u VALUES (1, 2, 'x')",
      "INSERT INTO child VALUES (20, 99, 1)",
      "UPDATE nosuch SET a = 1",
  };
  std::string transcript;
  for (const std::string& sql : script) {
    transcript += sql + "\n";
    auto r = exec_.ExecuteSql(sql);
    if (!r.ok()) {
      transcript += "error: " + r.message() + "\n";
      continue;
    }
    for (const auto& column : r->columns) transcript += column + "|";
    transcript += "\n";
    for (const Row& row : r->rows) {
      for (const Value& v : row) {
        transcript += v.is_null() ? "NULL" : v.is_string() ? "'" + v.AsString() + "'"
                                                           : v.ToDisplay();
        transcript += "|";
      }
      transcript += "\n";
    }
    transcript += "affected " + std::to_string(r->affected) + "\n";
  }
  EXPECT_EQ(Fnv1a(transcript), 11749248797745189247ull) << transcript;
}

}  // namespace
}  // namespace sqlcheck
