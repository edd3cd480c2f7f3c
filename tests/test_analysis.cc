#include <gtest/gtest.h>

#include "analysis/context.h"
#include "analysis/query_analyzer.h"
#include "core/report.h"
#include "core/session.h"
#include "engine/executor.h"
#include "sql/parser.h"

namespace sqlcheck {
namespace {

QueryFacts Analyze(std::string_view text) {
  static std::vector<sql::StatementPtr> keep_alive;
  keep_alive.push_back(sql::ParseStatement(text));
  return AnalyzeQuery(*keep_alive.back());
}

TEST(QueryAnalyzerTest, SelectShape) {
  QueryFacts facts = Analyze(
      "SELECT DISTINCT a.x, COUNT(*) FROM alpha a JOIN beta b ON a.id = b.id "
      "WHERE a.x = 5 GROUP BY a.x ORDER BY RAND()");
  EXPECT_EQ(facts.kind, sql::StatementKind::kSelect);
  EXPECT_TRUE(facts.distinct);
  EXPECT_TRUE(facts.has_where);
  EXPECT_TRUE(facts.order_by_rand);
  EXPECT_EQ(facts.join_count, 1);
  EXPECT_EQ(facts.tables, (std::vector<std::string_view>{"alpha", "beta"}));
  ASSERT_EQ(facts.joins.size(), 1u);
  EXPECT_EQ(facts.joins[0].left_table, "alpha");   // alias resolved
  EXPECT_EQ(facts.joins[0].right_table, "beta");
  ASSERT_GE(facts.predicates.size(), 1u);
  EXPECT_EQ(facts.predicates[0].column, "x");
  EXPECT_EQ(facts.predicates[0].table, "alpha");
  EXPECT_EQ(facts.group_by_columns, (std::vector<std::string>{"alpha.x"}));
}

TEST(QueryAnalyzerTest, WildcardAndPatterns) {
  QueryFacts facts = Analyze("SELECT * FROM t WHERE name LIKE '%x%'");
  EXPECT_TRUE(facts.selects_wildcard);
  ASSERT_EQ(facts.patterns.size(), 1u);
  EXPECT_TRUE(facts.patterns[0].leading_wildcard);
  EXPECT_EQ(facts.patterns[0].column, "name");
  EXPECT_EQ(facts.patterns[0].table, "t");  // sole-table fallback
}

TEST(QueryAnalyzerTest, ComputedPatternDetected) {
  QueryFacts facts = Analyze(
      "SELECT * FROM a JOIN b ON a.list LIKE '[[:<:]]' || b.id || '[[:>:]]'");
  ASSERT_GE(facts.patterns.size(), 1u);
  EXPECT_TRUE(facts.patterns[0].computed_pattern);
  EXPECT_TRUE(facts.patterns[0].word_boundary);
  ASSERT_GE(facts.joins.size(), 1u);
  EXPECT_TRUE(facts.joins[0].expression_join);
}

TEST(QueryAnalyzerTest, InsertShape) {
  QueryFacts implicit = Analyze("INSERT INTO t VALUES (1)");
  EXPECT_TRUE(implicit.insert_without_columns);
  QueryFacts explicit_cols = Analyze("INSERT INTO t (a) VALUES (1)");
  EXPECT_FALSE(explicit_cols.insert_without_columns);
  EXPECT_EQ(explicit_cols.insert_columns, (std::vector<std::string_view>{"a"}));
}

TEST(QueryAnalyzerTest, UpdateAndConcatColumns) {
  QueryFacts facts =
      Analyze("UPDATE t SET label = first || '-' || last WHERE id = 3");
  EXPECT_EQ(facts.updated_columns, (std::vector<std::string_view>{"label"}));
  // Nested || nodes may re-visit operands; the contract is coverage, not
  // exact multiplicity.
  EXPECT_GE(facts.concat_columns.size(), 2u);
  bool has_first = false;
  bool has_last = false;
  for (const auto& c : facts.concat_columns) {
    if (c == "t.first") has_first = true;
    if (c == "t.last") has_last = true;
  }
  EXPECT_TRUE(has_first && has_last);
  ASSERT_GE(facts.predicates.size(), 1u);
  EXPECT_EQ(facts.predicates[0].literal, "3");
}

TEST(QueryAnalyzerTest, SubqueryFactsBubbleUp) {
  QueryFacts facts =
      Analyze("SELECT x FROM outer_t WHERE x IN (SELECT y FROM inner_t WHERE y = 1)");
  EXPECT_TRUE(facts.ReferencesTable("inner_t"));
  bool inner_predicate = false;
  for (const auto& p : facts.predicates) {
    if (p.column == "y") inner_predicate = true;
  }
  EXPECT_TRUE(inner_predicate);
}

TEST(ContextTest, CatalogFromDdlWhenNoDatabase) {
  AnalysisSession session;
  session.AddScript(
      "CREATE TABLE a (x INTEGER PRIMARY KEY);"
      "CREATE INDEX idx_ax ON a (x);"
      "SELECT x FROM a WHERE x = 1;");
  const Context& context = session.context();
  EXPECT_NE(context.catalog().FindTable("a"), nullptr);
  EXPECT_NE(context.catalog().FindIndex("idx_ax"), nullptr);
  EXPECT_FALSE(context.has_data());
  EXPECT_EQ(context.queries().size(), 3u);
  EXPECT_EQ(context.QueriesReferencing("a").size(), 3u);
  EXPECT_GE(context.EqualityUseCount("a", "x"), 1);
}

TEST(ContextTest, DatabaseBaselinePlusDdlAugmentation) {
  Database db;
  Executor exec(&db);
  exec.ExecuteSql("CREATE TABLE live (k INTEGER PRIMARY KEY)");
  exec.ExecuteSql("INSERT INTO live VALUES (1)");
  AnalysisSession session;
  session.AttachDatabase(&db);
  session.AddQuery("CREATE TABLE ddl_only (v INTEGER)");
  const Context& context = session.context();
  EXPECT_NE(context.catalog().FindTable("live"), nullptr);      // from database
  EXPECT_NE(context.catalog().FindTable("ddl_only"), nullptr);  // from workload DDL
  EXPECT_TRUE(context.has_data());
  EXPECT_NE(context.ProfileFor("live"), nullptr);
  EXPECT_EQ(context.ProfileFor("ddl_only"), nullptr);  // no data behind DDL
}

TEST(ContextTest, JoinAndFkQueries) {
  AnalysisSession session;
  session.AddScript(
      "CREATE TABLE p (id INTEGER PRIMARY KEY);"
      "CREATE TABLE c (id INTEGER PRIMARY KEY, p_id INTEGER REFERENCES p (id));"
      "SELECT c.id FROM p JOIN c ON p.id = c.p_id;");
  const Context& context = session.context();
  EXPECT_TRUE(context.TablesJoined("p", "c"));
  EXPECT_TRUE(context.TablesJoined("c", "p"));  // symmetric
  EXPECT_FALSE(context.TablesJoined("p", "x"));
  EXPECT_TRUE(context.ForeignKeyExists("c", "p"));
  EXPECT_TRUE(context.ForeignKeyExists("p", "c"));
}

TEST(ContextTest, ColumnNullability) {
  AnalysisSession session;
  session.AddQuery("CREATE TABLE t (a INTEGER NOT NULL, b INTEGER)");
  const Context& context = session.context();
  EXPECT_FALSE(context.ColumnNullable("t", "a"));
  EXPECT_TRUE(context.ColumnNullable("t", "b"));
  EXPECT_TRUE(context.ColumnNullable("missing", "c"));  // unknown = nullable
}

TEST(ReportTest, CountsAndRendering) {
  Report report;
  Finding f1;
  f1.ranked.detection.type = AntiPattern::kColumnWildcard;
  f1.ranked.detection.table = "t";
  f1.ranked.detection.message = "msg";
  f1.ranked.score = 0.5;
  f1.fix.kind = FixKind::kTextual;
  f1.fix.explanation = "do better";
  Finding f2 = f1;
  f2.ranked.detection.type = AntiPattern::kNoPrimaryKey;
  report.findings = {f1, f2};

  EXPECT_EQ(report.size(), 2u);
  EXPECT_EQ(report.DistinctTypes(), 2);
  EXPECT_EQ(report.CountsByType()[AntiPattern::kColumnWildcard], 1);
  std::string text = report.ToText();
  EXPECT_NE(text.find("Column Wildcard Usage"), std::string::npos);
  EXPECT_NE(text.find("do better"), std::string::npos);
  // Truncation marker when limited.
  EXPECT_NE(report.ToText(1).find("1 more finding"), std::string::npos);
}

}  // namespace
}  // namespace sqlcheck
