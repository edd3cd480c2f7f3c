#include "fix/fix_engine.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "detected.h"
#include "engine/executor.h"
#include "fix/fixers.h"
#include "rules/registry.h"
#include "sql/parser.h"

namespace sqlcheck {
namespace {

/// Detects in `script` (optionally with data) and returns the fix for the
/// first detection of `type`.
struct FixResult {
  Fix fix;
  bool found = false;
};

FixResult FixFor(const std::string& script, AntiPattern type,
                 const Database* db = nullptr) {
  Detected detected(script, db);
  RuleRegistry registry = RuleRegistry::Default();
  FixEngine engine(registry, DetectorConfig{});
  for (const auto& d : detected.detections) {
    if (d.type == type) return {engine.SuggestFix(d, detected.context()), true};
  }
  return {};
}

TEST(FixTest, ImplicitColumnsRewriteAddsColumnList) {
  auto r = FixFor(
      "CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(5));"
      "INSERT INTO t VALUES (1, 'x');",
      AntiPattern::kImplicitColumns);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.fix.kind, FixKind::kRewrite);
  ASSERT_EQ(r.fix.statements.size(), 1u);
  EXPECT_EQ(r.fix.statements[0], "INSERT INTO t (a, b) VALUES (1, 'x')");
  // One edit: the column list after the table name.
  ASSERT_EQ(r.fix.edits.size(), 1u);
  EXPECT_EQ(r.fix.edits[0].offset, 13u);
  EXPECT_EQ(r.fix.edits[0].length, 0u);
  EXPECT_EQ(r.fix.edits[0].text, " (a, b)");
  // The rewrite must parse.
  EXPECT_EQ(sql::ParseStatement(r.fix.statements[0])->kind, sql::StatementKind::kInsert);
}

TEST(FixTest, ImplicitColumnsFallsBackWithoutSchema) {
  auto r = FixFor("INSERT INTO mystery VALUES (1)", AntiPattern::kImplicitColumns);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.fix.kind, FixKind::kTextual);
}

TEST(FixTest, WildcardExpansionUsesCatalog) {
  auto r = FixFor(
      "CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(5), c VARCHAR(5));"
      "SELECT * FROM t;",
      AntiPattern::kColumnWildcard);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.fix.kind, FixKind::kRewrite);
  EXPECT_EQ(r.fix.statements[0], "SELECT a, b, c FROM t");
}

TEST(FixTest, ConcatNullsWrapsInCoalesce) {
  auto r = FixFor(
      "CREATE TABLE p (first VARCHAR(10), last VARCHAR(10));"
      "SELECT first || ' ' || last FROM p;",
      AntiPattern::kConcatenateNulls);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.fix.kind, FixKind::kRewrite);
  EXPECT_NE(r.fix.statements[0].find("COALESCE(first, '')"), std::string::npos)
      << r.fix.statements[0];
}

TEST(FixTest, ConcatNullsFixActuallyFixesTheQuery) {
  // End-to-end: run the rewritten query and observe the NULL no longer voids
  // the result.
  Database db;
  Executor exec(&db);
  exec.ExecuteSql("CREATE TABLE p (first VARCHAR(10), last VARCHAR(10))");
  exec.ExecuteSql("INSERT INTO p (first, last) VALUES ('prince', NULL)");
  auto r = FixFor(
      "CREATE TABLE p (first VARCHAR(10), last VARCHAR(10));"
      "SELECT first || ' ' || last FROM p;",
      AntiPattern::kConcatenateNulls);
  ASSERT_TRUE(r.found);
  auto result = exec.ExecuteSql(r.fix.statements[0]);
  ASSERT_TRUE(result.ok()) << result.message();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsString(), "prince ");
}

TEST(FixTest, IndexUnderuseCreatesIndexThatExecutes) {
  Database db;
  Executor exec(&db);
  exec.ExecuteSql("CREATE TABLE t (k INTEGER PRIMARY KEY, owner VARCHAR(10))");
  auto r = FixFor(
      "CREATE TABLE t (k INTEGER PRIMARY KEY, owner VARCHAR(10));"
      "SELECT k FROM t WHERE owner = 'x';",
      AntiPattern::kIndexUnderuse);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.fix.kind, FixKind::kRewrite);
  auto result = exec.ExecuteSql(r.fix.statements[0]);
  EXPECT_TRUE(result.ok()) << result.message();
  EXPECT_NE(db.GetTable("t")->FindIndexOnColumn("owner"), nullptr);
}

TEST(FixTest, NoForeignKeyEmitsAddConstraint) {
  auto r = FixFor(
      "CREATE TABLE a (x INTEGER PRIMARY KEY);"
      "CREATE TABLE b (y INTEGER PRIMARY KEY, x INTEGER);"
      "SELECT b.y FROM a JOIN b ON a.x = b.x;",
      AntiPattern::kNoForeignKey);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.fix.kind, FixKind::kRewrite);
  EXPECT_NE(r.fix.statements[0].find("FOREIGN KEY (x) REFERENCES a"), std::string::npos)
      << r.fix.statements[0];
}

TEST(FixTest, NoPrimaryKeyPicksUniqueColumnFromData) {
  Database db;
  Executor exec(&db);
  exec.ExecuteSql("CREATE TABLE t (code VARCHAR(8), v INTEGER)");
  for (int i = 0; i < 10; ++i) {
    exec.ExecuteSql("INSERT INTO t VALUES ('c" + std::to_string(i) + "', 1)");
  }
  auto r = FixFor("CREATE TABLE t (code VARCHAR(8), v INTEGER);",
                  AntiPattern::kNoPrimaryKey, &db);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.fix.kind, FixKind::kRewrite);
  EXPECT_NE(r.fix.statements[0].find("ADD PRIMARY KEY (code)"), std::string::npos);
}

TEST(FixTest, MvaFixBuildsIntersectionTableAndListsImpactedQueries) {
  auto r = FixFor(
      "CREATE TABLE tenants (tenant_id VARCHAR(8) PRIMARY KEY, user_ids TEXT);"
      "SELECT * FROM tenants WHERE user_ids LIKE '[[:<:]]U1[[:>:]]';"
      "SELECT tenant_id FROM tenants WHERE user_ids LIKE '%,U2,%';",
      AntiPattern::kMultiValuedAttribute);
  ASSERT_TRUE(r.found);
  ASSERT_GE(r.fix.statements.size(), 2u);
  EXPECT_NE(r.fix.statements[0].find("CREATE TABLE"), std::string::npos);
  EXPECT_NE(r.fix.statements[1].find("DROP COLUMN user_ids"), std::string::npos);
  // Algorithm 4's impacted-query set: the other statements touching tenants.
  EXPECT_GE(r.fix.impacted_queries.size(), 1u);
}

TEST(FixTest, EnumeratedTypesBuildsLookupTable) {
  auto r = FixFor(
      "CREATE TABLE users (user_id INTEGER PRIMARY KEY, role VARCHAR(4) CHECK (role IN "
      "('R1', 'R2')));",
      AntiPattern::kEnumeratedTypes);
  ASSERT_TRUE(r.found);
  ASSERT_GE(r.fix.statements.size(), 3u);
  EXPECT_NE(r.fix.statements[0].find("role_lookup"), std::string::npos);
}

TEST(FixTest, RoundingErrorsAltersToNumeric) {
  auto r = FixFor("CREATE TABLE t (k INTEGER PRIMARY KEY, price FLOAT);",
                  AntiPattern::kRoundingErrors);
  ASSERT_TRUE(r.found);
  EXPECT_NE(r.fix.statements[0].find("TYPE NUMERIC"), std::string::npos);
}

TEST(FixTest, TextualFixesCarryGuidance) {
  auto rand_fix = FixFor("SELECT a FROM t ORDER BY RAND()", AntiPattern::kOrderingByRand);
  ASSERT_TRUE(rand_fix.found);
  EXPECT_EQ(rand_fix.fix.kind, FixKind::kTextual);
  EXPECT_FALSE(rand_fix.fix.explanation.empty());

  auto joins = FixFor(
      "SELECT t0.x FROM a t0 JOIN a t1 ON t0.x = t1.x JOIN a t2 ON t1.x = t2.x JOIN a "
      "t3 ON t2.x = t3.x JOIN a t4 ON t3.x = t4.x JOIN a t5 ON t4.x = t5.x",
      AntiPattern::kTooManyJoins);
  ASSERT_TRUE(joins.found);
  EXPECT_EQ(joins.fix.kind, FixKind::kTextual);
}

TEST(FixTest, EveryDetectionGetsSomeFix) {
  // Batch API covers all detections in ranked order.
  Detected detected(
      "CREATE TABLE t (id INTEGER PRIMARY KEY, tags TEXT, price FLOAT, password "
      "VARCHAR(20));"
      "SELECT * FROM t ORDER BY RAND();"
      "INSERT INTO t VALUES (1, 'a,b', 1.5, 'pw');");
  ASSERT_GE(detected.detections.size(), 4u);
  RuleRegistry registry = RuleRegistry::Default();
  FixEngine engine(registry);
  auto fixes = engine.SuggestFixes(detected.detections, detected.context());
  ASSERT_EQ(fixes.size(), detected.detections.size());
  for (const auto& fix : fixes) {
    EXPECT_TRUE(!fix.explanation.empty() || !fix.statements.empty());
  }
}

TEST(FixTest, RewrittenStatementsAllParse) {
  Detected detected(
      "CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(5));"
      "INSERT INTO t VALUES (1, 'x');"
      "SELECT * FROM t;");
  RuleRegistry registry = RuleRegistry::Default();
  FixEngine engine(registry);
  for (const auto& fix : engine.SuggestFixes(detected.detections, detected.context())) {
    if (fix.kind != FixKind::kRewrite) continue;
    for (const auto& stmt : fix.statements) {
      EXPECT_NE(sql::ParseStatement(stmt)->kind, sql::StatementKind::kUnknown)
          << "unparseable fix: " << stmt;
    }
  }
}

TEST(FixTest, BuiltinFixerTableCoversEveryAntiPatternOnce) {
  // The table's row-count static_assert cannot catch a row filed under the
  // wrong type, a wrong cache scope (a workload fixer scoped statement-local
  // would replay stale fixes), or a contract text that drifts from the
  // declared Tier-3 contract.
  const std::set<AntiPattern> statement_local = {
      AntiPattern::kPatternMatching,        AntiPattern::kAdjacencyList,
      AntiPattern::kGenericPrimaryKey,      AntiPattern::kDistinctAndJoin,
      AntiPattern::kTooManyJoins,           AntiPattern::kGodTable,
      AntiPattern::kDataInMetadata,         AntiPattern::kCloneTable,
      AntiPattern::kExternalDataStorage,    AntiPattern::kReadablePassword,
      AntiPattern::kInformationDuplication, AntiPattern::kDenormalizedTable,
  };
  ASSERT_EQ(statement_local.size(), 12u);
  RuleRegistry registry = RuleRegistry::Default();
  for (int i = 0; i < kAntiPatternCount; ++i) {
    const auto t = static_cast<AntiPattern>(i);
    SCOPED_TRACE(ApName(t));
    const Fixer* fixer = registry.FindFixer(t);
    ASSERT_NE(fixer, nullptr);
    EXPECT_EQ(fixer->type(), t);
    EXPECT_EQ(fixer->fix_scope() == QueryRuleScope::kStatementLocal,
              statement_local.count(t) == 1);
    const std::string contract = FixerContract(t);
    const bool names_contract =
        contract.find(EquivalenceContractName(fixer->equivalence())) !=
        std::string::npos;
    EXPECT_EQ(names_contract,
              fixer->equivalence() != EquivalenceContract::kNotApplicable)
        << contract;
  }
}

}  // namespace
}  // namespace sqlcheck
