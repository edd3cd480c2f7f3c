#include "rules/registry.h"

#include <set>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "core/session.h"
#include "detected.h"
#include "engine/executor.h"
#include "persist/fingerprint_store.h"
#include "ranking/metrics.h"
#include "storage/database.h"

namespace sqlcheck {
namespace {

/// Runs detection over a workload script (optionally with a database).
std::vector<Detection> Detect(const std::string& script, const Database* db = nullptr,
                              DetectorConfig config = {}) {
  SqlCheckOptions options;
  options.detector = config;
  return Detected(script, db, options).detections;
}

int CountType(const std::vector<Detection>& detections, AntiPattern type) {
  int n = 0;
  for (const auto& d : detections) {
    if (d.type == type) ++n;
  }
  return n;
}

// --------------------------- logical design rules ---------------------------

TEST(RuleMvaTest, FiresOnWordBoundaryPattern) {
  auto d = Detect("SELECT * FROM tenants WHERE user_ids LIKE '[[:<:]]U1[[:>:]]'");
  EXPECT_GE(CountType(d, AntiPattern::kMultiValuedAttribute), 1);
}

TEST(RuleMvaTest, FiresOnIdListColumnDdl) {
  auto d = Detect("CREATE TABLE t (k INTEGER PRIMARY KEY, friend_ids TEXT)");
  EXPECT_GE(CountType(d, AntiPattern::kMultiValuedAttribute), 1);
}

TEST(RuleMvaTest, ProseColumnSuppressedByInterQueryContext) {
  std::string q = "SELECT id FROM t WHERE notes LIKE '%,%'";
  DetectorConfig intra_only;
  intra_only.inter_query = false;
  EXPECT_GE(CountType(Detect(q, nullptr, intra_only), AntiPattern::kMultiValuedAttribute),
            1);
  EXPECT_EQ(CountType(Detect(q), AntiPattern::kMultiValuedAttribute), 0);
}

TEST(RuleMvaTest, DataRuleConfirmsDelimitedColumn) {
  Database db;
  Executor exec(&db);
  exec.ExecuteSql("CREATE TABLE t (k INTEGER PRIMARY KEY, members TEXT)");
  for (int i = 0; i < 10; ++i) {
    exec.ExecuteSql("INSERT INTO t VALUES (" + std::to_string(i) + ", 'a,b,c')");
  }
  auto d = Detect("", &db);
  EXPECT_GE(CountType(d, AntiPattern::kMultiValuedAttribute), 1);
}

TEST(RuleNoPkTest, FiresOnlyWithoutPrimaryKey) {
  EXPECT_GE(CountType(Detect("CREATE TABLE t (a INT)"), AntiPattern::kNoPrimaryKey), 1);
  EXPECT_EQ(CountType(Detect("CREATE TABLE t (a INT PRIMARY KEY)"),
                      AntiPattern::kNoPrimaryKey),
            0);
  EXPECT_EQ(CountType(Detect("CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b))"),
                      AntiPattern::kNoPrimaryKey),
            0);
}

TEST(RuleNoFkTest, NeedsJoinPlusBothDdls) {
  std::string ddls =
      "CREATE TABLE tenant (tenant_id INTEGER PRIMARY KEY);"
      "CREATE TABLE questionnaire (q_id INTEGER PRIMARY KEY, tenant_id INTEGER);";
  std::string join =
      "SELECT q.q_id FROM questionnaire q JOIN tenant t ON t.tenant_id = q.tenant_id;";
  // Example 3 of the paper: DDLs alone cannot reveal the missing FK...
  EXPECT_EQ(CountType(Detect(ddls), AntiPattern::kNoForeignKey), 0);
  // ...the JOIN plus both DDLs can.
  EXPECT_GE(CountType(Detect(ddls + join), AntiPattern::kNoForeignKey), 1);
  // With the FK declared, nothing fires.
  std::string fixed =
      "CREATE TABLE tenant (tenant_id INTEGER PRIMARY KEY);"
      "CREATE TABLE questionnaire (q_id INTEGER PRIMARY KEY, tenant_id INTEGER "
      "REFERENCES tenant (tenant_id));" +
      join;
  EXPECT_EQ(CountType(Detect(fixed), AntiPattern::kNoForeignKey), 0);
}

TEST(RuleNoFkTest, DisabledWithoutInterQueryAnalysis) {
  std::string workload =
      "CREATE TABLE a (x INTEGER PRIMARY KEY);"
      "CREATE TABLE b (y INTEGER PRIMARY KEY, x INTEGER);"
      "SELECT b.y FROM a JOIN b ON a.x = b.x;";
  DetectorConfig intra_only;
  intra_only.inter_query = false;
  EXPECT_EQ(CountType(Detect(workload, nullptr, intra_only), AntiPattern::kNoForeignKey),
            0);
}

TEST(RuleGenericPkTest, FlagsIdOnly) {
  EXPECT_GE(CountType(Detect("CREATE TABLE t (id INTEGER PRIMARY KEY)"),
                      AntiPattern::kGenericPrimaryKey),
            1);
  EXPECT_EQ(CountType(Detect("CREATE TABLE t (t_id INTEGER PRIMARY KEY)"),
                      AntiPattern::kGenericPrimaryKey),
            0);
}

TEST(RuleDataInMetadataTest, NumberedColumnSeries) {
  EXPECT_GE(CountType(Detect("CREATE TABLE t (k INT PRIMARY KEY, tag1 TEXT, tag2 TEXT, "
                             "tag3 TEXT)"),
                      AntiPattern::kDataInMetadata),
            1);
  EXPECT_EQ(CountType(Detect("CREATE TABLE t (k INT PRIMARY KEY, alpha TEXT, beta TEXT)"),
                      AntiPattern::kDataInMetadata),
            0);
}

TEST(RuleAdjacencyListTest, SelfReference) {
  EXPECT_GE(CountType(Detect("CREATE TABLE emp (emp_id INTEGER PRIMARY KEY, mgr_id "
                             "INTEGER REFERENCES emp (emp_id))"),
                      AntiPattern::kAdjacencyList),
            1);
  EXPECT_EQ(CountType(Detect("CREATE TABLE emp (emp_id INTEGER PRIMARY KEY, dept_id "
                             "INTEGER REFERENCES dept (dept_id))"),
                      AntiPattern::kAdjacencyList),
            0);
}

TEST(RuleGodTableTest, ThresholdIsConfigurable) {
  std::string wide = "CREATE TABLE t (c0 INT PRIMARY KEY";
  for (int i = 1; i < 12; ++i) wide += ", col_" + std::string(1, char('a' + i)) + " INT";
  wide += ")";
  EXPECT_GE(CountType(Detect(wide), AntiPattern::kGodTable), 1);
  DetectorConfig relaxed;
  relaxed.god_table_columns = 20;
  EXPECT_EQ(CountType(Detect(wide, nullptr, relaxed), AntiPattern::kGodTable), 0);
}

// --------------------------- physical design rules --------------------------

TEST(RuleRoundingTest, FlagsFloatNotNumeric) {
  EXPECT_GE(CountType(Detect("CREATE TABLE t (price FLOAT)"),
                      AntiPattern::kRoundingErrors),
            1);
  EXPECT_EQ(CountType(Detect("CREATE TABLE t (price NUMERIC(10, 2))"),
                      AntiPattern::kRoundingErrors),
            0);
}

TEST(RuleEnumTest, FiresOnEnumTypeAndCheckInList) {
  EXPECT_GE(CountType(Detect("CREATE TABLE t (s ENUM('a', 'b'))"),
                      AntiPattern::kEnumeratedTypes),
            1);
  EXPECT_GE(CountType(Detect("CREATE TABLE t (s VARCHAR(4) CHECK (s IN ('a', 'b')))"),
                      AntiPattern::kEnumeratedTypes),
            1);
  // Example 4's ALTER form.
  EXPECT_GE(CountType(Detect("ALTER TABLE u ADD CONSTRAINT c CHECK (role IN ('R1', "
                             "'R2', 'R3'))"),
                      AntiPattern::kEnumeratedTypes),
            1);
  // A range CHECK is NOT an enumerated domain.
  EXPECT_EQ(CountType(Detect("CREATE TABLE t (r INT CHECK (r BETWEEN 1 AND 5))"),
                      AntiPattern::kEnumeratedTypes),
            0);
}

TEST(RuleExternalStorageTest, PathColumns) {
  EXPECT_GE(CountType(Detect("CREATE TABLE docs (doc_id INT PRIMARY KEY, file_path "
                             "VARCHAR(255))"),
                      AntiPattern::kExternalDataStorage),
            1);
  EXPECT_EQ(CountType(Detect("CREATE TABLE docs (doc_id INT PRIMARY KEY, body TEXT)"),
                      AntiPattern::kExternalDataStorage),
            0);
}

TEST(RuleIndexOveruseTest, RedundantPrefixIndex) {
  // Example 5, workload 1: composite (zone, active) makes the single-column
  // zone index redundant when queries always filter both.
  std::string workload =
      "CREATE TABLE tenant (tenant_id INTEGER PRIMARY KEY, zone_id VARCHAR(8), active "
      "BOOLEAN);"
      "CREATE INDEX idx_zone_actv ON tenant (zone_id, active);"
      "CREATE INDEX idx_zone ON tenant (zone_id);"
      "SELECT tenant_id FROM tenant WHERE zone_id = 'Z1' AND active = true;";
  EXPECT_GE(CountType(Detect(workload), AntiPattern::kIndexOveruse), 1);

  // Workload 2: queries also use zone_id alone — the single index earns its
  // keep and must NOT be flagged.
  std::string workload2 = workload + "SELECT tenant_id FROM tenant WHERE zone_id = 'Z1';";
  EXPECT_EQ(CountType(Detect(workload2), AntiPattern::kIndexOveruse), 0);
}

TEST(RuleIndexOveruseTest, TooManyIndexes) {
  std::string workload =
      "CREATE TABLE t (a INT PRIMARY KEY, b INT, c INT, d INT, e INT);"
      "CREATE INDEX i1 ON t (b); CREATE INDEX i2 ON t (c);"
      "CREATE INDEX i3 ON t (d); CREATE INDEX i4 ON t (e);";
  EXPECT_GE(CountType(Detect(workload), AntiPattern::kIndexOveruse), 1);
}

TEST(RuleIndexUnderuseTest, UnindexedFilterColumn) {
  std::string workload =
      "CREATE TABLE t (k INTEGER PRIMARY KEY, owner VARCHAR(20));"
      "SELECT k FROM t WHERE owner = 'x';";
  EXPECT_GE(CountType(Detect(workload), AntiPattern::kIndexUnderuse), 1);
  std::string indexed = workload + "CREATE INDEX idx_owner ON t (owner);";
  EXPECT_EQ(CountType(Detect(indexed), AntiPattern::kIndexUnderuse), 0);
  // PK filters are implicitly indexed.
  std::string pk_only =
      "CREATE TABLE t (k INTEGER PRIMARY KEY); SELECT k FROM t WHERE k = 1;";
  EXPECT_EQ(CountType(Detect(pk_only), AntiPattern::kIndexUnderuse), 0);
}

TEST(RuleIndexUnderuseTest, LowCardinalitySuppressedByDataAnalysis) {
  // Fig. 8c's lesson: indexing a 2-value column does not pay; the data rule
  // suppresses the naive suggestion.
  Database db;
  Executor exec(&db);
  exec.ExecuteSql("CREATE TABLE t (k INTEGER PRIMARY KEY, flag VARCHAR(2))");
  for (int i = 0; i < 300; ++i) {
    exec.ExecuteSql("INSERT INTO t VALUES (" + std::to_string(i) + ", 'F" +
                    std::to_string(i % 2) + "')");
  }
  std::string query = "SELECT k FROM t WHERE flag = 'F1';";
  EXPECT_EQ(CountType(Detect(query, &db), AntiPattern::kIndexUnderuse), 0);
  // Without data analysis the naive rule would have flagged it.
  DetectorConfig no_data;
  no_data.data_analysis = false;
  EXPECT_GE(CountType(Detect(query, &db, no_data), AntiPattern::kIndexUnderuse), 1);
}

TEST(RuleCloneTableTest, NumericSuffixFamily) {
  std::string clones =
      "CREATE TABLE sales_2019 (k INT PRIMARY KEY);"
      "CREATE TABLE sales_2020 (k INT PRIMARY KEY);";
  EXPECT_GE(CountType(Detect(clones), AntiPattern::kCloneTable), 1);
  // A lone suffixed table is not a clone family.
  EXPECT_EQ(CountType(Detect("CREATE TABLE snapshot_7 (k INT PRIMARY KEY)"),
                      AntiPattern::kCloneTable),
            0);
}

// ------------------------------- query rules --------------------------------

TEST(RuleWildcardTest, SelectStarOnly) {
  EXPECT_GE(CountType(Detect("SELECT * FROM t"), AntiPattern::kColumnWildcard), 1);
  EXPECT_EQ(CountType(Detect("SELECT a, b FROM t"), AntiPattern::kColumnWildcard), 0);
}

TEST(RuleConcatNullsTest, NullableColumnsOnly) {
  std::string nullable =
      "CREATE TABLE p (first VARCHAR(10), last VARCHAR(10));"
      "SELECT first || ' ' || last FROM p;";
  EXPECT_GE(CountType(Detect(nullable), AntiPattern::kConcatenateNulls), 1);
  std::string not_null =
      "CREATE TABLE p (first VARCHAR(10) NOT NULL, last VARCHAR(10) NOT NULL);"
      "SELECT first || ' ' || last FROM p;";
  EXPECT_EQ(CountType(Detect(not_null), AntiPattern::kConcatenateNulls), 0);
}

TEST(RuleOrderByRandTest, RandAndRandom) {
  EXPECT_GE(CountType(Detect("SELECT a FROM t ORDER BY RAND()"),
                      AntiPattern::kOrderingByRand),
            1);
  EXPECT_GE(CountType(Detect("SELECT a FROM t ORDER BY RANDOM() LIMIT 1"),
                      AntiPattern::kOrderingByRand),
            1);
  EXPECT_EQ(CountType(Detect("SELECT a FROM t ORDER BY a"),
                      AntiPattern::kOrderingByRand),
            0);
}

TEST(RulePatternMatchingTest, LeadingWildcardAndRegex) {
  EXPECT_GE(CountType(Detect("SELECT a FROM t WHERE name LIKE '%son'"),
                      AntiPattern::kPatternMatching),
            1);
  EXPECT_GE(CountType(Detect("SELECT a FROM t WHERE name REGEXP '^ab'"),
                      AntiPattern::kPatternMatching),
            1);
  // Prefix LIKE is index-friendly: not an AP.
  EXPECT_EQ(CountType(Detect("SELECT a FROM t WHERE name LIKE 'jo%'"),
                      AntiPattern::kPatternMatching),
            0);
}

TEST(RuleImplicitColumnsTest, InsertWithoutColumnList) {
  EXPECT_GE(CountType(Detect("INSERT INTO t VALUES (1, 2)"),
                      AntiPattern::kImplicitColumns),
            1);
  EXPECT_EQ(CountType(Detect("INSERT INTO t (a, b) VALUES (1, 2)"),
                      AntiPattern::kImplicitColumns),
            0);
}

TEST(RuleDistinctJoinTest, RequiresBoth) {
  EXPECT_GE(CountType(Detect("SELECT DISTINCT a.x FROM a JOIN b ON a.id = b.id"),
                      AntiPattern::kDistinctAndJoin),
            1);
  EXPECT_EQ(CountType(Detect("SELECT DISTINCT x FROM a"),
                      AntiPattern::kDistinctAndJoin),
            0);
  EXPECT_EQ(CountType(Detect("SELECT a.x FROM a JOIN b ON a.id = b.id"),
                      AntiPattern::kDistinctAndJoin),
            0);
}

TEST(RuleTooManyJoinsTest, CountsImplicitAndExplicit) {
  std::string six_way =
      "SELECT t0.x FROM a t0 JOIN a t1 ON t0.x = t1.x JOIN a t2 ON t1.x = t2.x "
      "JOIN a t3 ON t2.x = t3.x JOIN a t4 ON t3.x = t4.x JOIN a t5 ON t4.x = t5.x";
  EXPECT_GE(CountType(Detect(six_way), AntiPattern::kTooManyJoins), 1);
  EXPECT_EQ(CountType(Detect("SELECT x FROM a JOIN b ON a.x = b.x"),
                      AntiPattern::kTooManyJoins),
            0);
}

TEST(RuleReadablePasswordTest, ColumnAndLiteralComparison) {
  EXPECT_GE(CountType(Detect("CREATE TABLE u (id INT PRIMARY KEY, password VARCHAR(32))"),
                      AntiPattern::kReadablePassword),
            1);
  EXPECT_GE(CountType(Detect("SELECT id FROM u WHERE password = 'hunter2'"),
                      AntiPattern::kReadablePassword),
            1);
  EXPECT_EQ(CountType(Detect("CREATE TABLE u (id INT PRIMARY KEY, pass_hash "
                             "VARCHAR(64))"),
                      AntiPattern::kReadablePassword),
            0);
}

// -------------------------------- data rules --------------------------------

class DataRuleTest : public ::testing::Test {
 protected:
  DataRuleTest() : exec_(&db_) {}

  void Run(const std::string& sql_text) {
    auto r = exec_.ExecuteSql(sql_text);
    ASSERT_TRUE(r.ok()) << r.message();
  }

  std::vector<Detection> DetectData() {
    DetectorConfig config;
    config.intra_query = false;
    return Detect("", &db_, config);
  }

  Database db_;
  Executor exec_;
};

TEST_F(DataRuleTest, MissingTimezoneOnTzLessType) {
  Run("CREATE TABLE e (k INTEGER PRIMARY KEY, at TIMESTAMP)");
  for (int i = 0; i < 6; ++i) {
    Run("INSERT INTO e VALUES (" + std::to_string(i) + ", '2020-01-0" +
        std::to_string(1 + i) + " 10:00:00')");
  }
  EXPECT_GE(CountType(DetectData(), AntiPattern::kMissingTimezone), 1);
}

TEST_F(DataRuleTest, IncorrectDataTypeNumericStrings) {
  Run("CREATE TABLE t (k INTEGER PRIMARY KEY, reading TEXT)");
  for (int i = 0; i < 8; ++i) {
    Run("INSERT INTO t VALUES (" + std::to_string(i) + ", '" + std::to_string(100 + i) +
        "')");
  }
  EXPECT_GE(CountType(DetectData(), AntiPattern::kIncorrectDataType), 1);
}

TEST_F(DataRuleTest, IncorrectDataTypeQuietOnRealText) {
  Run("CREATE TABLE t (k INTEGER PRIMARY KEY, word TEXT)");
  for (int i = 0; i < 8; ++i) {
    Run("INSERT INTO t VALUES (" + std::to_string(i) + ", 'word" + std::to_string(i) +
        "')");
  }
  EXPECT_EQ(CountType(DetectData(), AntiPattern::kIncorrectDataType), 0);
}

TEST_F(DataRuleTest, DenormalizedFunctionalDependency) {
  Run("CREATE TABLE t (k INTEGER PRIMARY KEY, team VARCHAR(4), city VARCHAR(12))");
  for (int i = 0; i < 12; ++i) {
    int team = i % 3;
    Run("INSERT INTO t VALUES (" + std::to_string(i) + ", 'T" + std::to_string(team) +
        "', 'city" + std::to_string(team) + "')");
  }
  EXPECT_GE(CountType(DetectData(), AntiPattern::kDenormalizedTable), 1);
}

TEST_F(DataRuleTest, InformationDuplicationAgeDob) {
  Run("CREATE TABLE p (k INTEGER PRIMARY KEY, birth_year INTEGER, age INTEGER)");
  for (int i = 0; i < 6; ++i) {
    Run("INSERT INTO p VALUES (" + std::to_string(i) + ", 1990, 30)");
  }
  EXPECT_GE(CountType(DetectData(), AntiPattern::kInformationDuplication), 1);
}

TEST_F(DataRuleTest, InformationDuplicationDerivedSum) {
  Run("CREATE TABLE o (k INTEGER PRIMARY KEY, net INTEGER, tax INTEGER, gross INTEGER)");
  for (int i = 0; i < 8; ++i) {
    Run("INSERT INTO o VALUES (" + std::to_string(i) + ", " + std::to_string(100 + i) +
        ", " + std::to_string(10 + i) + ", " + std::to_string(110 + 2 * i) + ")");
  }
  EXPECT_GE(CountType(DetectData(), AntiPattern::kInformationDuplication), 1);
}

TEST_F(DataRuleTest, RedundantColumnAllNullsOrConstant) {
  Run("CREATE TABLE t (k INTEGER PRIMARY KEY, dead TEXT, locale VARCHAR(8))");
  for (int i = 0; i < 8; ++i) {
    Run("INSERT INTO t (k, locale) VALUES (" + std::to_string(i) + ", 'en-us')");
  }
  EXPECT_GE(CountType(DetectData(), AntiPattern::kRedundantColumn), 2);
}

TEST_F(DataRuleTest, NoDomainConstraintOnBoundedColumn) {
  Run("CREATE TABLE r (k INTEGER PRIMARY KEY, rating INTEGER)");
  for (int i = 0; i < 10; ++i) {
    Run("INSERT INTO r VALUES (" + std::to_string(i) + ", " + std::to_string(1 + i % 5) +
        ")");
  }
  EXPECT_GE(CountType(DetectData(), AntiPattern::kNoDomainConstraint), 1);
}

TEST_F(DataRuleTest, NoDomainConstraintQuietWithCheck) {
  Run("CREATE TABLE r (k INTEGER PRIMARY KEY, rating INTEGER CHECK (rating BETWEEN 1 "
      "AND 5))");
  for (int i = 0; i < 10; ++i) {
    Run("INSERT INTO r VALUES (" + std::to_string(i) + ", " + std::to_string(1 + i % 5) +
        ")");
  }
  EXPECT_EQ(CountType(DetectData(), AntiPattern::kNoDomainConstraint), 0);
}

// ------------------------------- registry -----------------------------------

TEST(RegistryTest, DefaultHasAllRules) {
  EXPECT_EQ(RuleRegistry::Default().size(), static_cast<size_t>(kAntiPatternCount));
}

TEST(RegistryTest, CustomRuleIsInvoked) {
  class AlwaysFires final : public Rule {
   public:
    AntiPattern type() const override { return AntiPattern::kGodTable; }
    void CheckQuery(const QueryFacts& facts, const Context&, const DetectorConfig&,
                    std::vector<Detection>* out) const override {
      Detection d;
      d.type = type();
      d.query = facts.raw_sql;
      d.message = "custom";
      out->push_back(std::move(d));
    }
  };
  AnalysisSession session;
  session.RegisterRule(std::make_unique<AlwaysFires>());
  session.AddQuery("SELECT 1");
  Report report = session.Snapshot();
  ASSERT_EQ(report.size(), 1u);  // the built-in rules find nothing here
  EXPECT_EQ(report.findings[0].ranked.detection.message, "custom");
}

TEST(RegistryTest, BuiltinRuleTableCoversEveryAntiPatternOnce) {
  // The table's static_asserts catch a missing or misordered row, not a
  // wrong scope (a workload rule scoped statement-local would replay stale
  // detections) or metrics filed under the wrong type. The metrics digest
  // covers all 27 x 6 default values in type order; the ruleset hash keys
  // every scan store, so a change there cold-rebuilds existing stores. Fix
  // the row, do not re-record a pin.
  const std::set<AntiPattern> statement_local = {
      AntiPattern::kNoPrimaryKey,     AntiPattern::kGenericPrimaryKey,
      AntiPattern::kDataInMetadata,   AntiPattern::kAdjacencyList,
      AntiPattern::kGodTable,         AntiPattern::kRoundingErrors,
      AntiPattern::kEnumeratedTypes,  AntiPattern::kExternalDataStorage,
      AntiPattern::kColumnWildcard,   AntiPattern::kOrderingByRand,
      AntiPattern::kPatternMatching,  AntiPattern::kImplicitColumns,
      AntiPattern::kDistinctAndJoin,  AntiPattern::kTooManyJoins,
      AntiPattern::kReadablePassword, AntiPattern::kMissingTimezone,
  };
  ASSERT_EQ(statement_local.size(), 16u);
  RuleRegistry registry = RuleRegistry::Default();
  ASSERT_EQ(registry.size(), static_cast<size_t>(kAntiPatternCount));
  const MetricsStore metrics = MetricsStore::Default();
  uint64_t digest = kFnv1aBasis;
  for (int i = 0; i < kAntiPatternCount; ++i) {
    const auto t = static_cast<AntiPattern>(i);
    SCOPED_TRACE(ApName(t));
    EXPECT_EQ(InfoFor(t).type, t);
    EXPECT_NE(ApName(t), nullptr);
    const Rule* rule = registry.FindRule(t);
    ASSERT_NE(rule, nullptr);
    EXPECT_EQ(rule->type(), t);
    EXPECT_EQ(registry.rules()[i]->type(), t);  // registration order is enum order
    EXPECT_EQ(rule->query_scope() == QueryRuleScope::kStatementLocal,
              statement_local.count(t) == 1);
    const ApMetrics& m = metrics.For(t);
    const double values[] = {m.read_speedup,
                             m.write_speedup,
                             m.maintainability,
                             m.data_amplification,
                             static_cast<double>(m.data_integrity),
                             static_cast<double>(m.accuracy)};
    digest = Fnv1a(values, sizeof(values), digest);
  }
  EXPECT_EQ(digest, 4171461983230551332u);
  // RulesetHash folds in the store format version (6), so this pin moves
  // with the format and with nothing else.
  EXPECT_EQ(persist::FingerprintStore::RulesetHash(registry), 1999852087614236539u);
}

}  // namespace
}  // namespace sqlcheck
