// Query fingerprint dedup: memoized analysis + rule evaluation must be
// invisible in the output — reports byte-identical to an unmemoized run,
// with per-occurrence raw text preserved.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/context.h"
#include "core/sqlcheck.h"
#include "rules/registry.h"
#include "sql/fingerprint.h"

namespace sqlcheck {
namespace {

// Duplicate-heavy workload: repeated templates with whitespace / keyword-case
// jitter, plus literal-differing near-duplicates that must NOT be merged.
const char* kDuplicateScript =
    "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(64), password VARCHAR(64));\n"
    "SELECT * FROM users WHERE id = ?;\n"
    "select * from users where id = ?;\n"
    "SELECT   *   FROM users WHERE id = ?;\n"
    "SELECT * FROM users WHERE id = ? -- lookup\n;\n"
    "SELECT name FROM users WHERE name LIKE '%smith';\n"
    "SELECT name FROM users WHERE name LIKE 'smith%';\n"
    "SELECT name FROM users WHERE name LIKE '%smith';\n"
    "INSERT INTO users VALUES (1, 'a', 'b');\n"
    "INSERT INTO users VALUES (1, 'a', 'b');\n"
    "SELECT u.name FROM users u ORDER BY RAND();\n";

std::string RunReport(bool dedup) {
  SqlCheckOptions options;
  options.dedup_queries = dedup;
  SqlCheck checker(options);
  checker.AddScript(kDuplicateScript);
  return checker.Run().ToText();
}

TEST(DedupTest, ReportByteIdenticalWithAndWithoutDedup) {
  std::string reference = RunReport(false);
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(RunReport(true), reference);
}

TEST(DedupTest, GroupsCollapseWhitespaceCaseAndComments) {
  ContextBuilder builder;
  builder.AddQuery("SELECT * FROM t WHERE a = 1");
  builder.AddQuery("select * from t where a = 1");
  builder.AddQuery("SELECT *  FROM t /* hint */ WHERE a = 1");
  builder.AddQuery("SELECT * FROM t WHERE a = 2");  // different literal
  Context context = builder.Build();

  const QueryGroups& groups = context.query_groups();
  ASSERT_EQ(groups.representative.size(), 4u);
  EXPECT_EQ(groups.unique_count(), 2u);
  EXPECT_TRUE(groups.has_duplicates());
  EXPECT_EQ(groups.representative[0], 0u);
  EXPECT_EQ(groups.representative[1], 0u);
  EXPECT_EQ(groups.representative[2], 0u);
  EXPECT_EQ(groups.representative[3], 3u);
  EXPECT_EQ(groups.fingerprints[0], groups.fingerprints[1]);
  EXPECT_EQ(groups.fingerprints[0], groups.fingerprints[2]);
  EXPECT_NE(groups.fingerprints[0], groups.fingerprints[3]);
}

TEST(DedupTest, SharedFactsAreRebasedOntoEachOccurrence) {
  ContextBuilder builder;
  builder.AddQuery("SELECT * FROM t");
  builder.AddQuery("select  *  from t");
  Context context = builder.Build();

  ASSERT_EQ(context.queries().size(), 2u);
  EXPECT_EQ(context.queries()[0].raw_sql, "SELECT * FROM t");
  EXPECT_EQ(context.queries()[1].raw_sql, "select  *  from t");
  EXPECT_NE(context.queries()[0].stmt, context.queries()[1].stmt);
  EXPECT_TRUE(context.queries()[1].selects_wildcard);
}

TEST(DedupTest, DetectionsCarryPerOccurrenceRawSql) {
  ContextBuilder builder;
  builder.AddQuery("SELECT * FROM t");
  builder.AddQuery("select  *  from t");
  Context context = builder.Build();

  DetectorConfig config;
  config.data_analysis = false;
  auto detections = DetectAntiPatterns(context, RuleRegistry::Default(), config);
  ASSERT_EQ(detections.size(), 2u);
  EXPECT_EQ(detections[0].query, "SELECT * FROM t");
  EXPECT_EQ(detections[1].query, "select  *  from t");
  EXPECT_EQ(detections[1].stmt, context.queries()[1].stmt);
}

TEST(DedupTest, CustomRuleDetectionsFanOutPerOccurrence) {
  class EchoRule final : public Rule {
   public:
    AntiPattern type() const override { return AntiPattern::kGodTable; }
    void CheckQuery(const QueryFacts& facts, const Context&, const DetectorConfig&,
                    std::vector<Detection>* out) const override {
      Detection d;
      d.type = type();
      d.query = facts.raw_sql;
      d.stmt = facts.stmt;
      d.message = "echo";
      out->push_back(std::move(d));
    }
  };
  RuleRegistry registry;
  registry.Register(std::make_unique<EchoRule>());

  ContextBuilder builder;
  builder.AddQuery("SELECT a FROM t");
  builder.AddQuery("SELECT  a  FROM t");
  Context context = builder.Build();

  DetectorConfig config;
  config.data_analysis = false;
  auto detections = DetectAntiPatterns(context, registry, config);
  ASSERT_EQ(detections.size(), 2u);
  EXPECT_EQ(detections[0].query, "SELECT a FROM t");
  EXPECT_EQ(detections[1].query, "SELECT  a  FROM t");
}

TEST(DedupTest, LiteralDifferencesKeepStatementsDistinct) {
  // Leading-wildcard position lives in the literal — merging these would
  // corrupt the PatternMatching detections.
  ContextBuilder builder;
  builder.AddQuery("SELECT name FROM users WHERE name LIKE '%smith'");
  builder.AddQuery("SELECT name FROM users WHERE name LIKE 'smith%'");
  Context context = builder.Build();
  EXPECT_EQ(context.query_groups().unique_count(), 2u);

  DetectorConfig config;
  config.data_analysis = false;
  auto detections = DetectAntiPatterns(context, RuleRegistry::Default(), config);
  int pattern_hits = 0;
  for (const auto& d : detections) {
    if (d.type == AntiPattern::kPatternMatching) ++pattern_hits;
  }
  EXPECT_EQ(pattern_hits, 1);  // only the leading-wildcard query fires
}

TEST(DedupTest, DedupOffYieldsIdentityGroups) {
  ContextBuilder builder;
  builder.AddQuery("SELECT 1");
  builder.AddQuery("SELECT 1");
  Context context = builder.Build(/*dedup_queries=*/false);
  const QueryGroups& groups = context.query_groups();
  EXPECT_EQ(groups.unique_count(), 2u);
  EXPECT_FALSE(groups.has_duplicates());
  EXPECT_TRUE(groups.fingerprints.empty());
}

}  // namespace
}  // namespace sqlcheck
