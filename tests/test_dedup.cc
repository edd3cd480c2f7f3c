// Query fingerprint dedup: memoized analysis + rule evaluation must be
// invisible in the output — reports byte-identical to an unmemoized run,
// with per-occurrence raw text preserved, on a small hand-written script and
// on a 2,000-statement duplicate-heavy query log.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/context.h"
#include "core/session.h"
#include "core/sqlcheck.h"
#include "detected.h"
#include "query_log.h"
#include "rules/registry.h"

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

std::string RunReport(const std::string& script, bool dedup) {
  SqlCheckOptions options;
  options.dedup_queries = dedup;
  SqlCheck checker(options);
  checker.AddScript(script);
  return checker.Run().ToText();
}

TEST(DedupTest, ReportByteIdenticalWithAndWithoutDedup) {
  // A newline before each `;` ends the log's trailing line comments.
  std::string log;
  for (const std::string& statement : DuplicateHeavyLog(2000)) log += statement + "\n;\n";
  for (const std::string& script : {std::string(kDuplicateScript), log}) {
    std::string reference = RunReport(script, false);
    EXPECT_FALSE(reference.empty());
    EXPECT_EQ(RunReport(script, true), reference);
  }
}

TEST(DedupTest, GroupsCollapseWhitespaceCaseAndComments) {
  AnalysisSession session;
  session.AddQuery("SELECT * FROM t WHERE a = 1");
  session.AddQuery("select * from t where a = 1");
  session.AddQuery("SELECT *  FROM t /* hint */ WHERE a = 1");
  session.AddQuery("SELECT * FROM t WHERE a = 2");  // different literal

  const QueryGroups& groups = session.context().query_groups();
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
  AnalysisSession session;
  session.AddQuery("SELECT * FROM t");
  session.AddQuery("select  *  from t");
  const Context& context = session.context();

  ASSERT_EQ(context.queries().size(), 2u);
  EXPECT_EQ(context.queries()[0].raw_sql, "SELECT * FROM t");
  EXPECT_EQ(context.queries()[1].raw_sql, "select  *  from t");
  EXPECT_NE(context.queries()[0].stmt, context.queries()[1].stmt);
  EXPECT_TRUE(context.queries()[1].selects_wildcard);
}

TEST(DedupTest, DetectionsCarryPerOccurrenceRawSql) {
  SqlCheckOptions options;
  options.detector.data_analysis = false;
  Detected detected("SELECT * FROM t; select  *  from t;", nullptr, options);
  const auto& detections = detected.detections;
  ASSERT_EQ(detections.size(), 2u);
  EXPECT_EQ(detections[0].query, "SELECT * FROM t");
  EXPECT_EQ(detections[1].query, "select  *  from t");
  EXPECT_EQ(detections[1].stmt, detected.context().queries()[1].stmt);
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
  AnalysisSession session;
  session.RegisterRule(std::make_unique<EchoRule>());
  session.AddQuery("SELECT a FROM t");
  session.AddQuery("SELECT  a  FROM t");

  std::vector<std::string> echoed;
  for (const Finding& f : session.Snapshot().findings) {
    if (f.ranked.detection.message == "echo") echoed.push_back(f.ranked.detection.query);
  }
  ASSERT_EQ(echoed.size(), 2u);
  EXPECT_EQ(echoed[0], "SELECT a FROM t");
  EXPECT_EQ(echoed[1], "SELECT  a  FROM t");
}

TEST(DedupTest, LiteralDifferencesKeepStatementsDistinct) {
  // Leading-wildcard position lives in the literal — merging these would
  // corrupt the PatternMatching detections.
  SqlCheckOptions options;
  options.detector.data_analysis = false;
  Detected detected(
      "SELECT name FROM users WHERE name LIKE '%smith';"
      "SELECT name FROM users WHERE name LIKE 'smith%';",
      nullptr, options);
  EXPECT_EQ(detected.context().query_groups().unique_count(), 2u);

  int pattern_hits = 0;
  for (const auto& d : detected.detections) {
    if (d.type == AntiPattern::kPatternMatching) ++pattern_hits;
  }
  EXPECT_EQ(pattern_hits, 1);  // only the leading-wildcard query fires
}

TEST(DedupTest, DedupOffYieldsIdentityGroups) {
  SqlCheckOptions options;
  options.dedup_queries = false;
  AnalysisSession session(options);
  session.AddQuery("SELECT 1");
  session.AddQuery("SELECT 1");
  const QueryGroups& groups = session.context().query_groups();
  EXPECT_EQ(groups.unique_count(), 2u);
  EXPECT_FALSE(groups.has_duplicates());
  EXPECT_TRUE(groups.fingerprints.empty());
}

}  // namespace
}  // namespace sqlcheck
