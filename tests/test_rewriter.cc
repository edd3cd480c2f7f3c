// Round-trip property tests for the diagnosis pipeline: every kRewrite fix
// any built-in rule emits must re-parse cleanly and must no longer trigger
// the originating anti-pattern on re-analysis — checked here independently
// of the FixEngine's own verification loop, over the full table-3 synthetic
// corpus plus a database-backed workload (all fixes, not a sample). Also
// unit-tests the source-edit rewriters' transformations and refusals, the
// session's per-fingerprint-group fix cache, and ApplyFixes.
#include "fix/rewriter.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/query_analyzer.h"
#include "core/sqlcheck.h"
#include "detected.h"
#include "engine/executor.h"
#include "fix/fix_engine.h"
#include "fix/fixer.h"
#include "fix/fixers.h"
#include "rules/registry.h"
#include "sql/parser.h"
#include "workload/corpus.h"

namespace sqlcheck {
namespace {

/// Detection types every rule reports for one parsed statement against
/// `context` (query rules only — the statement under test is not profiled).
std::set<AntiPattern> TypesFor(const sql::Statement& stmt, const RuleRegistry& registry,
                               const Context& context, const DetectorConfig& config) {
  QueryFacts facts = AnalyzeQuery(stmt);
  std::vector<Detection> out;
  for (const auto& rule : registry.rules()) {
    rule->CheckQuery(facts, context, config, &out);
  }
  std::set<AntiPattern> types;
  for (const Detection& d : out) types.insert(d.type);
  return types;
}

/// The round-trip property, asserted for every finding of `report`:
///  - every kRewrite is verified and re-parses to a recognized statement,
///  - the originating anti-pattern is gone from the rewritten statement,
///  - statement-replacing rewrites introduce no anti-pattern type the
///    original statement did not already carry.
void AssertRewritesRoundTrip(const Report& report, const Context& context) {
  RuleRegistry registry = RuleRegistry::Default();
  DetectorConfig config;
  size_t rewrites = 0;
  for (const Finding& f : report.findings) {
    const Fix& fix = f.fix;
    if (fix.kind != FixKind::kRewrite) {
      // A demoted proposal must say why.
      if (!fix.verify_note.empty()) {
        EXPECT_FALSE(fix.verified);
      }
      continue;
    }
    ++rewrites;
    EXPECT_TRUE(fix.verified) << "unverified kRewrite for " << ApName(fix.type);
    ASSERT_FALSE(fix.statements.empty());
    for (const std::string& text : fix.statements) {
      sql::StatementPtr stmt = sql::ParseStatement(text);
      ASSERT_NE(stmt, nullptr);
      EXPECT_NE(stmt->kind, sql::StatementKind::kUnknown)
          << "unparseable fix for " << ApName(fix.type) << ": " << text;
      std::set<AntiPattern> rewritten_types = TypesFor(*stmt, registry, context, config);
      EXPECT_EQ(rewritten_types.count(fix.type), 0u)
          << ApName(fix.type) << " still present after rewrite: " << text;
    }
    if (fix.replaces_original) {
      ASSERT_EQ(fix.statements.size(), 1u);
      sql::StatementPtr original = sql::ParseStatement(fix.original_sql);
      sql::StatementPtr rewritten = sql::ParseStatement(fix.statements[0]);
      ASSERT_NE(original, nullptr);
      std::set<AntiPattern> before = TypesFor(*original, registry, context, config);
      std::set<AntiPattern> after = TypesFor(*rewritten, registry, context, config);
      for (AntiPattern t : after) {
        EXPECT_EQ(before.count(t), 1u)
            << "rewrite introduced new anti-pattern " << ApName(t) << ": "
            << fix.statements[0];
      }
    }
  }
  EXPECT_GT(rewrites, 0u) << "corpus produced no rewrite fixes to check";
}

TEST(RewriteRoundTripTest, EveryRewriteOnTheTable3CorpusVerifies) {
  workload::CorpusOptions options;
  options.repo_count = 40;
  workload::Corpus corpus = workload::GenerateCorpus(options);
  SqlCheck checker;
  for (const auto& labeled : corpus.AllStatements()) checker.AddQuery(labeled.sql);
  Report report = checker.Run();
  ASSERT_FALSE(report.empty());
  AssertRewritesRoundTrip(report, checker.session().context());
}

TEST(RewriteRoundTripTest, EveryRewriteOnADatabaseBackedWorkloadVerifies) {
  // Data-analysis detections (type changes, domain constraints, redundant
  // columns, missing PKs) propose DDL fixes; they must round-trip too.
  Database db;
  Executor exec(&db);
  exec.ExecuteSql("CREATE TABLE readings (station VARCHAR(8), amount VARCHAR(12), "
                  "taken_at TIMESTAMP, filler VARCHAR(4))");
  for (int i = 0; i < 12; ++i) {
    exec.ExecuteSql("INSERT INTO readings VALUES ('s" + std::to_string(i) + "', '" +
                    std::to_string(i * 10) + "', '2020-01-0" +
                    std::to_string(1 + i % 9) + " 10:00:00', NULL)");
  }
  SqlCheck checker;
  checker.AddScript(
      "CREATE TABLE readings (station VARCHAR(8), amount VARCHAR(12), "
      "taken_at TIMESTAMP, filler VARCHAR(4));"
      "SELECT * FROM readings WHERE station = 's1';"
      "INSERT INTO readings VALUES ('s1', '10', '2020-01-01 10:00:00', NULL);");
  checker.AttachDatabase(&db);
  Report report = checker.Run();
  ASSERT_FALSE(report.empty());
  AssertRewritesRoundTrip(report, checker.session().context());
}

// ---------------------------------------------------------------------------
// Rewriter transformations
// ---------------------------------------------------------------------------

Detected BuildContext(const std::string& script) { return Detected(script); }

const sql::SelectStatement& LastSelect(const Context& context) {
  const auto& queries = context.queries();
  const auto* select = queries.back().stmt->As<sql::SelectStatement>();
  EXPECT_NE(select, nullptr);
  return *select;
}

/// `stmt`'s text with `edits` spliced in; "" when the rewriter refused.
std::string Spliced(const sql::Statement& stmt, const SourceEdits& edits) {
  std::string out;
  if (!edits.empty()) AppendSpliced(&out, stmt.raw_sql, edits);
  return out;
}

TEST(RewriterTest, WildcardExpansionQualifiesMultiSourceSelects) {
  Detected context = BuildContext(
      "CREATE TABLE users (id INTEGER PRIMARY KEY, name VARCHAR(10));"
      "CREATE TABLE orders (oid INTEGER PRIMARY KEY, user_id INTEGER);"
      "SELECT * FROM users u JOIN orders o ON u.id = o.user_id;");
  const sql::SelectStatement& select = LastSelect(context);
  EXPECT_EQ(Spliced(select, ExpandWildcard(select, context)),
            "SELECT u.id, u.name, o.oid, o.user_id FROM users u "
            "JOIN orders o ON u.id = o.user_id");
}

TEST(RewriterTest, QualifiedStarExpandsOnlyItsOwnTable) {
  Detected context = BuildContext(
      "CREATE TABLE users (id INTEGER PRIMARY KEY, name VARCHAR(10));"
      "CREATE TABLE orders (oid INTEGER PRIMARY KEY, user_id INTEGER);"
      "SELECT o.*, u.name FROM users u JOIN orders o ON u.id = o.user_id;");
  const sql::SelectStatement& select = LastSelect(context);
  EXPECT_EQ(Spliced(select, ExpandWildcard(select, context)),
            "SELECT o.oid, o.user_id, u.name FROM users u "
            "JOIN orders o ON u.id = o.user_id");
}

TEST(RewriterTest, WildcardExpansionRefusesUnknownAndSubquerySources) {
  Detected unknown = BuildContext("SELECT * FROM mystery;");
  EXPECT_TRUE(ExpandWildcard(LastSelect(unknown), unknown).empty());

  Detected sub = BuildContext(
      "CREATE TABLE t (a INTEGER PRIMARY KEY);"
      "SELECT * FROM (SELECT a FROM t) AS inner_t;");
  EXPECT_TRUE(ExpandWildcard(LastSelect(sub), sub).empty());

  // A bare * lists a USING column once; expanding per source would list it
  // once per side and return one more column than the original.
  const std::string tables =
      "CREATE TABLE t (id INTEGER PRIMARY KEY, b VARCHAR(5));"
      "CREATE TABLE u (id INTEGER PRIMARY KEY, c VARCHAR(5));";
  Detected using_join = BuildContext(tables + "SELECT * FROM t JOIN u USING (id);");
  EXPECT_TRUE(ExpandWildcard(LastSelect(using_join), using_join).empty());

  // A qualified t.* over the same join names t's columns only, so it still
  // expands.
  Detected qualified = BuildContext(tables + "SELECT t.* FROM t JOIN u USING (id);");
  const sql::SelectStatement& select = LastSelect(qualified);
  EXPECT_EQ(Spliced(select, ExpandWildcard(select, qualified)),
            "SELECT t.id, t.b FROM t JOIN u USING (id)");
}

TEST(RewriterTest, OrderByRandBecomesKeyRangeProbe) {
  Detected context = BuildContext(
      "CREATE TABLE users (id INTEGER PRIMARY KEY, name VARCHAR(10));"
      "SELECT name FROM users ORDER BY RAND() LIMIT 1;");
  const sql::SelectStatement& select = LastSelect(context);
  const std::string spliced = Spliced(select, ReplaceOrderByRand(select, context));
  EXPECT_EQ(spliced,
            "SELECT name FROM users "
            "WHERE id >= (SELECT FLOOR(RAND() * MAX(id)) FROM users) "
            "ORDER BY id LIMIT 1");
  // The probe must re-parse and must not read as ORDER BY RAND anymore.
  sql::StatementPtr reparsed = sql::ParseStatement(spliced);
  ASSERT_NE(reparsed, nullptr);
  EXPECT_EQ(reparsed->kind, sql::StatementKind::kSelect);
  EXPECT_FALSE(AnalyzeQuery(*reparsed).order_by_rand);
}

TEST(RewriterTest, OrderByRandJoinsAnExistingWhereWithAnd) {
  // The probe is ANDed onto the WHERE as written; only an OR root needs
  // parentheses, since AND binds tighter.
  const std::string table =
      "CREATE TABLE users (id INTEGER PRIMARY KEY, name VARCHAR(10), age INTEGER);";
  const std::string probe = "id >= (SELECT FLOOR(RAND() * MAX(id)) FROM users)";
  const std::pair<std::string, std::string> cases[] = {
      {"SELECT name FROM users WHERE age > 3 AND name = 'a' ORDER BY RAND() LIMIT 2",
       "SELECT name FROM users WHERE age > 3 AND name = 'a' AND " + probe +
           " ORDER BY id LIMIT 2"},
      {"SELECT name FROM users WHERE age > 3 OR name = 'a' ORDER BY RAND() LIMIT 2",
       "SELECT name FROM users WHERE (age > 3 OR name = 'a') AND " + probe +
           " ORDER BY id LIMIT 2"},
      {"SELECT name FROM users WHERE (age > 3 OR name = 'a') ORDER BY RAND() LIMIT 2",
       "SELECT name FROM users WHERE (age > 3 OR name = 'a') AND " + probe +
           " ORDER BY id LIMIT 2"},
      {"SELECT name FROM users u /* one */ GROUP BY name ORDER BY RANDOM() LIMIT 1",
       "SELECT name FROM users u WHERE " + probe +
           " /* one */ GROUP BY name ORDER BY id LIMIT 1"},
  };
  for (const auto& [statement, expected] : cases) {
    Detected context = BuildContext(table + statement);
    const sql::SelectStatement& select = LastSelect(context);
    EXPECT_EQ(Spliced(select, ReplaceOrderByRand(select, context)), expected);
  }
}

TEST(RewriterTest, OrderByRandRefusesShufflesAndCompositeKeys) {
  // No LIMIT: the statement is a full shuffle; the probe form is not
  // equivalent.
  Detected shuffle = BuildContext(
      "CREATE TABLE users (id INTEGER PRIMARY KEY, name VARCHAR(10));"
      "SELECT name FROM users ORDER BY RAND();");
  EXPECT_TRUE(ReplaceOrderByRand(LastSelect(shuffle), shuffle).empty());

  Detected composite = BuildContext(
      "CREATE TABLE pairs (a INTEGER, b INTEGER, PRIMARY KEY (a, b));"
      "SELECT a FROM pairs ORDER BY RAND() LIMIT 1;");
  EXPECT_TRUE(ReplaceOrderByRand(LastSelect(composite), composite).empty());

  // A DESC would stay behind the replaced item and reverse the key order.
  Detected descending = BuildContext(
      "CREATE TABLE users (id INTEGER PRIMARY KEY, name VARCHAR(10));"
      "SELECT name FROM users ORDER BY RAND() DESC LIMIT 1;");
  EXPECT_TRUE(ReplaceOrderByRand(LastSelect(descending), descending).empty());
}

TEST(RewriterTest, LeadingWildcardLikeReversesLiteralTails) {
  Detected context = BuildContext(
      "CREATE TABLE users (id INTEGER PRIMARY KEY, email VARCHAR(40));"
      "SELECT id FROM users WHERE email LIKE '%@example.com';");
  const sql::SelectStatement& select = LastSelect(context);
  const std::string spliced = Spliced(select, RewriteLeadingWildcards(select));
  EXPECT_EQ(spliced, "SELECT id FROM users WHERE REVERSE(email) LIKE 'moc.elpmaxe@%'");
  // Reversal preserves the match set boundary: the pattern is now a prefix.
  sql::StatementPtr reparsed = sql::ParseStatement(spliced);
  QueryFacts facts = AnalyzeQuery(*reparsed);
  for (const auto& p : facts.patterns) EXPECT_FALSE(p.leading_wildcard);
}

TEST(RewriterTest, LikeReversalRefusesInfixUnderscoreAndUtf8Patterns) {
  const char* cases[] = {
      "SELECT id FROM users WHERE email LIKE '%a%b';",   // second wildcard
      "SELECT id FROM users WHERE email LIKE '%a_b';",   // _ wildcard
      "SELECT id FROM users WHERE email LIKE 'abc%';",   // already a prefix
      "SELECT id FROM users WHERE email LIKE '%caf\xc3\xa9';",  // UTF-8 tail
  };
  for (const char* sql_text : cases) {
    Detected context = BuildContext(
        std::string("CREATE TABLE users (id INTEGER PRIMARY KEY, email "
                    "VARCHAR(40));") +
        sql_text);
    EXPECT_TRUE(RewriteLeadingWildcards(LastSelect(context)).empty()) << sql_text;
  }
}

TEST(RewriterTest, LikeReversalRefusesEscape) {
  // An ESCAPE clause redefines which pattern bytes are wildcards; the
  // reversal does not model it, so the finding gets guidance.
  const std::string script =
      "CREATE TABLE users (id INTEGER PRIMARY KEY, email VARCHAR(40));"
      "SELECT id FROM users WHERE email LIKE '%abc' ESCAPE '!';";
  Detected context = BuildContext(script);
  EXPECT_TRUE(RewriteLeadingWildcards(LastSelect(context)).empty());

  SqlCheck checker;
  checker.AddScript(script);
  bool saw_pattern = false;
  for (const Finding& f : checker.Run().findings) {
    if (f.ranked.detection.type != AntiPattern::kPatternMatching) continue;
    saw_pattern = true;
    EXPECT_EQ(f.fix.kind, FixKind::kTextual);
    EXPECT_TRUE(f.fix.edits.empty());
  }
  EXPECT_TRUE(saw_pattern);
}

TEST(RewriterTest, ConcatWrapEditsOnlyTheNullableOperands) {
  Detected context = BuildContext(
      "CREATE TABLE t (k INTEGER PRIMARY KEY, a VARCHAR(5) NOT NULL, b VARCHAR(5));"
      "SELECT a || ' - ' ||  b /* tail */ FROM t WHERE CONCAT(a, t.b) = 'x';");
  const sql::SelectStatement& select = LastSelect(context);
  EXPECT_EQ(Spliced(select, WrapConcatNulls(select, context)),
            "SELECT a || ' - ' ||  COALESCE(b, '') /* tail */ FROM t "
            "WHERE CONCAT(a, COALESCE(t.b, '')) = 'x'");
}

TEST(RewriterTest, ConcatWrapRefusesWhenNoOperandIsReachable) {
  // The concat lives in ORDER BY, which the transformation does not touch:
  // proposing the unchanged statement as a "rewrite" would claim an action
  // that never happened; the fixer must fall back to guidance instead.
  Detected context = BuildContext(
      "CREATE TABLE t (k INTEGER PRIMARY KEY, a VARCHAR(5), b VARCHAR(5));"
      "SELECT k FROM t ORDER BY a || b;");
  EXPECT_TRUE(WrapConcatNulls(LastSelect(context), context).empty());

  SqlCheck checker;
  checker.AddScript(
      "CREATE TABLE t (k INTEGER PRIMARY KEY, a VARCHAR(5), b VARCHAR(5));"
      "SELECT k FROM t ORDER BY a || b;");
  for (const Finding& f : checker.Run().findings) {
    if (f.ranked.detection.type != AntiPattern::kConcatenateNulls) continue;
    EXPECT_EQ(f.fix.kind, FixKind::kTextual);
    EXPECT_EQ(f.fix.explanation,
              "wrap nullable columns in COALESCE(col, '') before concatenating");
  }
}

TEST(RewriterTest, InsertExpansionRefusesArityMismatch) {
  // Each statement is already broken against t(a, b, c); naming the columns
  // would hand the engine a statement it pads instead of rejects.
  const char* cases[] = {
      "INSERT INTO t VALUES (1, 'x');",              // short first row
      "INSERT INTO t VALUES (1, 'x', 'y'), (2);",   // short later row
      "INSERT INTO t SELECT x FROM s;",             // narrow SELECT
      "INSERT INTO t SELECT * FROM s;",             // SELECT width unknown
  };
  for (const char* sql_text : cases) {
    Detected built = BuildContext(
        std::string("CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(5), c VARCHAR(5));"
                    "CREATE TABLE s (x INTEGER);") +
        sql_text);
    const Context& context = built;
    const auto* insert = context.queries().back().stmt->As<sql::InsertStatement>();
    ASSERT_NE(insert, nullptr) << sql_text;
    EXPECT_TRUE(ExpandInsertColumns(*insert, context).empty()) << sql_text;
  }

  // A full-width SELECT still expands.
  Detected full = BuildContext(
      "CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(5), c VARCHAR(5));"
      "CREATE TABLE s (x INTEGER);"
      "INSERT INTO t SELECT x, 'p', 'q' FROM s;");
  const Context& context = full;
  const auto* insert = context.queries().back().stmt->As<sql::InsertStatement>();
  ASSERT_NE(insert, nullptr);
  EXPECT_EQ(Spliced(*insert, ExpandInsertColumns(*insert, context)),
            "INSERT INTO t (a, b, c) SELECT x, 'p', 'q' FROM s");
}

/// Runs `statement` against t(id, name) and returns its finding of `type`
/// with `--apply`'s output and count of rewritten statements; the finding's
/// fix is empty when there is none.
struct AppliedFinding {
  Fix fix;
  bool found = false;
  size_t applied = 0;
  std::string output;
};

AppliedFinding ApplyOne(const std::string& statement, AntiPattern type) {
  const std::string script =
      "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(20));\n" + statement;
  SqlCheck checker;
  checker.AddScript(script);
  const Report report = checker.Run();
  AppliedFinding out;
  for (const Finding& f : report.findings) {
    if (f.ranked.detection.type == type) {
      out.fix = f.fix;
      out.found = true;
      break;
    }
  }
  out.output = ApplyFixes(script, report, &out.applied);
  return out;
}

/// The parser tolerates `statement`'s clause without modeling it; the
/// rewrite edits only the spans it changes, so the clause survives in
/// `rewritten`, which `--apply` writes in place of `statement`.
void ExpectRewriteKeepsClause(const std::string& statement, const std::string& rewritten,
                              AntiPattern type) {
  SCOPED_TRACE(statement);
  const AppliedFinding out = ApplyOne(statement, type);
  ASSERT_TRUE(out.found);
  EXPECT_EQ(out.fix.kind, FixKind::kRewrite) << out.fix.explanation;
  ASSERT_EQ(out.fix.statements.size(), 1u);
  EXPECT_EQ(out.fix.statements[0] + ";", rewritten);
  EXPECT_EQ(out.applied, 1u) << out.output;
  EXPECT_EQ(out.output,
            "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(20));\n" + rewritten);
}

TEST(RewriterTest, InsertExpansionKeepsOnDuplicateKeyUpdate) {
  ExpectRewriteKeepsClause(
      "INSERT INTO t VALUES (1, 'x') ON DUPLICATE KEY UPDATE name = 'x';",
      "INSERT INTO t (id, name) VALUES (1, 'x') ON DUPLICATE KEY UPDATE name = 'x';",
      AntiPattern::kImplicitColumns);
}

TEST(RewriterTest, InsertExpansionKeepsOnConflict) {
  ExpectRewriteKeepsClause(
      "INSERT INTO t VALUES (1, 'x') ON CONFLICT DO NOTHING;",
      "INSERT INTO t (id, name) VALUES (1, 'x') ON CONFLICT DO NOTHING;",
      AntiPattern::kImplicitColumns);
}

TEST(RewriterTest, InsertExpansionKeepsReturning) {
  ExpectRewriteKeepsClause("INSERT INTO t VALUES (1, 'x') RETURNING id;",
                           "INSERT INTO t (id, name) VALUES (1, 'x') RETURNING id;",
                           AntiPattern::kImplicitColumns);
}

TEST(RewriterTest, InsertExpansionKeepsIgnore) {
  ExpectRewriteKeepsClause("INSERT IGNORE INTO t VALUES (1, 'x');",
                           "INSERT IGNORE INTO t (id, name) VALUES (1, 'x');",
                           AntiPattern::kImplicitColumns);
  ExpectRewriteKeepsClause("INSERT OR IGNORE INTO t VALUES (1, 'x');",
                           "INSERT OR IGNORE INTO t (id, name) VALUES (1, 'x');",
                           AntiPattern::kImplicitColumns);
}

TEST(RewriterTest, WildcardExpansionKeepsLikeEscape) {
  ExpectRewriteKeepsClause("SELECT * FROM t WHERE name LIKE '%a!%' ESCAPE '!';",
                           "SELECT id, name FROM t WHERE name LIKE '%a!%' ESCAPE '!';",
                           AntiPattern::kColumnWildcard);
}

TEST(RewriterTest, QualifiedTableNameBlocksRewrite) {
  // The catalog defines t(id, name), not archive.t: a rewrite would have to
  // guess archive.t's columns, so the finding gets guidance and --apply
  // leaves the statement as written.
  for (const auto& [statement, type] :
       {std::pair<std::string, AntiPattern>{"SELECT * FROM archive.t WHERE id = 1;",
                                            AntiPattern::kColumnWildcard},
        std::pair<std::string, AntiPattern>{"INSERT INTO archive.t VALUES (1, 'x');",
                                            AntiPattern::kImplicitColumns}}) {
    SCOPED_TRACE(statement);
    const AppliedFinding blocked = ApplyOne(statement, type);
    ASSERT_TRUE(blocked.found);
    EXPECT_NE(blocked.fix.kind, FixKind::kRewrite) << blocked.fix.explanation;
    EXPECT_FALSE(blocked.fix.replaces_original);
    EXPECT_EQ(blocked.applied, 0u) << blocked.output;
    EXPECT_EQ(blocked.output,
              "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(20));\n" + statement);
  }
}

// ---------------------------------------------------------------------------
// Verification loop
// ---------------------------------------------------------------------------

TEST(VerifyRewriteTest, RejectsUnparseableAndStillBrokenRewrites) {
  Detected context = BuildContext("CREATE TABLE t (a INTEGER PRIMARY KEY);");
  RuleRegistry registry = RuleRegistry::Default();
  const Rule* wildcard = registry.FindRule(AntiPattern::kColumnWildcard);
  ASSERT_NE(wildcard, nullptr);

  Fix garbled;
  garbled.type = AntiPattern::kColumnWildcard;
  garbled.kind = FixKind::kRewrite;
  garbled.statements = {"SELEKT ( FROM"};
  RewriteCheck check = VerifyRewrite(garbled, wildcard, context, DetectorConfig{});
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.reason.find("re-parse"), std::string::npos);

  Fix still_broken;
  still_broken.type = AntiPattern::kColumnWildcard;
  still_broken.kind = FixKind::kRewrite;
  still_broken.statements = {"SELECT * FROM t;"};
  check = VerifyRewrite(still_broken, wildcard, context, DetectorConfig{});
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.reason.find("still triggers"), std::string::npos);

  Fix clean;
  clean.type = AntiPattern::kColumnWildcard;
  clean.kind = FixKind::kRewrite;
  clean.statements = {"SELECT a FROM t;"};
  EXPECT_TRUE(VerifyRewrite(clean, wildcard, context, DetectorConfig{}).ok);
}

TEST(VerifyRewriteTest, EngineDemotesFailingProposalsWithReason) {
  /// A deliberately broken action half: proposes the offending statement
  /// itself as the "fix".
  class IdentityFixer final : public Fixer {
   public:
    AntiPattern type() const override { return AntiPattern::kColumnWildcard; }
    Fix Propose(const Detection& d, const Context&) const override {
      Fix fix;
      fix.type = d.type;
      fix.original_sql = d.query;
      fix.kind = FixKind::kRewrite;
      fix.replaces_original = true;
      fix.statements.push_back(d.query + ";");
      return fix;
    }
  };
  RuleRegistry registry = RuleRegistry::Default();
  registry.RegisterFixer(std::make_unique<IdentityFixer>());  // overrides builtin

  Detected context = BuildContext(
      "CREATE TABLE t (a INTEGER PRIMARY KEY);"
      "SELECT * FROM t;");
  FixEngine engine(registry, DetectorConfig{});
  bool saw_wildcard = false;
  for (const Detection& d : context.detections) {
    if (d.type != AntiPattern::kColumnWildcard) continue;
    saw_wildcard = true;
    Fix fix = engine.SuggestFix(d, context);
    EXPECT_EQ(fix.kind, FixKind::kTextual);  // demoted
    EXPECT_FALSE(fix.verified);
    EXPECT_NE(fix.verify_note.find("still triggers"), std::string::npos)
        << fix.verify_note;
  }
  EXPECT_TRUE(saw_wildcard);
}

TEST(VerifyRewriteTest, CustomRewriteWithoutEditsReplacesTheWholeStatement) {
  class NamingFixer final : public Fixer {
   public:
    AntiPattern type() const override { return AntiPattern::kColumnWildcard; }
    Fix Propose(const Detection& d, const Context&) const override {
      Fix fix;
      fix.type = d.type;
      fix.original_sql = d.query;
      fix.kind = FixKind::kRewrite;
      fix.replaces_original = true;
      fix.statements.push_back("SELECT a FROM t");
      return fix;
    }
  };
  const std::string script =
      "CREATE TABLE t (a INTEGER PRIMARY KEY);\nSELECT *\nFROM t;\n";
  RuleRegistry registry = RuleRegistry::Default();
  registry.RegisterFixer(std::make_unique<NamingFixer>());
  Detected context = BuildContext(script);
  FixEngine engine(registry, DetectorConfig{});
  Report report;
  for (const Detection& d : context.detections) {
    if (d.type != AntiPattern::kColumnWildcard) continue;
    Finding& finding = report.findings.emplace_back();
    finding.fix = engine.SuggestFix(d, context);
  }
  ASSERT_EQ(report.size(), 1u);
  EXPECT_TRUE(report.findings[0].fix.verified);
  EXPECT_EQ(ApplyFixes(script, report),
            "CREATE TABLE t (a INTEGER PRIMARY KEY);\nSELECT a FROM t;\n");
}

// ---------------------------------------------------------------------------
// Session fix cache + provenance + impacted queries
// ---------------------------------------------------------------------------

TEST(SessionFixCacheTest, StatementLocalFixesReplayAcrossDuplicates) {
  AnalysisSession session;
  // Pattern-matching fixes are statement-local on both halves; the three
  // occurrences share one cache row, and the repeated spelling replays its
  // first occurrence's fix.
  session.AddScript(
      "SELECT id FROM users WHERE email LIKE '%@example.com';"
      "SELECT id FROM users WHERE email LIKE '%@example.com';"
      "select id from users where email like '%@example.com';");
  Report report = session.Snapshot();
  ASSERT_EQ(report.size(), 3u);
  EXPECT_GT(session.fix_cache_hits(), 0u);
  for (const Finding& f : report.findings) {
    EXPECT_EQ(f.fix.kind, FixKind::kRewrite);
    EXPECT_TRUE(f.fix.verified);
    // Each spelling's fix edits its own text.
    EXPECT_EQ(f.fix.original_sql, f.ranked.detection.query);
    EXPECT_EQ(f.fix.statements[0],
              f.ranked.detection.query[0] == 's'
                  ? "select id from users where REVERSE(email) like 'moc.elpmaxe@%'"
                  : "SELECT id FROM users WHERE REVERSE(email) LIKE 'moc.elpmaxe@%'");
  }
  // Replayed fixes must equal what a cold engine computes.
  SqlCheck batch;
  batch.AddScript(
      "SELECT id FROM users WHERE email LIKE '%@example.com';"
      "SELECT id FROM users WHERE email LIKE '%@example.com';"
      "select id from users where email like '%@example.com';");
  EXPECT_EQ(report.ToJson(), batch.Run().ToJson());
}

TEST(FixProvenanceTest, DataAntiPatternFixesAnchorToTheOwningTable) {
  Database db;
  Executor exec(&db);
  exec.ExecuteSql("CREATE TABLE m (k INTEGER, price FLOAT, stamp TIMESTAMP)");
  for (int i = 0; i < 8; ++i) {
    exec.ExecuteSql("INSERT INTO m VALUES (" + std::to_string(i) +
                    ", 1.5, '2020-01-01 10:00:00')");
  }
  SqlCheck checker;
  checker.AddScript("CREATE TABLE m (k INTEGER, price FLOAT, stamp TIMESTAMP);");
  checker.AttachDatabase(&db);
  Report report = checker.Run();
  bool saw_data_fix = false;
  for (const Finding& f : report.findings) {
    if (f.ranked.detection.source != DetectionSource::kDataAnalysis) continue;
    saw_data_fix = true;
    // Anchored to the owning table's DDL (present in this workload), never "".
    EXPECT_EQ(f.fix.original_sql,
              "CREATE TABLE m (k INTEGER, price FLOAT, stamp TIMESTAMP)");
  }
  EXPECT_TRUE(saw_data_fix);
}

TEST(ImpactedQueriesTest, IndexedLookupMatchesFullScanDigest) {
  // Satellite: Algorithm 4's I set must be identical whether answered by the
  // WorkloadStats per-table index or a full workload scan.
  const char* kScript =
      "CREATE TABLE tenants (tenant_id VARCHAR(8) PRIMARY KEY, user_ids TEXT);"
      "CREATE TABLE other (k INTEGER PRIMARY KEY);"
      "SELECT tenant_id FROM tenants WHERE user_ids LIKE '%,U2,%';"
      "SELECT * FROM tenants WHERE user_ids LIKE '[[:<:]]U1[[:>:]]';"
      "SELECT k FROM other WHERE k = 1;"
      "UPDATE tenants SET user_ids = '' WHERE tenant_id = 't1';";
  Detected detected(kScript);
  const Context& context = detected;
  RuleRegistry registry = RuleRegistry::Default();
  FixEngine engine(registry);

  auto digest = [](const std::vector<std::string>& queries) {
    uint64_t h = 1469598103934665603ull;
    for (const auto& q : queries) {
      for (char c : q) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
      }
      h ^= 0xff;
      h *= 1099511628211ull;
    }
    return h;
  };

  bool saw_impacted = false;
  for (const Detection& d : detected.detections) {
    Fix fix = engine.SuggestFix(d, context);
    if (fix.impacted_queries.empty()) continue;
    saw_impacted = true;
    // Reference: brute-force scan over every statement's facts.
    std::vector<std::string> reference;
    for (const QueryFacts& facts : context.queries()) {
      if (facts.raw_sql.empty() || facts.raw_sql == d.query) continue;
      if (facts.kind == sql::StatementKind::kCreateTable ||
          facts.kind == sql::StatementKind::kCreateIndex) {
        continue;
      }
      if (facts.ReferencesTable(d.table)) reference.emplace_back(facts.raw_sql);
    }
    EXPECT_EQ(digest(fix.impacted_queries), digest(reference))
        << "impacted-query set diverged for " << ApName(d.type);
  }
  EXPECT_TRUE(saw_impacted);
}

// ---------------------------------------------------------------------------
// ApplyFixes
// ---------------------------------------------------------------------------

TEST(ApplyFixesTest, RewrittenWorkloadReportsStrictlyFewerDetections) {
  const char* kScript =
      "CREATE TABLE users (user_id INTEGER PRIMARY KEY, name VARCHAR(40), "
      "email VARCHAR(40));"
      "SELECT * FROM users WHERE user_id = 1;"
      "SELECT user_id FROM users WHERE email LIKE '%@example.com';"
      "INSERT INTO users VALUES (1, 'ada', 'ada@example.com');";
  SqlCheck checker;
  checker.AddScript(kScript);
  Report before = checker.Run();
  ASSERT_FALSE(before.empty());

  size_t applied = 0;
  std::string rewritten = ApplyFixes(kScript, before, &applied);
  EXPECT_GE(applied, 3u);

  SqlCheck again;
  again.AddScript(rewritten);
  Report after = again.Run();
  EXPECT_LT(after.size(), before.size()) << rewritten;
}

TEST(ApplyFixesTest, EditsTheStatementNotAnEarlierCopyOfItsText) {
  // The second statement's text also appears inside the INSERT; only its
  // own occurrence may be edited.
  const std::string script =
      "CREATE TABLE t2 (id INT PRIMARY KEY, name VARCHAR(20));\n"
      "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(20));\n"
      "INSERT INTO t (id, name) SELECT * FROM t2 WHERE id > 1;\n"
      "SELECT * FROM t2 WHERE id > 1;\n";
  SqlCheck checker;
  checker.AddScript(script);
  size_t applied = 0;
  EXPECT_EQ(ApplyFixes(script, checker.Run(), &applied),
            "CREATE TABLE t2 (id INT PRIMARY KEY, name VARCHAR(20));\n"
            "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(20));\n"
            "INSERT INTO t (id, name) SELECT * FROM t2 WHERE id > 1;\n"
            "SELECT id, name FROM t2 WHERE id > 1;\n");
  EXPECT_EQ(applied, 1u);
}

TEST(ApplyFixesTest, HighestRankedRewriteWinsPerStatement) {
  // One statement carrying two rewritable anti-patterns: the fix attached to
  // the higher-ranked finding must be the one applied.
  const std::string script =
      "CREATE TABLE users (user_id INTEGER PRIMARY KEY, email VARCHAR(40));"
      "SELECT * FROM users WHERE email LIKE '%@example.com';";
  SqlCheck checker;
  checker.AddScript(script);
  Report report = checker.Run();
  const Fix* expected = nullptr;
  for (const Finding& f : report.findings) {
    if (f.fix.kind == FixKind::kRewrite && f.fix.replaces_original) {
      expected = &f.fix;
      break;  // findings are in rank order
    }
  }
  ASSERT_NE(expected, nullptr);
  std::string rewritten = ApplyFixes(script, report);
  EXPECT_NE(rewritten.find(expected->statements[0]), std::string::npos) << rewritten;
}

}  // namespace
}  // namespace sqlcheck
