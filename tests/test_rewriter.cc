// Round-trip property tests for the diagnosis pipeline: every kRewrite fix
// any built-in rule emits must re-parse cleanly and must no longer trigger
// the originating anti-pattern on re-analysis — checked here independently
// of the FixEngine's own verification loop, over the full table-3 synthetic
// corpus plus a database-backed workload (all fixes, not a sample). Also
// unit-tests the AST rewriter's transformations and refusals, the session's
// per-fingerprint-group fix cache, and ApplyFixes.
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
#include "sql/printer.h"
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

TEST(RewriterTest, WildcardExpansionQualifiesMultiSourceSelects) {
  Detected context = BuildContext(
      "CREATE TABLE users (id INTEGER PRIMARY KEY, name VARCHAR(10));"
      "CREATE TABLE orders (oid INTEGER PRIMARY KEY, user_id INTEGER);"
      "SELECT * FROM users u JOIN orders o ON u.id = o.user_id;");
  sql::StatementPtr fixed = ExpandWildcard(LastSelect(context), context);
  ASSERT_NE(fixed, nullptr);
  EXPECT_EQ(sql::PrintStatement(*fixed),
            "SELECT u.id, u.name, o.oid, o.user_id FROM users AS u "
            "JOIN orders AS o ON (u.id = o.user_id);");
}

TEST(RewriterTest, QualifiedStarExpandsOnlyItsOwnTable) {
  Detected context = BuildContext(
      "CREATE TABLE users (id INTEGER PRIMARY KEY, name VARCHAR(10));"
      "CREATE TABLE orders (oid INTEGER PRIMARY KEY, user_id INTEGER);"
      "SELECT o.*, u.name FROM users u JOIN orders o ON u.id = o.user_id;");
  sql::StatementPtr fixed = ExpandWildcard(LastSelect(context), context);
  ASSERT_NE(fixed, nullptr);
  std::string printed = sql::PrintStatement(*fixed);
  EXPECT_NE(printed.find("SELECT o.oid, o.user_id, u.name"), std::string::npos)
      << printed;
}

TEST(RewriterTest, WildcardExpansionRefusesUnknownAndSubquerySources) {
  Detected unknown = BuildContext("SELECT * FROM mystery;");
  EXPECT_EQ(ExpandWildcard(LastSelect(unknown), unknown), nullptr);

  Detected sub = BuildContext(
      "CREATE TABLE t (a INTEGER PRIMARY KEY);"
      "SELECT * FROM (SELECT a FROM t) AS inner_t;");
  EXPECT_EQ(ExpandWildcard(LastSelect(sub), sub), nullptr);

  // A bare * lists a USING column once; expanding per source would list it
  // once per side and return one more column than the original.
  const std::string tables =
      "CREATE TABLE t (id INTEGER PRIMARY KEY, b VARCHAR(5));"
      "CREATE TABLE u (id INTEGER PRIMARY KEY, c VARCHAR(5));";
  Detected using_join = BuildContext(tables + "SELECT * FROM t JOIN u USING (id);");
  EXPECT_EQ(ExpandWildcard(LastSelect(using_join), using_join), nullptr);

  // A qualified t.* over the same join names t's columns only, so it still
  // expands.
  Detected qualified = BuildContext(tables + "SELECT t.* FROM t JOIN u USING (id);");
  sql::StatementPtr fixed = ExpandWildcard(LastSelect(qualified), qualified);
  ASSERT_NE(fixed, nullptr);
  EXPECT_EQ(sql::PrintStatement(*fixed), "SELECT t.id, t.b FROM t JOIN u USING (id);");
}

TEST(RewriterTest, OrderByRandBecomesKeyRangeProbe) {
  Detected context = BuildContext(
      "CREATE TABLE users (id INTEGER PRIMARY KEY, name VARCHAR(10));"
      "SELECT name FROM users ORDER BY RAND() LIMIT 1;");
  sql::StatementPtr fixed = ReplaceOrderByRand(LastSelect(context), context);
  ASSERT_NE(fixed, nullptr);
  std::string printed = sql::PrintStatement(*fixed);
  EXPECT_NE(printed.find("id >= (SELECT FLOOR((RAND() * MAX(id))) FROM users)"),
            std::string::npos)
      << printed;
  EXPECT_NE(printed.find("ORDER BY id LIMIT 1"), std::string::npos) << printed;
  // The probe must re-parse and must not read as ORDER BY RAND anymore.
  sql::StatementPtr reparsed = sql::ParseStatement(printed);
  ASSERT_NE(reparsed, nullptr);
  EXPECT_EQ(reparsed->kind, sql::StatementKind::kSelect);
  EXPECT_FALSE(AnalyzeQuery(*reparsed).order_by_rand);
}

TEST(RewriterTest, OrderByRandRefusesShufflesAndCompositeKeys) {
  // No LIMIT: the statement is a full shuffle; the probe form is not
  // equivalent.
  Detected shuffle = BuildContext(
      "CREATE TABLE users (id INTEGER PRIMARY KEY, name VARCHAR(10));"
      "SELECT name FROM users ORDER BY RAND();");
  EXPECT_EQ(ReplaceOrderByRand(LastSelect(shuffle), shuffle), nullptr);

  Detected composite = BuildContext(
      "CREATE TABLE pairs (a INTEGER, b INTEGER, PRIMARY KEY (a, b));"
      "SELECT a FROM pairs ORDER BY RAND() LIMIT 1;");
  EXPECT_EQ(ReplaceOrderByRand(LastSelect(composite), composite), nullptr);
}

TEST(RewriterTest, LeadingWildcardLikeReversesLiteralTails) {
  Detected context = BuildContext(
      "CREATE TABLE users (id INTEGER PRIMARY KEY, email VARCHAR(40));"
      "SELECT id FROM users WHERE email LIKE '%@example.com';");
  sql::StatementPtr fixed = RewriteLeadingWildcards(LastSelect(context));
  ASSERT_NE(fixed, nullptr);
  std::string printed = sql::PrintStatement(*fixed);
  EXPECT_NE(printed.find("REVERSE(email) LIKE 'moc.elpmaxe@%'"), std::string::npos)
      << printed;
  // Reversal preserves the match set boundary: the pattern is now a prefix.
  sql::StatementPtr reparsed = sql::ParseStatement(printed);
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
    EXPECT_EQ(RewriteLeadingWildcards(LastSelect(context)), nullptr) << sql_text;
  }
}

TEST(RewriterTest, ConcatWrapRefusesWhenNoOperandIsReachable) {
  // The concat lives in ORDER BY, which the transformation does not touch:
  // proposing the unchanged statement as a "rewrite" would claim an action
  // that never happened; the fixer must fall back to guidance instead.
  Detected context = BuildContext(
      "CREATE TABLE t (k INTEGER PRIMARY KEY, a VARCHAR(5), b VARCHAR(5));"
      "SELECT k FROM t ORDER BY a || b;");
  EXPECT_EQ(WrapConcatNulls(LastSelect(context), context), nullptr);

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
    EXPECT_EQ(ExpandInsertColumns(*insert, context), nullptr) << sql_text;
  }

  // A full-width SELECT still expands.
  Detected full = BuildContext(
      "CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR(5), c VARCHAR(5));"
      "CREATE TABLE s (x INTEGER);"
      "INSERT INTO t SELECT x, 'p', 'q' FROM s;");
  const Context& context = full;
  const auto* insert = context.queries().back().stmt->As<sql::InsertStatement>();
  ASSERT_NE(insert, nullptr);
  sql::StatementPtr fixed = ExpandInsertColumns(*insert, context);
  ASSERT_NE(fixed, nullptr);
  EXPECT_EQ(sql::PrintStatement(*fixed),
            "INSERT INTO t (a, b, c) SELECT x, 'p', 'q' FROM s;");
}

/// Runs `statement` against t(id, name) and returns its finding of `type`
/// with `--apply`'s count of rewritten statements; the finding's fix is
/// empty when there is none.
struct AppliedFinding {
  Fix fix;
  bool found = false;
  size_t applied = 0;
  std::string output;
};

AppliedFinding ApplyOne(const std::string& statement, AntiPattern type) {
  SqlCheck checker;
  checker.AddScript("CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(20));" + statement);
  const Report report = checker.Run();
  AppliedFinding out;
  for (const Finding& f : report.findings) {
    if (f.ranked.detection.type == type) {
      out.fix = f.fix;
      out.found = true;
      break;
    }
  }
  out.output = ApplyFixes(checker.session().context(), report, &out.applied);
  return out;
}

/// The parser tolerates `clause` without keeping it in the tree, so a
/// printed rewrite would drop it: the finding must get guidance and
/// `--apply` must leave the statement as written. `plain` (the statement
/// without the clause) still gets its rewrite.
void ExpectClauseBlocksRewrite(const std::string& with_clause, const std::string& plain,
                               AntiPattern type) {
  SCOPED_TRACE(with_clause);
  const AppliedFinding blocked = ApplyOne(with_clause, type);
  ASSERT_TRUE(blocked.found);
  EXPECT_NE(blocked.fix.kind, FixKind::kRewrite) << blocked.fix.explanation;
  EXPECT_FALSE(blocked.fix.replaces_original);
  EXPECT_EQ(blocked.applied, 0u) << blocked.output;
  EXPECT_NE(blocked.output.find(with_clause), std::string::npos) << blocked.output;

  const AppliedFinding rewritten = ApplyOne(plain, type);
  ASSERT_TRUE(rewritten.found);
  EXPECT_EQ(rewritten.fix.kind, FixKind::kRewrite);
  EXPECT_EQ(rewritten.applied, 1u) << rewritten.output;
}

TEST(RewriterTest, OnDuplicateKeyUpdateBlocksInsertExpansion) {
  ExpectClauseBlocksRewrite(
      "INSERT INTO t VALUES (1, 'x') ON DUPLICATE KEY UPDATE name = 'x';",
      "INSERT INTO t VALUES (1, 'x');", AntiPattern::kImplicitColumns);
}

TEST(RewriterTest, OnConflictBlocksInsertExpansion) {
  ExpectClauseBlocksRewrite("INSERT INTO t VALUES (1, 'x') ON CONFLICT DO NOTHING;",
                            "INSERT INTO t VALUES (1, 'x');",
                            AntiPattern::kImplicitColumns);
}

TEST(RewriterTest, ReturningBlocksInsertExpansion) {
  ExpectClauseBlocksRewrite("INSERT INTO t VALUES (1, 'x') RETURNING id;",
                            "INSERT INTO t VALUES (1, 'x');",
                            AntiPattern::kImplicitColumns);
}

TEST(RewriterTest, InsertIgnoreBlocksInsertExpansion) {
  ExpectClauseBlocksRewrite("INSERT IGNORE INTO t VALUES (1, 'x');",
                            "INSERT INTO t VALUES (1, 'x');",
                            AntiPattern::kImplicitColumns);
  ExpectClauseBlocksRewrite("INSERT OR IGNORE INTO t VALUES (1, 'x');",
                            "INSERT INTO t VALUES (1, 'x');",
                            AntiPattern::kImplicitColumns);
}

TEST(RewriterTest, LikeEscapeBlocksWildcardExpansion) {
  ExpectClauseBlocksRewrite("SELECT * FROM t WHERE name LIKE '%a!%' ESCAPE '!';",
                            "SELECT * FROM t WHERE name LIKE '%a!%';",
                            AntiPattern::kColumnWildcard);
}

TEST(RewriterTest, QualifiedTableNameBlocksRewrite) {
  // The tree keeps only `t` of `archive.t`, and t(id, name) is another table:
  // a printed rewrite would read or write it instead.
  ExpectClauseBlocksRewrite("SELECT * FROM archive.t WHERE id = 1;",
                            "SELECT * FROM t WHERE id = 1;",
                            AntiPattern::kColumnWildcard);
  ExpectClauseBlocksRewrite("INSERT INTO archive.t VALUES (1, 'x');",
                            "INSERT INTO t VALUES (1, 'x');",
                            AntiPattern::kImplicitColumns);
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

// ---------------------------------------------------------------------------
// Session fix cache + provenance + impacted queries
// ---------------------------------------------------------------------------

TEST(SessionFixCacheTest, StatementLocalFixesReplayAcrossDuplicates) {
  AnalysisSession session;
  // Pattern-matching fixes are statement-local on both halves; the three
  // occurrences share one cache row.
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
    // The replayed fix is rebased onto each occurrence's own raw text.
    EXPECT_EQ(f.fix.original_sql, f.ranked.detection.query);
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
  std::string rewritten = ApplyFixes(checker.session().context(), before, &applied);
  EXPECT_GE(applied, 3u);

  SqlCheck again;
  again.AddScript(rewritten);
  Report after = again.Run();
  EXPECT_LT(after.size(), before.size()) << rewritten;
}

TEST(ApplyFixesTest, HighestRankedRewriteWinsPerStatement) {
  // One statement carrying two rewritable anti-patterns: the fix attached to
  // the higher-ranked finding must be the one applied.
  SqlCheck checker;
  checker.AddScript(
      "CREATE TABLE users (user_id INTEGER PRIMARY KEY, email VARCHAR(40));"
      "SELECT * FROM users WHERE email LIKE '%@example.com';");
  Report report = checker.Run();
  const Fix* expected = nullptr;
  for (const Finding& f : report.findings) {
    if (f.fix.kind == FixKind::kRewrite && f.fix.replaces_original) {
      expected = &f.fix;
      break;  // findings are in rank order
    }
  }
  ASSERT_NE(expected, nullptr);
  std::string rewritten = ApplyFixes(checker.session().context(), report);
  EXPECT_NE(rewritten.find(expected->statements[0]), std::string::npos) << rewritten;
}

}  // namespace
}  // namespace sqlcheck
