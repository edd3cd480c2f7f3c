// Tier-3 differential execution tests: the VerifyByExecution pipeline in
// isolation (ephemeral database construction, schema synthesis, contract
// semantics, divergence diagnostics), the FixEngine's tiered demotion policy
// around it (including --verify-exec required), the session-level verdict
// memo, detection output that no verify mode perturbs, and the table-3
// corpus property that every surviving kRewrite still verifies — with
// Tier 3 engaged — under more than one seed.
#include "fix/verify_exec.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/context.h"
#include "core/session.h"
#include "core/sqlcheck.h"
#include "detected.h"
#include "fix/fix_engine.h"
#include "fix/fixer.h"
#include "rules/registry.h"
#include "workload/corpus.h"

namespace sqlcheck {
namespace {

using Outcome = ExecCheck::Outcome;

/// A statement-replacing rewrite proposal, ready for VerifyByExecution.
Fix MakeRewrite(const std::string& original, const std::string& rewritten) {
  Fix fix;
  fix.type = AntiPattern::kColumnWildcard;  // any type; Tier 3 keys on SQL
  fix.kind = FixKind::kRewrite;
  fix.replaces_original = true;
  fix.original_sql = original;
  fix.statements = {rewritten};
  return fix;
}

ExecCheck RunCheck(const std::string& script, const Fix& fix,
                   EquivalenceContract contract,
                   ExecVerifyOptions options = {}) {
  Detected context(script);
  if (options.mode == ExecVerifyMode::kOff) options.mode = ExecVerifyMode::kOn;
  return VerifyByExecution(fix, contract, context, options);
}

constexpr const char* kUsersDdl =
    "CREATE TABLE users (id INTEGER PRIMARY KEY, name VARCHAR(20), "
    "bio VARCHAR(40));";

// ---------------------------------------------------------------------------
// Gating: when Tier 3 does not apply at all
// ---------------------------------------------------------------------------

TEST(VerifyExecTest, NotApplicableContractSkips) {
  Fix fix = MakeRewrite("SELECT * FROM users", "SELECT id FROM users;");
  ExecCheck check =
      RunCheck(kUsersDdl, fix, EquivalenceContract::kNotApplicable);
  EXPECT_EQ(check.outcome, Outcome::kSkipped);
}

TEST(VerifyExecTest, AdditiveNonReplacingFixSkips) {
  // DDL advice (e.g. "CREATE INDEX ...") augments the workload rather than
  // replacing a statement; there is no pair of sides to compare.
  Fix fix = MakeRewrite("SELECT * FROM users", "CREATE INDEX i ON users (name);");
  fix.replaces_original = false;
  ExecCheck check = RunCheck(kUsersDdl, fix, EquivalenceContract::kExactOrdered);
  EXPECT_EQ(check.outcome, Outcome::kSkipped);
}

// ---------------------------------------------------------------------------
// SELECT rewrites: exact-ordered and multiset contracts
// ---------------------------------------------------------------------------

TEST(VerifyExecTest, EquivalentWildcardExpansionPasses) {
  Fix fix = MakeRewrite("SELECT * FROM users",
                        "SELECT id, name, bio FROM users;");
  ExecCheck check = RunCheck(kUsersDdl, fix, EquivalenceContract::kExactOrdered);
  EXPECT_EQ(check.outcome, Outcome::kEquivalent) << check.note;
  EXPECT_TRUE(check.note.empty());
}

TEST(VerifyExecTest, RowCountDivergenceIsDiagnosed) {
  // The rewrite silently filters everything out: same shape, fewer rows.
  Fix fix = MakeRewrite("SELECT id FROM users",
                        "SELECT id FROM users WHERE 1 = 0;");
  ExecCheck check = RunCheck(kUsersDdl, fix, EquivalenceContract::kExactOrdered);
  EXPECT_EQ(check.outcome, Outcome::kDivergent);
  EXPECT_NE(check.note.find("row counts differ"), std::string::npos) << check.note;
}

TEST(VerifyExecTest, ColumnCountDivergenceIsDiagnosed) {
  Fix fix = MakeRewrite("SELECT id, name FROM users", "SELECT id FROM users;");
  ExecCheck check = RunCheck(kUsersDdl, fix, EquivalenceContract::kExactOrdered);
  EXPECT_EQ(check.outcome, Outcome::kDivergent);
  EXPECT_NE(check.note.find("column counts differ"), std::string::npos)
      << check.note;
}

TEST(VerifyExecTest, OrderingDivergenceRespectsTheContract) {
  // Same multiset of rows, opposite order: the exact-ordered contract must
  // reject the rewrite and name the first differing position; the multiset
  // contract must accept it. This is precisely why PatternMatching declares
  // kMultiset — REVERSE-LIKE rewrites preserve the row set, not the order.
  Fix fix = MakeRewrite("SELECT id FROM users ORDER BY id",
                        "SELECT id FROM users ORDER BY id DESC;");
  ExecCheck strict = RunCheck(kUsersDdl, fix, EquivalenceContract::kExactOrdered);
  EXPECT_EQ(strict.outcome, Outcome::kDivergent);
  EXPECT_NE(strict.note.find("first differing row"), std::string::npos)
      << strict.note;

  ExecCheck loose = RunCheck(kUsersDdl, fix, EquivalenceContract::kMultiset);
  EXPECT_EQ(loose.outcome, Outcome::kEquivalent) << loose.note;
}

TEST(VerifyExecTest, PredicateDataIsPlantedSoFiltersSelectRows) {
  // The generator plants harvested literals: a predicate over a constant
  // must match at least one generated row, or equivalence checks would
  // trivially compare empty sets. Divergence on the filtered column proves
  // the planted rows exist.
  Fix fix = MakeRewrite("SELECT id FROM users WHERE name = 'smith'",
                        "SELECT id FROM users WHERE name <> 'smith';");
  ExecCheck check = RunCheck(kUsersDdl, fix, EquivalenceContract::kMultiset);
  EXPECT_EQ(check.outcome, Outcome::kDivergent) << check.note;
}

TEST(VerifyExecTest, DocumentedDivergenceOnlyRequiresBothSidesToExecute) {
  // ORDER BY RAND -> key-range probe: the row sets intentionally differ, so
  // the contract only demands that both sides run on the populated tables.
  Fix fix = MakeRewrite(
      "SELECT * FROM users ORDER BY RAND() LIMIT 1",
      "SELECT * FROM users WHERE (id >= (SELECT FLOOR((RAND() * MAX(id))) "
      "FROM users)) ORDER BY id LIMIT 1;");
  ExecCheck check =
      RunCheck(kUsersDdl, fix, EquivalenceContract::kDocumentedDivergence);
  EXPECT_EQ(check.outcome, Outcome::kEquivalent) << check.note;

  // ...but a rewrite that cannot execute still fails loudly.
  Fix broken = MakeRewrite("SELECT id FROM users",
                           "SELECT NO_SUCH_FN(id) FROM users;");
  check = RunCheck(kUsersDdl, broken, EquivalenceContract::kDocumentedDivergence);
  EXPECT_EQ(check.outcome, Outcome::kDivergent);
  EXPECT_NE(check.note.find("failed to execute"), std::string::npos) << check.note;
}

// ---------------------------------------------------------------------------
// Feasibility boundaries
// ---------------------------------------------------------------------------

TEST(VerifyExecTest, OriginalThatCannotExecuteIsInfeasibleNotDivergent) {
  // An engine limitation on the *original* side is not evidence against the
  // rewrite; policy (on vs required) decides what happens to the fix.
  Fix fix = MakeRewrite("SELECT NO_SUCH_FN(id) FROM users",
                        "SELECT id FROM users;");
  ExecCheck check = RunCheck(kUsersDdl, fix, EquivalenceContract::kExactOrdered);
  EXPECT_EQ(check.outcome, Outcome::kInfeasible);
  EXPECT_NE(check.note.find("original"), std::string::npos) << check.note;
}

TEST(VerifyExecTest, SchemaIsSynthesizedWhenTheWorkloadHasNoDdl) {
  // No CREATE TABLE anywhere: the verifier invents a schema from the
  // statement's own column references and still reaches a verdict.
  Fix fix = MakeRewrite("SELECT id, label FROM ghost WHERE id = 3",
                        "SELECT id, label FROM ghost WHERE (id = 3);");
  ExecCheck check = RunCheck("SELECT id, label FROM ghost WHERE id = 3;", fix,
                             EquivalenceContract::kExactOrdered);
  EXPECT_EQ(check.outcome, Outcome::kEquivalent) << check.note;

  Fix divergent = MakeRewrite("SELECT id, label FROM ghost WHERE id = 3",
                              "SELECT id, label FROM ghost;");
  check = RunCheck("SELECT id, label FROM ghost WHERE id = 3;", divergent,
                   EquivalenceContract::kExactOrdered);
  EXPECT_EQ(check.outcome, Outcome::kDivergent) << check.note;
}

TEST(VerifyExecTest, DeterministicAcrossRunsAndSensitiveToSeed) {
  Fix fix = MakeRewrite("SELECT id FROM users WHERE name LIKE '%ith'",
                        "SELECT id FROM users WHERE (REVERSE(name) LIKE 'hti%');");
  for (uint64_t seed : {42u, 7u, 1234567u}) {
    ExecVerifyOptions options;
    options.mode = ExecVerifyMode::kOn;
    options.seed = seed;
    ExecCheck first = RunCheck(kUsersDdl, fix, EquivalenceContract::kMultiset,
                               options);
    ExecCheck second = RunCheck(kUsersDdl, fix, EquivalenceContract::kMultiset,
                                options);
    EXPECT_EQ(first.outcome, second.outcome) << "seed " << seed;
    EXPECT_EQ(first.note, second.note) << "seed " << seed;
    EXPECT_EQ(first.outcome, Outcome::kEquivalent)
        << "seed " << seed << ": " << first.note;
  }
}

// ---------------------------------------------------------------------------
// DML rewrites: table-state comparison across two ephemeral databases
// ---------------------------------------------------------------------------

TEST(VerifyExecTest, UpdateRewriteComparedByFinalTableState) {
  Fix same = MakeRewrite("UPDATE users SET bio = 'x' WHERE id = 1",
                         "UPDATE users SET bio = 'x' WHERE (id = 1);");
  ExecCheck check = RunCheck(kUsersDdl, same, EquivalenceContract::kExactOrdered);
  EXPECT_EQ(check.outcome, Outcome::kEquivalent) << check.note;

  // Dropping the predicate rewrites every row: the final states differ.
  Fix broad = MakeRewrite("UPDATE users SET bio = 'x' WHERE id = 1",
                          "UPDATE users SET bio = 'x';");
  check = RunCheck(kUsersDdl, broad, EquivalenceContract::kExactOrdered);
  EXPECT_EQ(check.outcome, Outcome::kDivergent);
  EXPECT_NE(check.note.find("table state diverged"), std::string::npos)
      << check.note;
}

TEST(VerifyExecTest, InsertRewriteComparedByFinalTableState) {
  Fix same = MakeRewrite("INSERT INTO users VALUES (981, 'zed', 'hi')",
                         "INSERT INTO users (id, name, bio) "
                         "VALUES (981, 'zed', 'hi');");
  ExecCheck check = RunCheck(kUsersDdl, same, EquivalenceContract::kExactOrdered);
  EXPECT_EQ(check.outcome, Outcome::kEquivalent) << check.note;

  Fix different = MakeRewrite("INSERT INTO users VALUES (981, 'zed', 'hi')",
                              "INSERT INTO users (id, name, bio) "
                              "VALUES (981, 'zed', 'bye');");
  check = RunCheck(kUsersDdl, different, EquivalenceContract::kExactOrdered);
  EXPECT_EQ(check.outcome, Outcome::kDivergent) << check.note;
}

// ---------------------------------------------------------------------------
// FixEngine policy: demotion, required mode, memoization
// ---------------------------------------------------------------------------

/// Proposes a rewrite that passes Tiers 1-2 (parses, no wildcard left) but
/// returns a different result set — only Tier 3 can catch it.
class DropAllRowsFixer final : public Fixer {
 public:
  AntiPattern type() const override { return AntiPattern::kColumnWildcard; }
  EquivalenceContract equivalence() const override {
    return EquivalenceContract::kExactOrdered;
  }
  Fix Propose(const Detection& d, const Context&) const override {
    Fix fix;
    fix.type = d.type;
    fix.original_sql = d.query;
    fix.kind = FixKind::kRewrite;
    fix.replaces_original = true;
    fix.statements = {"SELECT id FROM users WHERE 1 = 0;"};
    return fix;
  }
};

TEST(VerifyExecEngineTest, DivergentProposalIsDemotedWithDiagnostic) {
  RuleRegistry registry = RuleRegistry::Default();
  registry.RegisterFixer(std::make_unique<DropAllRowsFixer>());

  Detected context(std::string(kUsersDdl) + "SELECT * FROM users;");
  ExecVerifyOptions exec;
  exec.mode = ExecVerifyMode::kOn;
  VerifyStats stats;
  FixEngine counting(registry, DetectorConfig{}, exec, nullptr, &stats);
  bool saw_wildcard = false;
  for (const Detection& d : context.detections) {
    if (d.type != AntiPattern::kColumnWildcard) continue;
    saw_wildcard = true;
    Fix fix = counting.SuggestFix(d, context);
    EXPECT_EQ(fix.kind, FixKind::kTextual);  // demoted by Tier 3
    EXPECT_FALSE(fix.verified);
    EXPECT_EQ(fix.verify_tier, VerifyTier::kNone);
    EXPECT_NE(fix.verify_note.find("differential execution"), std::string::npos)
        << fix.verify_note;
    EXPECT_NE(fix.verify_note.find("exact-ordered"), std::string::npos)
        << fix.verify_note;
  }
  EXPECT_TRUE(saw_wildcard);
  EXPECT_GE(stats.demoted, 1u);
  EXPECT_GE(stats.exec_runs, 1u);
}

TEST(VerifyExecEngineTest, RequiredModeDemotesInfeasibleOnKeepsTierTwo) {
  // The original statement calls a function the embedded engine lacks, so
  // Tier 3 is infeasible. `on` keeps the Tier-2 verdict; `required` refuses
  // to bless what it could not execute.
  const std::string script = std::string(kUsersDdl) +
                             "SELECT * FROM users WHERE SOUNDEX(name) = 'S530';";
  RuleRegistry registry = RuleRegistry::Default();
  Detected context(script);

  for (ExecVerifyMode mode : {ExecVerifyMode::kOn, ExecVerifyMode::kRequired}) {
    ExecVerifyOptions exec;
    exec.mode = mode;
    VerifyStats stats;
    FixEngine engine(registry, DetectorConfig{}, exec, nullptr, &stats);
    bool saw_wildcard = false;
    for (const Detection& d : context.detections) {
      if (d.type != AntiPattern::kColumnWildcard) continue;
      saw_wildcard = true;
      Fix fix = engine.SuggestFix(d, context);
      if (mode == ExecVerifyMode::kOn) {
        EXPECT_EQ(fix.kind, FixKind::kRewrite);
        EXPECT_TRUE(fix.verified);
        EXPECT_EQ(fix.verify_tier, VerifyTier::kAnalysis);
      } else {
        EXPECT_EQ(fix.kind, FixKind::kTextual);
        EXPECT_FALSE(fix.verified);
        EXPECT_NE(fix.verify_note.find("required but infeasible"),
                  std::string::npos)
            << fix.verify_note;
      }
    }
    EXPECT_TRUE(saw_wildcard);
    EXPECT_GE(stats.exec_infeasible, 1u);
  }
}

TEST(VerifyExecEngineTest, SessionMemoizesVerdictsAcrossSnapshots) {
  SqlCheckOptions options;
  options.verify_exec.mode = ExecVerifyMode::kOn;
  AnalysisSession session(options);
  session.AddScript(std::string(kUsersDdl) + "SELECT * FROM users;");
  Report first = session.Snapshot();
  const uint64_t runs_after_first = session.verify_stats().exec_runs;
  EXPECT_GE(runs_after_first, 1u);
  EXPECT_EQ(session.verify_stats().memo_hits, 0u);

  const size_t hits = session.fix_cache_hits();
  const size_t misses = session.fix_cache_misses();

  // Nothing changed: every fix replays from the fix cache, so the verifier
  // is not even consulted — no misses, no memo probes, no executions.
  Report second = session.Snapshot();
  EXPECT_EQ(second.ToJson(), first.ToJson());
  EXPECT_EQ(session.fix_cache_misses(), misses);
  EXPECT_EQ(session.fix_cache_hits(), hits + second.findings.size());
  EXPECT_EQ(session.verify_stats().memo_hits, 0u);
  EXPECT_EQ(session.verify_stats().exec_runs, runs_after_first);

  // A new statement recomputes the workload-scoped fixes; their proposals
  // are unchanged, so the verdicts come from the memo, still without a new
  // execution.
  session.AddQuery("SELECT id FROM users WHERE id = 1");
  session.Snapshot();
  EXPECT_GT(session.fix_cache_misses(), misses);
  EXPECT_GE(session.verify_stats().memo_hits, 1u);
  EXPECT_EQ(session.verify_stats().exec_runs, runs_after_first);
}

TEST(VerifyExecEngineTest, VerifyModesLeaveDetectionOutputByteIdentical) {
  // A duplicate-heavy log of statements whose fixes carry an executable
  // contract (wildcards, implicit INSERT columns, leading-wildcard LIKEs,
  // ORDER BY RAND, NULL-swallowing concats), with a unique statement after
  // each round of templates so fresh groups keep probing the verdict memo.
  static const char* const kTemplates[] = {
      "SELECT * FROM users WHERE status = 'active'",
      "SELECT * FROM orders WHERE total > 100",
      "SELECT id FROM users WHERE email LIKE '%@example.com'",
      "SELECT oid FROM orders WHERE note LIKE '%rush'",
      "SELECT * FROM users ORDER BY RAND() LIMIT 1",
      "INSERT INTO users VALUES (1, 'ada', 'ada@example.com', 'active')",
      "SELECT name || email FROM users",
      "SELECT u.name, o.total FROM users u JOIN orders o ON u.id = o.user_id "
      "WHERE o.total > 40",
  };
  std::string script =
      "CREATE TABLE users (id INTEGER PRIMARY KEY, name VARCHAR(24), "
      "email VARCHAR(40), status VARCHAR(8));\n"
      "CREATE TABLE orders (oid INTEGER PRIMARY KEY, user_id INTEGER "
      "REFERENCES users(id), total INTEGER, note VARCHAR(30));\n";
  for (size_t i = 0; i < 400; ++i) {
    script += kTemplates[i % 8];
    script += ";\n";
    if (i % 8 == 7) {
      script += "SELECT * FROM orders WHERE oid = " + std::to_string(i) + ";\n";
    }
  }

  // The report JSON without fixes for modes off, on and required, in order.
  std::vector<std::string> detection_json;
  for (ExecVerifyMode mode :
       {ExecVerifyMode::kOff, ExecVerifyMode::kOn, ExecVerifyMode::kRequired}) {
    SqlCheckOptions options;
    options.verify_exec.mode = mode;
    SqlCheck checker(options);
    checker.AddScript(script);
    detection_json.push_back(checker.Run().ToJson());
    if (mode == ExecVerifyMode::kOn) {
      EXPECT_GE(checker.session().verify_stats().exec_runs, 1u);
    }
  }
  EXPECT_NE(detection_json[0].find("Column Wildcard Usage"), std::string::npos);
  EXPECT_EQ(detection_json[1], detection_json[0]);
  EXPECT_EQ(detection_json[2], detection_json[0]);
}

// ---------------------------------------------------------------------------
// Corpus property: the table-3 workload under multiple seeds
// ---------------------------------------------------------------------------

/// (type, query) detection identity of a report, for cross-run comparison.
std::vector<std::pair<AntiPattern, std::string>> DetectionSignature(
    const Report& report) {
  std::vector<std::pair<AntiPattern, std::string>> sig;
  sig.reserve(report.findings.size());
  for (const Finding& f : report.findings) {
    sig.emplace_back(f.ranked.detection.type, f.ranked.detection.query);
  }
  return sig;
}

TEST(VerifyExecCorpusTest, EverySurvivingRewriteVerifiesUnderTwoSeeds) {
  workload::CorpusOptions corpus_options;
  corpus_options.repo_count = 40;
  workload::Corpus corpus = workload::GenerateCorpus(corpus_options);

  std::vector<std::pair<AntiPattern, std::string>> baseline_sig;
  {
    SqlCheck baseline;  // verification off
    for (const auto& labeled : corpus.AllStatements()) baseline.AddQuery(labeled.sql);
    baseline_sig = DetectionSignature(baseline.Run());
    ASSERT_FALSE(baseline_sig.empty());
  }

  for (uint64_t seed : {42u, 7u}) {
    SqlCheckOptions options;
    options.verify_exec.mode = ExecVerifyMode::kOn;
    options.verify_exec.seed = seed;
    SqlCheck checker(options);
    for (const auto& labeled : corpus.AllStatements()) checker.AddQuery(labeled.sql);
    Report report = checker.Run();

    // Tier 3 must not perturb detection or ranking: same findings, same
    // order, regardless of seed.
    EXPECT_EQ(DetectionSignature(report), baseline_sig) << "seed " << seed;

    size_t exec_verified = 0;
    for (const Finding& f : report.findings) {
      const Fix& fix = f.fix;
      if (fix.kind != FixKind::kRewrite) {
        if (!fix.verify_note.empty()) {
          EXPECT_FALSE(fix.verified);
        }
        continue;
      }
      // The surviving-rewrite property: still verified, at Tier 2 at worst
      // (infeasible cases keep their analysis-tier verdict under `on`), and
      // never carrying a divergence note.
      EXPECT_TRUE(fix.verified) << ApName(fix.type) << " seed " << seed;
      EXPECT_TRUE(fix.verify_tier == VerifyTier::kAnalysis ||
                  fix.verify_tier == VerifyTier::kExec)
          << ApName(fix.type) << " seed " << seed;
      EXPECT_TRUE(fix.verify_note.empty()) << fix.verify_note;
      if (fix.verify_tier == VerifyTier::kExec) ++exec_verified;
    }
    EXPECT_GT(exec_verified, 0u)
        << "corpus produced no Tier-3-verified rewrites at seed " << seed;

    const VerifyStats& stats = checker.session().verify_stats();
    EXPECT_GT(stats.exec_runs, 0u);
    EXPECT_EQ(stats.tier_exec, exec_verified);
  }
}

}  // namespace
}  // namespace sqlcheck
