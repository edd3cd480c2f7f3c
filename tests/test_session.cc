// Incremental session engine: feeding any prefix — or any chunking — of a
// script through AnalysisSession must yield reports byte-identical to the
// plainest run over the same statement order (dedup off, one statement at a
// time). That reference is itself pinned to digests recorded from the
// retired batch pipeline (context build + detect + rank + fix), so neither
// can drift.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "analysis/context.h"
#include "common/failpoint.h"
#include "core/emit.h"
#include "core/session.h"
#include "core/sqlcheck.h"
#include "engine/executor.h"
#include "query_log.h"
#include "rules/registry.h"
#include "sql/block_scan.h"
#include "sql/extractor.h"
#include "sql/fingerprint.h"
#include "sql/splitter.h"
#include "workload/corpus.h"

namespace sqlcheck {
namespace {

// Mixed workload: DDL (design rules), duplicate-heavy queries (the memo),
// index DDL (inter-query rules), and data-sensitive predicates.
const char* kScript = R"sql(
CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(64), password VARCHAR(64),
                    tag_ids TEXT, balance FLOAT, created_at TIMESTAMP);
CREATE TABLE orders (id INT PRIMARY KEY, user_id INT,
                     status VARCHAR(8) CHECK (status IN ('open', 'paid')));
CREATE INDEX idx_orders_user ON orders (user_id);
CREATE INDEX idx_orders_user_status ON orders (user_id, status);
SELECT * FROM users WHERE id = ?;
select * from users where id = ?;
SELECT * FROM users WHERE id = ?  -- comment jitter
;
SELECT u.name, o.status FROM users u JOIN orders o ON u.id = o.user_id;
SELECT name FROM users WHERE tag_ids LIKE '%,7,%';
SELECT name, password FROM users WHERE password = 'hunter2';
SELECT DISTINCT u.name FROM users u JOIN orders o ON u.id = o.user_id
    ORDER BY RAND();
INSERT INTO orders VALUES (1, 1, 'open');
INSERT INTO orders VALUES (1, 1, 'open');
UPDATE users SET balance = 0 WHERE id = 3;
)sql";

/// The reference every incremental feeding order is compared against: no
/// fingerprint memo, no script split, each statement appended on its own.
Report ReferencePipeline(const std::vector<std::string>& statements,
                         SqlCheckOptions options, const Database* db = nullptr) {
  options.dedup_queries = false;
  AnalysisSession session(std::move(options));
  if (db != nullptr) session.AttachDatabase(db);
  for (const auto& s : statements) session.AddQuery(s);
  return session.Snapshot();
}

/// Full serialized form — ToText and ToJson together catch every field.
std::string Serialize(const Report& report) {
  return report.ToText() + "\n---\n" + report.ToJson();
}

/// Serialize plus each fix's anchor, verification fields and impacted-query
/// list: the fix-cache tests compare these too.
std::string SerializeWithFixes(const Report& report) {
  EmitOptions options;
  options.include_fixes = true;
  return Serialize(report) + "\n---\n" + ToJson(report, options);
}

std::vector<std::string> ScriptStatements() {
  std::vector<std::string> out;
  for (std::string_view piece : sql::SplitStatements(kScript)) out.emplace_back(piece);
  return out;
}

TEST(SessionTest, ChunkPermutationsMatchBatchOnSameOrder) {
  std::vector<std::string> statements = ScriptStatements();
  const size_t third = statements.size() / 3;
  std::vector<std::vector<std::string>> chunks = {
      {statements.begin(), statements.begin() + third},
      {statements.begin() + third, statements.begin() + 2 * third},
      {statements.begin() + 2 * third, statements.end()},
  };

  for (const std::vector<size_t>& order :
       std::vector<std::vector<size_t>>{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}, {2, 1, 0}}) {
    AnalysisSession session;
    std::vector<std::string> fed_order;
    for (size_t c : order) {
      std::string chunk_script;
      for (const auto& stmt : chunks[c]) {
        chunk_script += stmt;
        // ';' on its own line: a piece ending in a '--' comment must not
        // swallow the separator when the chunk is re-split.
        chunk_script += "\n;\n";
        fed_order.push_back(stmt);
      }
      session.AddScript(chunk_script);
    }
    EXPECT_EQ(Serialize(session.Snapshot()),
              Serialize(ReferencePipeline(fed_order, SqlCheckOptions{})))
        << "chunk order " << order[0] << order[1] << order[2];
  }
}

TEST(SessionTest, SnapshotIsIdempotentAndAppendable) {
  AnalysisSession session;
  session.AddScript(kScript);
  std::string first = Serialize(session.Snapshot());
  EXPECT_EQ(Serialize(session.Snapshot()), first);

  session.AddQuery("SELECT * FROM orders");
  std::string grown = Serialize(session.Snapshot());
  EXPECT_NE(grown, first);
  EXPECT_EQ(grown, Serialize(session.Snapshot()));
}

TEST(SessionTest, MatchesBatchWithDedupOff) {
  SqlCheckOptions options;
  options.dedup_queries = false;
  AnalysisSession session(options);
  std::vector<std::string> statements = ScriptStatements();
  for (const auto& stmt : statements) session.AddQuery(stmt);
  EXPECT_EQ(Serialize(session.Snapshot()),
            Serialize(ReferencePipeline(statements, options)));
}

TEST(SessionTest, CorpusWorkloadWithDatabaseMatchesBatch) {
  workload::CorpusOptions corpus_options;
  corpus_options.repo_count = 12;
  std::vector<std::string> statements;
  for (const auto& labeled : workload::GenerateCorpus(corpus_options).AllStatements()) {
    statements.push_back(labeled.sql);
  }

  Database db;
  Executor exec(&db);
  exec.ExecuteScript(R"sql(
CREATE TABLE users (id INTEGER PRIMARY KEY, name VARCHAR(40), status TEXT,
                    password VARCHAR(32), created_at TEXT);
)sql");
  for (int i = 0; i < 16; ++i) {
    std::string n = std::to_string(i);
    exec.ExecuteSql("INSERT INTO users VALUES (" + n + ", 'user" + n +
                    "', 'active', 'hunter2', '2019-07-04 12:00:00')");
  }

  // Attach-early and attach-late sessions must both match the batch build.
  std::string reference =
      Serialize(ReferencePipeline(statements, SqlCheckOptions{}, &db));

  AnalysisSession early;
  early.AttachDatabase(&db);
  for (const auto& stmt : statements) early.AddQuery(stmt);
  EXPECT_EQ(Serialize(early.Snapshot()), reference);

  AnalysisSession late;
  for (const auto& stmt : statements) late.AddQuery(stmt);
  late.AttachDatabase(&db);
  EXPECT_EQ(Serialize(late.Snapshot()), reference);
}

// ------------------------ script vs statement append ------------------------

/// Adversarial script: the same statements recur in every round (dedup must
/// resolve against earlier rounds), DML references tables whose DDL only
/// arrives at the end (DDL-after-DML), and keyword-case jitter shares groups.
std::string AdversarialScript(size_t rounds) {
  std::string script;
  auto add = [&script](const std::string& stmt) {
    script += stmt;
    script += ";\n";
  };
  for (size_t r = 0; r < rounds; ++r) {
    const std::string t = "late" + std::to_string(r % 3);
    add("SELECT * FROM " + t + " WHERE id = ?");
    add("select * from " + t + " where id = ?");
    add("SELECT a.name, b.status FROM " + t + " a JOIN orders b ON a.id = b.ref_id");
    add("INSERT INTO " + t + " VALUES (1, 'open', 0.5)");
    add("SELECT name FROM users WHERE tag_ids LIKE '%,7,%'");
    add("SELECT name, password FROM users WHERE password = 'hunter2'");
    add("UPDATE users SET balance = 0 WHERE id = " + std::to_string(r));
    add("SELECT * FROM users WHERE id = ?");
  }
  add("CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(64), "
      "password VARCHAR(64), tag_ids TEXT, balance FLOAT)");
  add("CREATE TABLE orders (id INT PRIMARY KEY, ref_id INT, status VARCHAR(8))");
  for (int k = 0; k < 3; ++k) {
    const std::string t = "late" + std::to_string(k);
    add("CREATE TABLE " + t + " (id INT PRIMARY KEY, status VARCHAR(8), score FLOAT)");
    add("CREATE INDEX idx_" + t + " ON " + t + " (status)");
  }
  add("SELECT * FROM users WHERE id = ?");
  return script;
}

std::string Table3Script() {
  workload::CorpusOptions corpus_options;
  corpus_options.repo_count = 12;
  std::string script;
  for (const auto& s : workload::GenerateCorpus(corpus_options).AllStatements()) {
    script += s.sql;
    script += ";\n";
  }
  return script;
}

/// AddScript and AddQuery share one per-statement append path, so a whole
/// script must leave the session exactly as its statements fed singly do:
/// groups, interned names, and every report byte.
void ExpectScriptMatchesStatementAtATime(const std::string& script,
                                         const SqlCheckOptions& options) {
  AnalysisSession whole(options);
  const size_t added = whole.AddScript(script);
  AnalysisSession single(options);
  for (std::string_view piece : sql::SplitStatements(script)) single.AddQuery(piece);
  EXPECT_EQ(added, single.statement_count());
  EXPECT_EQ(whole.unique_count(), single.unique_count());
  EXPECT_EQ(whole.Usage().interner_names, single.Usage().interner_names);
  EXPECT_EQ(Serialize(whole.Snapshot()), Serialize(single.Snapshot()))
      << "scalar=" << sql::blockscan::ForceScalar()
      << " dedup=" << options.dedup_queries;
}

TEST(SessionTest, ScriptMatchesStatementAtATime) {
  ExpectScriptMatchesStatementAtATime(AdversarialScript(20), SqlCheckOptions{});
}

TEST(SessionTest, ScriptMatchesStatementAtATimeOnScalarPath) {
  const bool ambient_scalar = sql::blockscan::ForceScalar();
  sql::blockscan::SetForceScalarForTest(true);
  for (const std::string& script : {AdversarialScript(20), Table3Script()}) {
    for (bool dedup : {true, false}) {
      SqlCheckOptions options;
      options.dedup_queries = dedup;
      ExpectScriptMatchesStatementAtATime(script, options);
    }
  }
  sql::blockscan::SetForceScalarForTest(ambient_scalar);
}

TEST(SessionTest, ScriptMatchesStatementAtATimeWithDedupOff) {
  SqlCheckOptions options;
  options.dedup_queries = false;
  ExpectScriptMatchesStatementAtATime(AdversarialScript(16), options);
  ExpectScriptMatchesStatementAtATime(Table3Script(), options);
}

TEST(SessionTest, Table3ScriptMatchesStatementAtATime) {
  ExpectScriptMatchesStatementAtATime(Table3Script(), SqlCheckOptions{});
}

uint64_t Fnv(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<std::string> Pieces(const std::string& script) {
  std::vector<std::string> out;
  for (std::string_view piece : sql::SplitStatements(script)) out.emplace_back(piece);
  return out;
}

/// Streams `statements` into one long-lived session and snapshots it at
/// about `prefixes` evenly spaced prefixes (and after the last statement),
/// fixes serialized, against the reference. Each prefix snapshots twice: the
/// repeat gives the same bytes, refills no rule-cache row and computes no
/// fix.
void ExpectEveryPrefixMatchesBatch(const std::vector<std::string>& statements,
                                   size_t prefixes) {
  AnalysisSession session;
  std::vector<std::string> prefix;
  const size_t step = std::max<size_t>(1, statements.size() / prefixes);
  for (const auto& stmt : statements) {
    session.AddQuery(stmt);
    prefix.push_back(stmt);
    if (prefix.size() % step != 0 && prefix.size() != statements.size()) continue;
    const std::string first = SerializeWithFixes(session.Snapshot());
    EXPECT_EQ(first, SerializeWithFixes(ReferencePipeline(prefix, SqlCheckOptions{})))
        << "prefix length " << prefix.size();
    const size_t rule_misses = session.rule_cache_misses();
    const size_t fix_misses = session.fix_cache_misses();
    EXPECT_EQ(SerializeWithFixes(session.Snapshot()), first)
        << "prefix length " << prefix.size();
    EXPECT_EQ(session.rule_cache_misses(), rule_misses) << "prefix length " << prefix.size();
    EXPECT_EQ(session.fix_cache_misses(), fix_misses) << "prefix length " << prefix.size();
  }
}

TEST(SessionTest, EveryPrefixMatchesBatch) {
  const std::vector<std::string> script = ScriptStatements();
  ASSERT_GE(script.size(), 10u);
  {
    SCOPED_TRACE("script, every prefix");
    ExpectEveryPrefixMatchesBatch(script, script.size());
  }
  {
    SCOPED_TRACE("table3");
    ExpectEveryPrefixMatchesBatch(Pieces(Table3Script()), 20);
  }
  workload::CorpusOptions corpus_options;
  corpus_options.repo_count = 1;
  corpus_options.seed = 2;
  const workload::Corpus corpus = workload::GenerateCorpus(corpus_options);
  std::vector<std::string> repo;
  for (const auto& labeled : corpus.repos[0].statements) repo.push_back(labeled.sql);
  SCOPED_TRACE("seeded repository");
  ASSERT_GE(repo.size(), 10u);
  ExpectEveryPrefixMatchesBatch(repo, 20);
}

TEST(SessionTest, ReferencePipelineMatchesPinnedDigests) {
  // FNV-1a of Report::ToJson (fixes on) as the retired batch pipeline
  // emitted it, with dedup on and off alike; the fix texts were re-pinned
  // when rewrites became source edits. The reference and a deduping
  // session must both still produce exactly those bytes.
  workload::CorpusOptions corpus_options;
  corpus_options.repo_count = 12;
  std::vector<std::string> corpus;
  for (const auto& labeled : workload::GenerateCorpus(corpus_options).AllStatements()) {
    corpus.push_back(labeled.sql);
  }
  Database db;
  Executor exec(&db);
  exec.ExecuteScript(R"sql(
CREATE TABLE users (id INTEGER PRIMARY KEY, name VARCHAR(40), status TEXT,
                    password VARCHAR(32), created_at TEXT);
)sql");
  for (int i = 0; i < 16; ++i) {
    std::string n = std::to_string(i);
    exec.ExecuteSql("INSERT INTO users VALUES (" + n + ", 'user" + n +
                    "', 'active', 'hunter2', '2019-07-04 12:00:00')");
  }
  struct Case {
    const char* name;
    std::vector<std::string> statements;
    const Database* db;
    uint64_t pin;
  };
  const std::vector<Case> cases = {
      {"script", ScriptStatements(), nullptr, 14665789139845064797ull},
      {"corpus+db", corpus, &db, 9662713936840123089ull},
      {"table3", Pieces(Table3Script()), nullptr, 12707266108549047959ull},
      {"adversarial", Pieces(AdversarialScript(20)), nullptr, 4112509438834572782ull},
  };
  for (const Case& c : cases) {
    Report reference = ReferencePipeline(c.statements, SqlCheckOptions{}, c.db);
    EXPECT_EQ(Fnv(reference.ToJson()), c.pin) << c.name;
    AnalysisSession dedup;
    if (c.db != nullptr) dedup.AttachDatabase(c.db);
    for (const auto& stmt : c.statements) dedup.AddQuery(stmt);
    EXPECT_EQ(Fnv(dedup.Snapshot().ToJson()), c.pin) << c.name << " (dedup on)";
  }
}

TEST(SessionTest, CheckAfterScriptMatchesStatementAtATime) {
  // Check() on top of a script load sees the same memos and aggregates as
  // on top of the same statements appended one at a time.
  const std::string script = AdversarialScript(16);
  const char* incoming = "SELECT * FROM users WHERE id = ?;"
                         "SELECT score FROM late1 WHERE status = 'open';";
  AnalysisSession whole;
  whole.AddScript(script);
  AnalysisSession single;
  for (std::string_view piece : sql::SplitStatements(script)) single.AddQuery(piece);
  EXPECT_EQ(Serialize(whole.Check(incoming)), Serialize(single.Check(incoming)));
  EXPECT_EQ(Serialize(whole.Snapshot()), Serialize(single.Snapshot()));
}

TEST(SessionTest, QuotaGatesWholeScript) {
  const std::string script = AdversarialScript(16);
  SqlCheckOptions options;
  options.limits.max_ingest_bytes = script.size() / 2;
  AnalysisSession session(options);
  EXPECT_EQ(session.AddScript(script), 0u);  // refused whole, nothing ingested
  EXPECT_FALSE(session.quota_status().ok());
  EXPECT_EQ(session.statement_count(), 0u);
}

TEST(SessionTest, MidSessionQuotaBreachIsSticky) {
  // The first script fits; the second crosses the byte cap and is refused
  // whole at the gate, leaving the session frozen (but fully queryable) at
  // its first-load state. A retry stays refused: quotas only tighten.
  const std::string first = AdversarialScript(10);
  const std::string second = AdversarialScript(16);
  SqlCheckOptions options;
  options.limits.max_ingest_bytes = first.size() + second.size() / 2;
  AnalysisSession session(options);

  ASSERT_GT(session.AddScript(first), 0u);
  ASSERT_TRUE(session.quota_status().ok());
  const std::string before = Serialize(session.Snapshot());
  const SessionUsage usage_before = session.Usage();

  EXPECT_EQ(session.AddScript(second), 0u);
  EXPECT_FALSE(session.quota_status().ok());
  SessionUsage usage_after = session.Usage();
  EXPECT_EQ(usage_after.statements, usage_before.statements);
  EXPECT_EQ(usage_after.ingested_bytes, usage_before.ingested_bytes);
  EXPECT_EQ(usage_after.interner_names, usage_before.interner_names);
  EXPECT_EQ(before, Serialize(session.Snapshot()));

  EXPECT_EQ(session.AddScript(second), 0u);
  EXPECT_EQ(usage_before.statements, session.statement_count());
}

TEST(SessionTest, RepeatedStatementReusesFingerprintMemo) {
  AnalysisSession session;
  session.AddQuery("SELECT * FROM users WHERE id = ?");
  for (int i = 0; i < 100; ++i) {
    session.AddQuery("SELECT * FROM users WHERE id = ?");
    session.AddQuery("select * from users where id = ?");  // case jitter
  }
  EXPECT_EQ(session.statement_count(), 201u);
  EXPECT_EQ(session.unique_count(), 1u);
  // Two spellings are parsed; the other 199 statements repeat one of them
  // byte for byte and land with no lex and no parse.
  EXPECT_EQ(session.raw_repeats(), 199u);
}

/// The corpus scanner keys its store records on each group's canonical view
/// and each statement's exact fingerprint. Both must be what a fresh
/// canonicalization of the statement's own text gives, or a scan would key
/// a statement differently from the scans that wrote the store before it.
void ExpectGroupKeysAreScanKeys(const AnalysisSession& session) {
  const QueryGroups& groups = session.context().query_groups();
  const std::vector<QueryFacts>& queries = session.context().queries();
  ASSERT_EQ(groups.canonical.size(), groups.unique_count());
  ASSERT_EQ(groups.fingerprints.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::string_view raw = queries[i].raw_sql;
    const std::string_view canonical = groups.canonical[groups.group[i]];
    std::string scan_canonical;
    const sql::ScanFingerprints scan = sql::FingerprintForScan(raw, &scan_canonical);
    ASSERT_EQ(canonical, sql::CanonicalizeSql(raw, sql::FingerprintOptions::Exact())) << raw;
    ASSERT_EQ(canonical, scan_canonical) << raw;
    ASSERT_EQ(groups.fingerprints[i], scan.exact) << raw;
  }
}

TEST(SessionTest, GroupCanonicalIsTheScanKey) {
  {
    SCOPED_TRACE("table-3 script");
    AnalysisSession session;
    session.AddScript(Table3Script());
    EXPECT_LT(session.unique_count(), session.statement_count());
    ExpectGroupKeysAreScanKeys(session);
  }
  for (uint64_t seed : {1ull, 7ull, 1406ull}) {
    SCOPED_TRACE(seed);
    workload::CorpusOptions corpus_options;
    corpus_options.repo_count = 24;
    corpus_options.seed = seed;
    // Each repository as the scanner feeds it: embedded SQL, one AddQuery
    // per extracted span.
    for (const workload::CorpusRepo& repo : workload::GenerateCorpus(corpus_options).repos) {
      AnalysisSession session;
      for (const sql::EmbeddedSql& found : sql::ExtractEmbeddedSql(repo.source)) {
        session.AddQuery(found.sql);
      }
      ExpectGroupKeysAreScanKeys(session);
    }
  }
  {
    SCOPED_TRACE("untrimmed spellings");
    AnalysisSession session;
    session.AddQuery("  \n SELECT * FROM users WHERE id = 1 ;  \t");
    session.AddQuery("select *\n  from users -- trailing note\n where id = 1");
    session.AddQuery("/* lead */ SELECT * FROM users WHERE id = 1;");
    session.AddQuery("SELECT * FROM users WHERE name = 'O''Brien'  ");
    session.AddQuery("-- a comment and nothing else\n");
    // A kept semicolon is a token of the canonical form: the first and
    // third spellings are one group, the second another.
    EXPECT_EQ(session.unique_count(), 4u);
    ExpectGroupKeysAreScanKeys(session);
  }
  {
    SCOPED_TRACE("memo_insert retry");
    ASSERT_TRUE(FailpointRegistry::Instance().Arm("memo_insert", "oneshot").ok());
    AnalysisSession session;
    session.AddQuery("SELECT * FROM users WHERE id = 1");
    session.AddScript("SELECT name FROM users; select *  from users where id = 1;");
    FailpointRegistry::Instance().Disarm("memo_insert");
    EXPECT_GE(session.faults_recovered(), 1u);
    EXPECT_EQ(session.statement_count(), 3u);
    EXPECT_EQ(session.unique_count(), 2u);
    ExpectGroupKeysAreScanKeys(session);
  }
  {
    SCOPED_TRACE("dedup off");
    SqlCheckOptions options;
    options.dedup_queries = false;
    AnalysisSession session(options);
    session.AddScript(Table3Script());
    EXPECT_GT(session.statement_count(), 0u);
    EXPECT_TRUE(session.context().query_groups().canonical.empty());
  }
}

// ------------------------- shared parse trees --------------------------------

TEST(SessionTest, ByteIdenticalRepeatsAddNoArenaBytes) {
  const std::string query = "SELECT * FROM users WHERE tag_ids LIKE '%,7,%'";
  AnalysisSession session;
  session.AddQuery(query);
  const size_t arena_used = session.Usage().arena_used_bytes;
  ASSERT_GT(arena_used, 0u);
  std::vector<std::string> statements = {query};
  for (int i = 0; i < 20; ++i) {
    // Whitespace around the text is trimmed off before the memo probe.
    const std::string repeat = i % 2 == 0 ? query : "  " + query + "\n";
    session.AddQuery(repeat);
    statements.push_back(repeat);
  }
  EXPECT_EQ(session.Usage().arena_used_bytes, arena_used);
  EXPECT_EQ(session.raw_repeats(), 20u);
  EXPECT_EQ(session.statement_count(), 21u);
  for (const QueryFacts& facts : session.context().queries()) {
    EXPECT_EQ(facts.raw_sql, query);
    EXPECT_EQ(facts.stmt, session.context().queries()[0].stmt);
  }
  EXPECT_EQ(SerializeWithFixes(session.Snapshot()),
            SerializeWithFixes(ReferencePipeline(statements, SqlCheckOptions{})));
}

TEST(SessionTest, TwoSpellingGroupKeepsEachOccurrenceText) {
  // One fingerprint group, two spellings, each repeated: a repeat borrows
  // the tree of the first occurrence of its own bytes, which for the second
  // spelling is not the group representative.
  const std::string upper = "SELECT * FROM users WHERE id = 3";
  const std::string lower = "select  *  from users where id = 3";
  std::vector<std::string> statements = {
      "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(64))"};
  for (const std::string* sql : {&upper, &lower, &upper, &lower, &lower, &upper}) {
    statements.push_back(*sql);
  }
  AnalysisSession session;
  for (const std::string& sql : statements) session.AddQuery(sql);
  EXPECT_EQ(session.unique_count(), 2u);
  EXPECT_EQ(session.raw_repeats(), 4u);
  const std::vector<QueryFacts>& queries = session.context().queries();
  ASSERT_EQ(queries.size(), statements.size());
  for (size_t i = 0; i < statements.size(); ++i) {
    EXPECT_EQ(queries[i].raw_sql, statements[i]) << i;
    EXPECT_EQ(queries[i].raw_sql, queries[i].stmt->raw_sql) << i;
  }
  EXPECT_EQ(queries[3].stmt, queries[1].stmt);
  EXPECT_EQ(queries[4].stmt, queries[2].stmt);
  EXPECT_NE(queries[1].stmt, queries[2].stmt);
  EXPECT_EQ(SerializeWithFixes(session.Snapshot()),
            SerializeWithFixes(ReferencePipeline(statements, SqlCheckOptions{})));
}

TEST(SessionTest, RepeatInsideOneScriptSkipsTheParse) {
  AnalysisSession once;
  once.AddScript("SELECT * FROM t; select * from t;");
  AnalysisSession repeated;
  EXPECT_EQ(repeated.AddScript("SELECT * FROM t; SELECT * FROM t; select * from t;"
                               "SELECT * FROM t;select * from t;"),
            5u);
  // The three repeats of the batch are never parsed: the arena holds the
  // two trees of the two-statement script and nothing more.
  EXPECT_EQ(repeated.raw_repeats(), 3u);
  EXPECT_EQ(repeated.Usage().arena_used_bytes, once.Usage().arena_used_bytes);
  const std::vector<std::string> statements = {"SELECT * FROM t", "SELECT * FROM t",
                                               "select * from t", "SELECT * FROM t",
                                               "select * from t"};
  EXPECT_EQ(SerializeWithFixes(repeated.Snapshot()),
            SerializeWithFixes(ReferencePipeline(statements, SqlCheckOptions{})));
}

TEST(SessionTest, QuarantinedSpellingIsRefusedBeforeTheMemo) {
  // A statement that overruns its budget lands, then is quarantined. Its
  // byte-identical repeat would hit the raw memo, but the quarantine probe
  // comes first and refuses it.
  std::string heavy = "SELECT * FROM t WHERE id IN (0";
  for (int i = 1; i < 100000; ++i) heavy += "," + std::to_string(i);
  heavy += ")";
  SqlCheckOptions options;
  options.statement_budget_ms = 1;
  AnalysisSession session(options);
  session.AddQuery(heavy);
  ASSERT_EQ(session.statement_count(), 1u);
  ASSERT_EQ(session.statements_quarantined(), 1u);

  session.AddQuery(heavy);
  EXPECT_EQ(session.statement_count(), 1u);
  EXPECT_EQ(session.quarantine_refusals(), 1u);
  EXPECT_EQ(session.raw_repeats(), 0u);
  ASSERT_EQ(session.recent_failures().size(), 1u);
  EXPECT_TRUE(session.recent_failures()[0].quarantined);
}

TEST(SessionTest, DeadlineAndBudgetApplyToRepeats) {
  SqlCheckOptions options;
  options.statement_budget_ms = 60000;  // armed, never exceeded
  AnalysisSession session(options);
  session.AddScript("SELECT a FROM t; SELECT a FROM t;");
  EXPECT_EQ(session.statement_count(), 2u);
  EXPECT_EQ(session.raw_repeats(), 1u);
  EXPECT_TRUE(session.recent_failures().empty());

  // An expired deadline refuses repeats like any other statement.
  session.SetDeadline(std::chrono::steady_clock::now() - std::chrono::milliseconds(10));
  EXPECT_EQ(session.AddScript("SELECT a FROM t; SELECT a FROM t;"), 0u);
  session.AddQuery("SELECT a FROM t");
  session.ClearDeadline();
  EXPECT_EQ(session.statement_count(), 2u);
  EXPECT_EQ(session.raw_repeats(), 1u);
  ASSERT_EQ(session.recent_failures().size(), 1u);
  EXPECT_EQ(session.recent_failures()[0].code, "deadline_exceeded");

  // The statement quota counts repeats too.
  SqlCheckOptions capped;
  capped.limits.max_statements = 2;
  AnalysisSession limited(capped);
  limited.AddQuery("SELECT a FROM t");
  limited.AddQuery("SELECT a FROM t");
  EXPECT_TRUE(limited.quota_status().ok());
  limited.AddQuery("SELECT a FROM t");
  EXPECT_FALSE(limited.quota_status().ok());
  EXPECT_EQ(limited.statement_count(), 2u);
  EXPECT_EQ(limited.raw_repeats(), 1u);
}

TEST(SessionTest, CheckReportsFindingsForAppendedStatementOnly) {
  AnalysisSession session;
  session.AddScript(
      "CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(8));"
      "SELECT * FROM t;");

  Report delta = session.Check("SELECT v FROM t ORDER BY RAND()");
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta.findings[0].ranked.detection.type, AntiPattern::kOrderingByRand);
  // The wildcard finding from the earlier statement is not replayed...
  for (const auto& f : delta.findings) {
    EXPECT_NE(f.ranked.detection.type, AntiPattern::kColumnWildcard);
  }
  // ...but the full snapshot still carries both.
  Report full = session.Snapshot();
  EXPECT_EQ(full.CountsByType().count(AntiPattern::kColumnWildcard), 1u);
  EXPECT_EQ(full.CountsByType().count(AntiPattern::kOrderingByRand), 1u);
}

TEST(SessionTest, CheckOnDuplicateUsesCachedGroup) {
  AnalysisSession session;
  Report first = session.Check("SELECT * FROM users");
  ASSERT_EQ(first.size(), 1u);
  size_t uniques = session.unique_count();

  Report again = session.Check("select  *  from users  -- dup");
  EXPECT_EQ(session.unique_count(), uniques);  // memo hit, no new analysis
  ASSERT_EQ(again.size(), 1u);
  // Rebased onto the duplicate occurrence's own raw text.
  EXPECT_EQ(again.findings[0].ranked.detection.query, "select  *  from users  -- dup");
  EXPECT_EQ(again.findings[0].ranked.detection.type,
            first.findings[0].ranked.detection.type);
}

// ------------------------------ disabled rules ------------------------------

TEST(SessionTest, DisabledRulesAreHonored) {
  SqlCheckOptions options;
  options.disabled_rules = {"Column Wildcard Usage", "ordering by rand"};  // any case
  AnalysisSession session(options);
  EXPECT_TRUE(session.status().ok());
  session.AddScript(kScript);
  Report report = session.Snapshot();
  EXPECT_FALSE(report.empty());
  for (const auto& f : report.findings) {
    EXPECT_NE(f.ranked.detection.type, AntiPattern::kColumnWildcard);
    EXPECT_NE(f.ranked.detection.type, AntiPattern::kOrderingByRand);
  }
  // And the session output still matches a batch run with the same options.
  EXPECT_EQ(Serialize(session.Snapshot()),
            Serialize(ReferencePipeline(ScriptStatements(), options)));
}

TEST(SessionTest, UnknownDisabledRuleSurfacesErrorStatus) {
  SqlCheckOptions options;
  options.disabled_rules = {"Not A Rule"};
  AnalysisSession session(options);
  EXPECT_FALSE(session.status().ok());
  EXPECT_NE(session.status().message().find("Not A Rule"), std::string::npos);
  // The full rule set stays active.
  session.AddQuery("SELECT * FROM users");
  EXPECT_EQ(session.Snapshot().size(), 1u);
}

TEST(RuleRegistryTest, DisableRemovesMatchingRulesOnly) {
  RuleRegistry registry = RuleRegistry::Default();
  size_t all = registry.size();
  EXPECT_TRUE(registry.Disable({"Too Many Joins"}).ok());
  EXPECT_EQ(registry.size(), all - 1);
  for (const auto& rule : registry.rules()) {
    EXPECT_NE(rule->type(), AntiPattern::kTooManyJoins);
  }
  // Unknown names error and leave the registry unchanged.
  EXPECT_FALSE(registry.Disable({"Bogus"}).ok());
  EXPECT_EQ(registry.size(), all - 1);
}

// -------------------------- facade / one-shot paths -------------------------

TEST(SessionTest, FindAntiPatternsMatchesSessionAndFacade) {
  const char* sql = "SELECT DISTINCT a.x FROM a JOIN b ON a.id = b.a_id ORDER BY RAND()";

  AnalysisSession session;
  session.AddQuery(sql);
  std::string via_session = Serialize(session.Snapshot());

  SqlCheck checker;
  checker.AddQuery(sql);
  std::string via_facade = Serialize(checker.Run());

  EXPECT_EQ(Serialize(FindAntiPatterns(sql)), via_session);
  EXPECT_EQ(via_facade, via_session);
  EXPECT_EQ(via_session, Serialize(ReferencePipeline({sql}, SqlCheckOptions{})));
}

TEST(SessionTest, CustomRuleRegisteredLateCoversEarlierStatements) {
  class UpdateEverythingRule final : public Rule {
   public:
    AntiPattern type() const override { return AntiPattern::kImplicitColumns; }
    void CheckQuery(const QueryFacts& facts, const Context& context,
                    const DetectorConfig& config,
                    std::vector<Detection>* out) const override {
      (void)context;
      (void)config;
      if (facts.kind != sql::StatementKind::kUpdate) return;
      Detection d;
      d.type = type();
      d.query = facts.raw_sql;
      d.message = "custom: update spotted";
      out->push_back(d);
    }
  };

  AnalysisSession session;
  session.AddQuery("UPDATE t SET a = 1");  // ingested before the rule exists
  session.RegisterRule(std::make_unique<UpdateEverythingRule>());
  Report report = session.Snapshot();
  bool found = false;
  for (const auto& f : report.findings) {
    if (f.ranked.detection.message == "custom: update spotted") found = true;
  }
  EXPECT_TRUE(found);
}

// --------------------------------- fix cache ---------------------------------

/// The fix of the first finding of `type` on exactly `query`, or nullptr.
const Fix* FixOf(const Report& report, AntiPattern type, std::string_view query) {
  for (const Finding& f : report.findings) {
    if (f.ranked.detection.type == type && f.ranked.detection.query == query) {
      return &f.fix;
    }
  }
  return nullptr;
}

TEST(SessionTest, UnchangedResnapshotReplaysEveryFix) {
  AnalysisSession session;
  session.AddScript(kScript);
  const std::string first = SerializeWithFixes(session.Snapshot());
  const size_t hits = session.fix_cache_hits();
  const size_t misses = session.fix_cache_misses();
  ASSERT_GT(misses, 0u);

  const size_t rule_hits = session.rule_cache_hits();
  const size_t rule_misses = session.rule_cache_misses();
  ASSERT_GT(rule_misses, 0u);

  Report again = session.Snapshot();
  EXPECT_EQ(SerializeWithFixes(again), first);
  EXPECT_EQ(session.fix_cache_misses(), misses);
  EXPECT_EQ(session.fix_cache_hits(), hits + again.size());
  // No rule evaluates either: every group's row replays.
  EXPECT_EQ(session.rule_cache_misses(), rule_misses);
  EXPECT_EQ(session.rule_cache_hits(), rule_hits + session.unique_count());
}

TEST(SessionTest, CheckedQueryLogMatchesBatchAndAppendsBeatARerun) {
  // A 2,000-statement query log streamed through Check() one statement at a
  // time snapshots to the batch report's bytes, fixes on and off, and a
  // repeat snapshot computes no fix. With fixes on, an append's p99 must
  // also cost at most a tenth of re-running the batch facade over the whole
  // log: a same-run ratio that reads several hundred x on Release, Debug
  // and sanitizer builds alike.
  using Clock = std::chrono::steady_clock;
  auto us = [](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };
  const std::vector<std::string> log = DuplicateHeavyLog(2000);
  for (bool fixes : {true, false}) {
    SCOPED_TRACE(fixes ? "fixes on" : "fixes off");
    SqlCheckOptions options;
    options.suggest_fixes = fixes;
    AnalysisSession session(options);
    std::vector<Clock::duration> appends;
    appends.reserve(log.size());
    for (const std::string& statement : log) {
      const Clock::time_point start = Clock::now();
      session.Check(statement);
      appends.push_back(Clock::now() - start);
    }
    const std::string streamed = session.Snapshot().ToJson();
    const size_t misses = session.fix_cache_misses();
    EXPECT_EQ(session.Snapshot().ToJson(), streamed);
    EXPECT_EQ(session.fix_cache_misses(), misses);

    const Clock::time_point rerun_start = Clock::now();
    SqlCheck batch(options);
    for (const std::string& statement : log) batch.AddQuery(statement);
    const std::string batched = batch.Run().ToJson();
    const Clock::duration rerun = Clock::now() - rerun_start;
    EXPECT_EQ(streamed, batched);

    if (fixes) {
      std::sort(appends.begin(), appends.end());
      const Clock::duration p99 = appends[appends.size() * 99 / 100];
      EXPECT_LE(10 * p99, rerun)
          << "append p99 " << us(p99) << " us, batch re-run " << us(rerun) << " us";
    }
  }
}

TEST(SessionTest, LaterDdlChangesCachedWildcardExpansion) {
  const char* query = "SELECT * FROM t WHERE a = 1";
  std::vector<std::string> statements = {query};
  AnalysisSession session;
  session.AddQuery(query);
  // No schema yet: the wildcard fix is textual.
  Report report = session.Snapshot();
  const Fix* fix = FixOf(report, AntiPattern::kColumnWildcard, query);
  ASSERT_NE(fix, nullptr);
  EXPECT_EQ(fix->kind, FixKind::kTextual);

  for (const char* ddl : {"CREATE TABLE t (a INT PRIMARY KEY, b INT)",
                          "ALTER TABLE t ADD COLUMN c VARCHAR(8)"}) {
    session.AddQuery(ddl);
    statements.push_back(ddl);
    report = session.Snapshot();
    EXPECT_EQ(SerializeWithFixes(report),
              SerializeWithFixes(ReferencePipeline(statements, SqlCheckOptions{})))
        << ddl;
    fix = FixOf(report, AntiPattern::kColumnWildcard, query);
    ASSERT_NE(fix, nullptr);
    ASSERT_EQ(fix->statements.size(), 1u) << ddl;
    EXPECT_NE(fix->statements[0].find(" b"), std::string::npos) << fix->statements[0];
  }
  // The ALTER's new column reached the cached expansion.
  EXPECT_NE(fix->statements[0].find(" c"), std::string::npos) << fix->statements[0];
}

TEST(SessionTest, AttachDatabaseAfterSnapshotInvalidatesCachedFixes) {
  const std::vector<std::string> statements = {
      "SELECT * FROM users WHERE id = 1",
      "select * from users where id = 1",
      "CREATE TABLE orders (id INT PRIMARY KEY, user_id INT)",
  };
  Database db;
  Executor exec(&db);
  exec.ExecuteScript(
      "CREATE TABLE users (id INTEGER PRIMARY KEY, name VARCHAR(40), status TEXT);");
  for (int i = 0; i < 8; ++i) {
    const std::string n = std::to_string(i);
    exec.ExecuteSql("INSERT INTO users VALUES (" + n + ", 'user" + n + "', 'active')");
  }

  AnalysisSession session;
  for (const auto& stmt : statements) session.AddQuery(stmt);
  const Report detached = session.Snapshot();
  const Fix* before = FixOf(detached, AntiPattern::kColumnWildcard, statements[0]);
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->kind, FixKind::kTextual);  // users is not in the catalog yet

  session.AttachDatabase(&db);  // the database schema now names users' columns
  Report attached = session.Snapshot();
  EXPECT_EQ(SerializeWithFixes(attached),
            SerializeWithFixes(ReferencePipeline(statements, SqlCheckOptions{}, &db)));
  const Fix* after = FixOf(attached, AntiPattern::kColumnWildcard, statements[0]);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->kind, FixKind::kRewrite);
}

/// A custom rule declared as `declared` that flags every SELECT over a
/// cataloged table as Column Wildcard Usage.
class SelectOnKnownTableRule final : public Rule {
 public:
  explicit SelectOnKnownTableRule(AntiPattern declared) : declared_(declared) {}
  AntiPattern type() const override { return declared_; }
  void CheckQuery(const QueryFacts& facts, const Context& context,
                  const DetectorConfig& config,
                  std::vector<Detection>* out) const override {
    (void)config;
    if (facts.kind != sql::StatementKind::kSelect || facts.tables.empty()) return;
    if (context.catalog().FindTable(facts.tables[0]) == nullptr) return;
    Detection d;
    d.type = AntiPattern::kColumnWildcard;
    d.table = std::string(facts.tables[0]);
    d.query = facts.raw_sql;
    d.stmt = facts.stmt;
    d.message = "custom: select on a known table";
    out->push_back(d);
  }

 private:
  AntiPattern declared_;
};

TEST(SessionTest, RegisterRuleAfterSnapshotInvalidatesCachedFixes) {
  // With the built-in wildcard rule disabled, no rule has the wildcard
  // fix's type, so its rewrite verifies at the parse tier only. Registering
  // one later makes it the Tier-2 rule: every wildcard fix must be verified
  // again, not replayed.
  const std::vector<std::string> statements = {
      "CREATE TABLE t (a INT PRIMARY KEY, b INT)",
      "SELECT * FROM t",
      "select  *  from t",
  };
  SqlCheckOptions options;
  options.disabled_rules = {"Column Wildcard Usage"};
  AnalysisSession session(options);
  session.RegisterRule(std::make_unique<SelectOnKnownTableRule>(AntiPattern::kTooManyJoins));
  for (const auto& stmt : statements) session.AddQuery(stmt);
  const Report first = session.Snapshot();
  const Fix* before = FixOf(first, AntiPattern::kColumnWildcard, statements[1]);
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->verify_tier, VerifyTier::kParse);
  const size_t misses = session.fix_cache_misses();

  session.RegisterRule(
      std::make_unique<SelectOnKnownTableRule>(AntiPattern::kColumnWildcard));
  Report report = session.Snapshot();
  EXPECT_GT(session.fix_cache_misses(), misses);
  const Fix* after = FixOf(report, AntiPattern::kColumnWildcard, statements[1]);
  ASSERT_NE(after, nullptr);
  EXPECT_NE(after->verify_tier, VerifyTier::kParse);

  SqlCheckOptions reference_options = options;
  reference_options.dedup_queries = false;
  AnalysisSession reference(reference_options);
  reference.RegisterRule(
      std::make_unique<SelectOnKnownTableRule>(AntiPattern::kTooManyJoins));
  reference.RegisterRule(
      std::make_unique<SelectOnKnownTableRule>(AntiPattern::kColumnWildcard));
  for (const auto& stmt : statements) reference.AddQuery(stmt);
  EXPECT_EQ(SerializeWithFixes(report), SerializeWithFixes(reference.Snapshot()));
}

TEST(SessionTest, WhitespaceVariantsKeepTheirOwnImpactedQueries) {
  // One fingerprint group, two raw spellings. The multi-valued-attribute fix
  // lists every other query on the table, so each variant's list names the
  // other variant but not itself.
  const std::string a = "SELECT name FROM users WHERE tag_ids LIKE '%,7,%'";
  const std::string b = "select  name  from users where tag_ids like '%,7,%'";
  const std::vector<std::string> statements = {
      "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(64), tag_ids TEXT)",
      a, b, a, b, "SELECT id FROM users WHERE name = 'x'"};
  AnalysisSession session;
  for (const auto& stmt : statements) session.AddQuery(stmt);
  ASSERT_EQ(session.unique_count(), 3u);
  for (int round = 0; round < 2; ++round) {
    Report report = session.Snapshot();
    EXPECT_EQ(SerializeWithFixes(report),
              SerializeWithFixes(ReferencePipeline(statements, SqlCheckOptions{})));
    for (const std::string* self : {&a, &b}) {
      const std::string& other = self == &a ? b : a;
      const Fix* fix = FixOf(report, AntiPattern::kMultiValuedAttribute, *self);
      ASSERT_NE(fix, nullptr) << *self;
      std::vector<std::string> impacted = fix->impacted_queries;
      EXPECT_EQ(std::count(impacted.begin(), impacted.end(), *self), 0) << *self;
      EXPECT_EQ(std::count(impacted.begin(), impacted.end(), other), 2) << *self;
    }
  }
}

TEST(SessionTest, CommentTaggedVariantsSnapshotInLinearTime) {
  // sqlcommenter-style tags make every spelling of one query distinct, and
  // its group caches a wildcard fix per spelling (the expansion reads the
  // catalog), so a snapshot probes the fix cache once per spelling. A probe
  // must not scan the group's entries: a snapshot at 8k variants may cost
  // at most 8x one at 2k (a linear probe read ~20x). The gate is a same-run
  // ratio of the best of four alternating snapshots of each session (the
  // first computes every fix, the rest replay them), so a slow spell on a
  // shared host cannot fail it alone. Snapshots are timed in thread CPU
  // time, so time spent preempted under a parallel ctest does not count.
  using Duration = std::chrono::nanoseconds;
  auto cpu_now = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return Duration(ts.tv_sec * 1'000'000'000LL + ts.tv_nsec);
  };
  auto tagged = [](size_t n) {
    std::vector<std::string> statements = {
        "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(40), email VARCHAR(80))"};
    for (size_t i = 0; i < n; ++i) {
      statements.push_back("SELECT * FROM users WHERE id = 1 /* request_id=" +
                           std::to_string(i) + " */");
    }
    return statements;
  };
  auto snapshot = [&cpu_now](AnalysisSession& session, Duration* best) {
    const Duration start = cpu_now();
    Report report = session.Snapshot();
    *best = std::min(*best, cpu_now() - start);
    return report;
  };
  const std::vector<std::string> small = tagged(2000);
  AnalysisSession small_session;
  for (const auto& stmt : small) small_session.AddQuery(stmt);
  AnalysisSession large_session;
  for (const auto& stmt : tagged(8000)) large_session.AddQuery(stmt);
  ASSERT_EQ(large_session.unique_count(), 2u);
  Duration small_best = Duration::max();
  Duration large_best = Duration::max();
  EXPECT_EQ(SerializeWithFixes(snapshot(small_session, &small_best)),
            SerializeWithFixes(ReferencePipeline(small, SqlCheckOptions{})));
  snapshot(large_session, &large_best);
  for (int round = 1; round < 4; ++round) {
    snapshot(small_session, &small_best);
    snapshot(large_session, &large_best);
  }
  auto ms = [](Duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  EXPECT_LE(large_best, 8 * small_best)
      << "snapshot at 8k " << ms(large_best) << " ms, at 2k " << ms(small_best) << " ms";
}

}  // namespace
}  // namespace sqlcheck
