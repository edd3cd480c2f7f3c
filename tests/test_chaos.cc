// Chaos-engineering coverage of the failpoint framework and the hardened
// request path, bottom-up: FailpointRegistry semantics (modes, parsing,
// scope gating), the QuarantineSet primitive, session recovery under
// injected faults (transient retry, persistent quarantine, deadline and
// statement-budget refusal, whole-script quarantine), handler-level
// statement_error streaming, and the live epoll daemon under socket-fault
// profiles, queue overload, and request deadlines. Every test disarms the
// registry on teardown so ambient suites stay unaffected.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/emit.h"
#include "core/session.h"
#include "server/client.h"
#include "server/handler.h"
#include "server/server.h"
#include "server/wire.h"
#include "sql/parser.h"

namespace sqlcheck {
namespace {

/// Every chaos test runs with a clean registry before and after, so an
/// assertion failure mid-test cannot leak an armed failpoint into the next
/// case (or, under ctest -j, into this binary's other suites).
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::Instance().DisarmAll(); }
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }
};

// --------------------------- failpoint registry ------------------------------

using FailpointTest = ChaosTest;

TEST_F(FailpointTest, DisarmedSitesNeverFire) {
  EXPECT_FALSE(AnyFailpointArmed());
  FailpointScope scope;
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(SQLCHECK_FAILPOINT("chaos_test_point"));
    EXPECT_FALSE(SQLCHECK_SCOPED_FAILPOINT("chaos_test_point"));
  }
}

TEST_F(FailpointTest, ProbabilityOneFiresEveryTime) {
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("chaos_test_point", "1.0").ok());
  EXPECT_TRUE(AnyFailpointArmed());
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(SQLCHECK_FAILPOINT("chaos_test_point"));
  }
  FailpointInfo info = FailpointRegistry::Instance().Info("chaos_test_point");
  EXPECT_EQ(info.evaluations, 20u);
  EXPECT_EQ(info.fires, 20u);
}

TEST_F(FailpointTest, AfterNFiresExactlyOnceOnTheNthEvaluation) {
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("chaos_test_point", "after-3").ok());
  EXPECT_FALSE(SQLCHECK_FAILPOINT("chaos_test_point"));
  EXPECT_FALSE(SQLCHECK_FAILPOINT("chaos_test_point"));
  EXPECT_TRUE(SQLCHECK_FAILPOINT("chaos_test_point"));
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(SQLCHECK_FAILPOINT("chaos_test_point"));
  }
  EXPECT_EQ(FailpointRegistry::Instance().Info("chaos_test_point").fires, 1u);
}

TEST_F(FailpointTest, OneshotIsAfterOne) {
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("chaos_test_point", "oneshot").ok());
  EXPECT_TRUE(SQLCHECK_FAILPOINT("chaos_test_point"));
  EXPECT_FALSE(SQLCHECK_FAILPOINT("chaos_test_point"));
}

TEST_F(FailpointTest, ScopedSiteRequiresAScope) {
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("chaos_test_point", "1.0").ok());
  // No FailpointScope on this thread: the scoped form is inert even though
  // the point is armed at probability 1 — this is what keeps an armed chaos
  // profile away from code with no recovery story.
  EXPECT_FALSE(SQLCHECK_SCOPED_FAILPOINT("chaos_test_point"));
  {
    FailpointScope scope;
    EXPECT_TRUE(SQLCHECK_SCOPED_FAILPOINT("chaos_test_point"));
    {
      FailpointScope nested;  // re-entrant
      EXPECT_TRUE(SQLCHECK_SCOPED_FAILPOINT("chaos_test_point"));
    }
    EXPECT_TRUE(SQLCHECK_SCOPED_FAILPOINT("chaos_test_point"));
  }
  EXPECT_FALSE(SQLCHECK_SCOPED_FAILPOINT("chaos_test_point"));
}

TEST_F(FailpointTest, ConfigureParsesTheEnvironmentSyntax) {
  FailpointRegistry& reg = FailpointRegistry::Instance();
  ASSERT_TRUE(reg.Configure("chaos_a=0.5, chaos_b=after-7 ,chaos_c=oneshot").ok());
  EXPECT_EQ(reg.Info("chaos_a").mode, "p=" + std::to_string(0.5));
  EXPECT_EQ(reg.Info("chaos_b").mode, "after-7");
  EXPECT_EQ(reg.Info("chaos_c").mode, "after-1");
}

TEST_F(FailpointTest, ConfigureRejectsMalformedSpecs) {
  FailpointRegistry& reg = FailpointRegistry::Instance();
  EXPECT_FALSE(reg.Configure("chaos_a").ok());            // no '='
  EXPECT_FALSE(reg.Configure("chaos_a=").ok());           // empty mode
  EXPECT_FALSE(reg.Configure("chaos_a=2.0").ok());        // prob > 1
  EXPECT_FALSE(reg.Configure("chaos_a=0").ok());          // prob must be > 0
  EXPECT_FALSE(reg.Configure("chaos_a=after-0").ok());    // N >= 1
  EXPECT_FALSE(reg.Configure("chaos_a=after-x").ok());    // not a number
  EXPECT_FALSE(reg.Configure("=oneshot").ok());           // empty name
  // Valid entries before the malformed one still apply.
  EXPECT_FALSE(reg.Configure("chaos_good=oneshot,chaos_bad=nope").ok());
  EXPECT_EQ(reg.Info("chaos_good").mode, "after-1");
}

TEST_F(FailpointTest, DisarmAllZeroesTheArmedGate) {
  FailpointRegistry& reg = FailpointRegistry::Instance();
  ASSERT_TRUE(reg.Configure("chaos_a=1.0,chaos_b=oneshot").ok());
  EXPECT_TRUE(AnyFailpointArmed());
  reg.DisarmAll();
  EXPECT_FALSE(AnyFailpointArmed());
  EXPECT_EQ(reg.Info("chaos_a").mode, "off");
  EXPECT_FALSE(SQLCHECK_FAILPOINT("chaos_a"));
}

TEST_F(FailpointTest, DisarmOnePointLeavesOthersArmed) {
  FailpointRegistry& reg = FailpointRegistry::Instance();
  ASSERT_TRUE(reg.Configure("chaos_a=1.0,chaos_b=1.0").ok());
  reg.Disarm("chaos_a");
  EXPECT_TRUE(AnyFailpointArmed());
  EXPECT_FALSE(SQLCHECK_FAILPOINT("chaos_a"));
  EXPECT_TRUE(SQLCHECK_FAILPOINT("chaos_b"));
}

// ---------------------------- quarantine set ---------------------------------

TEST(QuarantineSetTest, BoundedLruEvictsTheOldest) {
  QuarantineSet q(3);
  q.Insert(1);
  q.Insert(2);
  q.Insert(3);
  EXPECT_TRUE(q.Touch(1));  // refresh: 1 is now most recent
  q.Insert(4);              // evicts 2, the least recently touched
  EXPECT_EQ(q.size(), 3u);
  EXPECT_TRUE(q.Touch(1));
  EXPECT_FALSE(q.Touch(2));
  EXPECT_TRUE(q.Touch(3));
  EXPECT_TRUE(q.Touch(4));
}

TEST(QuarantineSetTest, ReinsertIsIdempotent) {
  QuarantineSet q(2);
  q.Insert(7);
  q.Insert(7);
  q.Insert(7);
  EXPECT_EQ(q.size(), 1u);
}

TEST(QuarantineSetTest, ZeroCapacityNeverStores) {
  QuarantineSet q(0);
  q.Insert(1);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.Touch(1));
}

// --------------------------- session under chaos -----------------------------

using SessionChaosTest = ChaosTest;

TEST_F(SessionChaosTest, ArmedScopedFailpointLeavesBareParsingAlone) {
  // arena_alloc at probability 1 would fail every chunk allocation — but
  // ParseStatement outside a session append holds no FailpointScope, so the
  // parse must succeed untouched.
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("arena_alloc", "1.0").ok());
  sql::StatementPtr stmt = sql::ParseStatement("SELECT a, b FROM t WHERE a = 1;");
  EXPECT_NE(stmt, nullptr);
}

TEST_F(SessionChaosTest, TransientMemoFaultIsAbsorbedByRetry) {
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("memo_insert", "oneshot").ok());
  AnalysisSession session;
  session.AddQuery("SELECT * FROM users;");
  EXPECT_EQ(session.statement_count(), 1u);
  EXPECT_TRUE(session.recent_failures().empty());
  EXPECT_GE(session.faults_recovered(), 1u);
  EXPECT_EQ(session.statements_quarantined(), 0u);
}

TEST_F(SessionChaosTest, TransientArenaFaultIsAbsorbedByRetry) {
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("arena_alloc", "oneshot").ok());
  AnalysisSession session;
  size_t added = session.AddScript("SELECT a FROM t1; SELECT b FROM t2;");
  EXPECT_EQ(added, 2u);
  EXPECT_TRUE(session.recent_failures().empty());
  EXPECT_GE(session.faults_recovered(), 1u);
}

TEST_F(SessionChaosTest, PersistentFaultQuarantinesAndRepeatIsRefusedO1) {
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("arena_alloc", "1.0").ok());
  AnalysisSession session;
  session.AddQuery("SELECT poisoned FROM t;");
  // Every retry failed: nothing ingested, the statement is quarantined and
  // reported as a failure entry.
  EXPECT_EQ(session.statement_count(), 0u);
  ASSERT_EQ(session.recent_failures().size(), 1u);
  EXPECT_EQ(session.recent_failures()[0].code, "internal_error");
  EXPECT_TRUE(session.recent_failures()[0].quarantined);
  EXPECT_EQ(session.statements_quarantined(), 1u);
  EXPECT_EQ(session.quarantine_size(), 1u);

  // Faults clear — but the fingerprint stays quarantined: the repeat (even
  // respelled in keyword case and whitespace — the same exact-canonical
  // form) is refused by the O(1) probe before any parse work.
  FailpointRegistry::Instance().DisarmAll();
  session.AddQuery("select   poisoned\n FROM t;");
  EXPECT_EQ(session.statement_count(), 0u);
  EXPECT_EQ(session.quarantine_refusals(), 1u);
  ASSERT_EQ(session.recent_failures().size(), 1u);
  EXPECT_TRUE(session.recent_failures()[0].quarantined);

  // Different statements are unaffected.
  session.AddQuery("SELECT healthy FROM t;");
  EXPECT_EQ(session.statement_count(), 1u);
  EXPECT_TRUE(session.recent_failures().empty());
}

TEST_F(SessionChaosTest, ReportsAreByteIdenticalOnceTransientFaultsClear) {
  // A profile of one-off faults across three seams: every statement still
  // lands via retry, and the resulting report must be byte-for-byte the
  // clean session's.
  const char* script =
      "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(64));"
      "SELECT * FROM users;"
      "SELECT id, name FROM users WHERE name LIKE '%smith%';"
      "INSERT INTO users VALUES (1, 'a');";
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Configure("arena_alloc=after-2,memo_insert=after-3")
                  .ok());
  AnalysisSession chaotic;
  chaotic.AddScript(script);
  FailpointRegistry::Instance().DisarmAll();

  AnalysisSession clean;
  clean.AddScript(script);

  ASSERT_EQ(chaotic.statement_count(), clean.statement_count());
  EXPECT_TRUE(chaotic.recent_failures().empty());
  Report chaotic_report = chaotic.Snapshot();
  Report clean_report = clean.Snapshot();
  EXPECT_EQ(ToJson(chaotic_report, {}), ToJson(clean_report, {}));
}

TEST_F(SessionChaosTest, ExpiredDeadlineRefusesTheTailNotTheHead) {
  AnalysisSession session;
  session.AddScript("SELECT a FROM t1;");  // pre-deadline history
  session.SetDeadline(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(10));
  size_t added = session.AddScript("SELECT b FROM t2; SELECT c FROM t3;");
  session.ClearDeadline();
  EXPECT_EQ(added, 0u);
  EXPECT_EQ(session.statement_count(), 1u);  // history intact
  ASSERT_EQ(session.recent_failures().size(), 2u);
  for (const StatementFailure& failure : session.recent_failures()) {
    EXPECT_EQ(failure.code, "deadline_exceeded");
    EXPECT_FALSE(failure.quarantined);  // a refusal, not a poison verdict
  }
  EXPECT_EQ(session.quarantine_size(), 0u);

  // The deadline was per-request: cleared, the session ingests normally.
  session.AddScript("SELECT b FROM t2;");
  EXPECT_EQ(session.statement_count(), 2u);
}

TEST_F(SessionChaosTest, StatementBudgetQuarantinesTheOverrunnerButKeepsIt) {
  // A genuinely heavy statement (a ~100k-item IN list) against a 1ms budget:
  // it must land — the tenant asked for it and paid — but its fingerprint is
  // quarantined so repeats are refused before the cost recurs.
  std::string heavy = "SELECT * FROM t WHERE id IN (0";
  for (int i = 1; i < 100000; ++i) {
    heavy += ',';
    heavy += std::to_string(i);
  }
  heavy += ");";

  SqlCheckOptions options;
  options.statement_budget_ms = 1;
  AnalysisSession session(options);
  session.AddScript(heavy);
  EXPECT_EQ(session.statement_count(), 1u);
  ASSERT_EQ(session.recent_failures().size(), 1u);
  EXPECT_EQ(session.recent_failures()[0].code, "deadline_exceeded");
  EXPECT_TRUE(session.recent_failures()[0].quarantined);
  EXPECT_EQ(session.statements_quarantined(), 1u);

  // The repeat is refused in O(1) — no second multi-millisecond parse.
  session.AddScript(heavy);
  EXPECT_EQ(session.statement_count(), 1u);
  EXPECT_EQ(session.quarantine_refusals(), 1u);
}

TEST_F(SessionChaosTest, PersistentFaultsAcrossAScriptQuarantineEveryStatement) {
  // 64 distinct statements in one script, arena faults at p=1: nothing
  // lands, every statement is quarantined, and the failure records cap at
  // kMaxRecordedFailures.
  std::string script;
  for (int i = 0; i < 64; ++i) {
    script += "SELECT c" + std::to_string(i) + " FROM t" + std::to_string(i) + ";\n";
  }
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("arena_alloc", "1.0").ok());
  AnalysisSession session;
  size_t added = session.AddScript(script);
  EXPECT_EQ(added, 0u);
  EXPECT_EQ(session.statement_count(), 0u);
  EXPECT_EQ(session.statements_quarantined(), 64u);
  EXPECT_EQ(session.quarantine_size(), 64u);
  EXPECT_FALSE(session.recent_failures().empty());
  EXPECT_LE(session.recent_failures().size(), AnalysisSession::kMaxRecordedFailures);

  // Faults clear; the same script is refused wholesale by the quarantine
  // probes, while a fresh script ingests — and the session matches a
  // never-faulted session byte-for-byte.
  FailpointRegistry::Instance().DisarmAll();
  EXPECT_EQ(session.AddScript(script), 0u);
  EXPECT_GE(session.quarantine_refusals(), 64u);

  std::string fresh;
  for (int i = 0; i < 64; ++i) {
    fresh += "SELECT f" + std::to_string(i) + " FROM u" + std::to_string(i) + ";\n";
  }
  EXPECT_EQ(session.AddScript(fresh), 64u);

  AnalysisSession clean;
  clean.AddScript(fresh);
  EXPECT_EQ(ToJson(session.Snapshot(), {}), ToJson(clean.Snapshot(), {}));
}

// --------------------------- handler under chaos -----------------------------

using HandlerChaosTest = ChaosTest;

std::vector<std::string> SplitResponse(const std::string& response) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < response.size()) {
    size_t end = response.find('\n', start);
    if (end == std::string::npos) end = response.size();
    lines.push_back(response.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

TEST_F(HandlerChaosTest, PoisonedStatementStreamsAStatementErrorLine) {
  server::SessionHandler handler{SqlCheckOptions{}};
  // memo_insert (unlike arena_alloc, which only fires when a fresh chunk is
  // actually carved) evaluates once per new unique statement — a
  // deterministic poison regardless of arena occupancy.
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("memo_insert", "1.0").ok());
  std::string response =
      handler.HandleLine(R"({"op": "check", "sql": "SELECT doomed FROM t;"})");
  FailpointRegistry::Instance().DisarmAll();

  std::vector<std::string> lines = SplitResponse(response);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"op\": \"statement_error\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"code\": \"internal_error\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"quarantined\": true"), std::string::npos);
  EXPECT_NE(lines[0].find("SELECT doomed FROM t"), std::string::npos);
  // The request itself still succeeds — the failure is statement-scoped.
  EXPECT_NE(lines[1].find("\"op\": \"check\", \"ok\": true"), std::string::npos);
  EXPECT_NE(lines[1].find("\"statements\": 0"), std::string::npos);
  EXPECT_NE(lines[1].find("\"failed_statements\": 1"), std::string::npos);

  // Repeat offender: refused by the quarantine, same statement-scoped shape.
  response = handler.HandleLine(R"({"op": "check", "sql": "SELECT doomed FROM t;"})");
  lines = SplitResponse(response);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"quarantined\": true"), std::string::npos);
  EXPECT_NE(lines[1].find("\"failed_statements\": 1"), std::string::npos);

  // reset is the recovery path: the quarantine restarts from zero and the
  // response matches a handler that never saw a fault, byte for byte.
  handler.HandleLine(R"({"op": "reset"})");
  response = handler.HandleLine(R"({"op": "check", "sql": "SELECT doomed FROM t;"})");
  server::SessionHandler pristine{SqlCheckOptions{}};
  std::string expected =
      pristine.HandleLine(R"({"op": "check", "sql": "SELECT doomed FROM t;"})");
  EXPECT_EQ(response, expected);
}

TEST_F(HandlerChaosTest, ExpiredRequestDeadlineAnswersDeadlineExceeded) {
  server::ServerGauges gauges;
  server::SessionHandler handler{SqlCheckOptions{}, false, &gauges};
  // deadline_ms = 1 on the monotonic clock is in the distant past: every
  // piece of the script is refused at the cooperative check.
  std::string response = handler.HandleLine(
      R"({"op": "check", "sql": "SELECT a FROM t1; SELECT b FROM t2;"})",
      /*deadline_ms=*/1);
  std::vector<std::string> lines = SplitResponse(response);
  ASSERT_GE(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"code\": \"deadline_exceeded\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"op\": \"check\", \"ok\": false"), std::string::npos);
  EXPECT_NE(lines.back().find("\"code\": \"deadline_exceeded\""), std::string::npos);
  EXPECT_EQ(gauges.deadlines_expired.load(), 1u);

  // The deadline was per-request: the next (undeadlined) check works and the
  // session held no partial junk from the refused one.
  response = handler.HandleLine(R"({"op": "check", "sql": "SELECT a FROM t1;"})");
  EXPECT_NE(response.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(response.find("\"total_statements\": 1"), std::string::npos);
}

TEST_F(HandlerChaosTest, StatsReportRobustnessCounters) {
  server::SessionHandler handler{SqlCheckOptions{}};
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("memo_insert", "oneshot").ok());
  handler.HandleLine(R"({"op": "check", "sql": "SELECT recovered FROM t;"})");
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("memo_insert", "1.0").ok());
  handler.HandleLine(R"({"op": "check", "sql": "SELECT doomed FROM t;"})");
  FailpointRegistry::Instance().DisarmAll();
  handler.HandleLine(R"({"op": "check", "sql": "SELECT doomed FROM t;"})");

  std::string stats = handler.HandleLine(R"({"op": "stats"})");
  EXPECT_NE(stats.find("\"statements_quarantined\": 1"), std::string::npos);
  EXPECT_NE(stats.find("\"quarantine_size\": 1"), std::string::npos);
  EXPECT_NE(stats.find("\"quarantine_refusals\": 1"), std::string::npos);
  EXPECT_NE(stats.find("\"faults_recovered\": 1"), std::string::npos);
}

TEST_F(HandlerChaosTest, StatementErrorSqlEchoIsTruncatedUtf8Safely) {
  // 200 two-byte codepoints: the 160-byte cap falls mid-codepoint and must
  // back off to a boundary rather than emit a torn sequence.
  std::string sql = "SELECT '";
  for (int i = 0; i < 200; ++i) sql += "\xC3\xA9";
  sql += "' FROM t;";
  std::string line =
      server::StatementErrorLine("internal_error", "boom", sql, true);
  EXPECT_NE(line.find("..."), std::string::npos);
  EXPECT_TRUE(server::ValidUtf8(line));
}

// ----------------------- live server under chaos -----------------------------

class ServerChaosTest : public ChaosTest {
 protected:
  void TearDown() override {
    if (server_) server_->Stop();
    ChaosTest::TearDown();
  }

  Status StartServer(server::ServerOptions options = {}) {
    options.host = "127.0.0.1";
    options.port = 0;
    if (options.workers == 0) options.workers = 2;
    server_ = std::make_unique<server::SqlCheckServer>(options);
    return server_->Start();
  }

  server::LineClient Connect() {
    server::LineClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    return client;
  }

  /// Reads one response group: zero or more finding/statement_error stream
  /// lines followed by the terminal line (anything else), which is returned
  /// last.
  std::vector<std::string> ReadResponse(server::LineClient* client) {
    std::vector<std::string> lines;
    while (true) {
      std::string line;
      if (!client->ReadLine(&line).ok()) break;
      bool stream_line =
          line.rfind("{\"op\": \"finding\", ", 0) == 0 ||
          line.rfind("{\"op\": \"statement_error\", ", 0) == 0;
      lines.push_back(std::move(line));
      if (!stream_line) break;
    }
    return lines;
  }

  std::unique_ptr<server::SqlCheckServer> server_;
};

TEST_F(ServerChaosTest, SocketFaultProfileIsTransparentToClients) {
  ASSERT_TRUE(StartServer().ok());

  // Collect the clean responses first, then replay the same request stream
  // under an aggressive read/write fault profile: dropped read rounds and
  // short writes must only delay bytes, never corrupt or lose them.
  std::vector<std::string> requests;
  requests.push_back(R"({"op": "check", "sql": "SELECT * FROM users;"})");
  requests.push_back(R"({"op": "check", "sql": "SELECT a FROM t WHERE b LIKE '%x%';"})");
  requests.push_back(R"({"op": "snapshot"})");
  requests.push_back(R"({"op": "ping"})");

  auto run_stream = [&]() {
    server::LineClient client = Connect();
    std::string hello;
    EXPECT_TRUE(client.ReadLine(&hello).ok());
    std::vector<std::string> all;
    for (const std::string& request : requests) {
      EXPECT_TRUE(client.SendLine(request).ok());
      for (std::string& line : ReadResponse(&client)) all.push_back(std::move(line));
    }
    client.Close();
    return all;
  };

  std::vector<std::string> clean = run_stream();
  ASSERT_FALSE(clean.empty());

  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Configure("socket_read=0.5,socket_write=0.5")
                  .ok());
  std::vector<std::string> chaotic = run_stream();
  FailpointRegistry::Instance().DisarmAll();

  EXPECT_EQ(chaotic, clean);
}

TEST_F(ServerChaosTest, OverloadShedsWithRetryAfterAndRecovers) {
  server::ServerOptions options;
  options.workers = 1;
  options.max_queue_depth = 1;
  ASSERT_TRUE(StartServer(options).ok());
  server::LineClient first = Connect();
  server::LineClient second = Connect();
  std::string hello;
  ASSERT_TRUE(first.ReadLine(&hello).ok());
  ASSERT_TRUE(second.ReadLine(&hello).ok());

  // One slow request to pin the single worker, then a burst of pings, on
  // the first connection; once that burst has reached the admission gate, a
  // second connection pipelines pings of its own into the same storm. The
  // gate must refuse most of both bursts with a retryable `overloaded` error
  // carrying retry_after_ms.
  std::string big;
  for (int i = 0; i < 3000; ++i) {
    big += "SELECT col" + std::to_string(i) + " FROM tbl" + std::to_string(i) + "; ";
  }
  const int kPings = 40;
  std::string pings;
  for (int i = 0; i < kPings; ++i) pings += "{\"op\": \"ping\"}\n";

  // Shed refusals are written at admission time — they legitimately arrive
  // before the responses of requests admitted earlier (the `overloaded` line
  // never waits on a worker). Classify every terminal line instead of
  // assuming request order.
  struct Tally {
    int checks = 0, pongs = 0, shed = 0;
    int terminals() const { return checks + pongs + shed; }
  };
  auto read_terminal = [](server::LineClient* client, Tally* tally) {
    std::string line;
    do {
      ASSERT_TRUE(client->ReadLine(&line).ok());
    } while (line.rfind("{\"op\": \"finding\", ", 0) == 0 ||
             line.rfind("{\"op\": \"statement_error\", ", 0) == 0);
    if (line.find("\"code\": \"overloaded\"") != std::string::npos) {
      ++tally->shed;
      EXPECT_NE(line.find("\"retry_after_ms\": "), std::string::npos);
    } else if (line.find("\"op\": \"ping\", \"ok\": true") != std::string::npos) {
      ++tally->pongs;
    } else if (line.find("\"op\": \"check\"") != std::string::npos) {
      ++tally->checks;
    } else {
      FAIL() << "unexpected response line: " << line;
    }
  };
  Tally a, b;
  const std::string check = "{\"op\": \"check\", \"sql\": \"" + big + "\"}\n";
  ASSERT_TRUE(first.SendRaw(check + pings).ok());
  read_terminal(&first, &a);  // the check went to the idle worker
  ASSERT_TRUE(second.SendRaw(pings).ok());
  while (!HasFatalFailure() && a.terminals() < kPings + 1) read_terminal(&first, &a);
  while (!HasFatalFailure() && b.terminals() < kPings) read_terminal(&second, &b);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_EQ(a.checks, 1);
  EXPECT_EQ(b.checks, 0);
  const int shed = a.shed + b.shed;
  EXPECT_GT(shed, 0);
  EXPECT_GE(server_->gauges().requests_shed.load(), static_cast<uint64_t>(shed));

  // Nothing wedged: once the bursts drain, both connections and a fresh one
  // serve normally.
  server::LineClient fresh = Connect();
  ASSERT_TRUE(fresh.ReadLine(&hello).ok());
  EXPECT_NE(hello.find("\"op\": \"hello\""), std::string::npos);
  for (server::LineClient* client : {&first, &second, &fresh}) {
    ASSERT_TRUE(client->SendLine(R"({"op": "ping"})").ok());
    std::string pong;
    ASSERT_TRUE(client->ReadLine(&pong).ok());
    EXPECT_EQ(pong, "{\"op\": \"ping\", \"ok\": true}");
  }
}

TEST_F(ServerChaosTest, QueuedRequestsPastTheDeadlineAreExpired) {
  server::ServerOptions options;
  options.workers = 1;
  options.request_deadline_ms = 30;
  ASSERT_TRUE(StartServer(options).ok());
  server::LineClient client = Connect();
  std::string hello;
  ASSERT_TRUE(client.ReadLine(&hello).ok());

  // The big check occupies the lone worker well past 30ms, so the pings
  // queued behind it expire on the event thread without ever running; the
  // big check itself stops cooperatively at the cutoff. 25k statements
  // (~0.8 MB, under the 1 MiB line cap) keep it busy for several times the
  // deadline even on a fast host; 5k could finish inside 30ms.
  std::string big;
  for (int i = 0; i < 25000; ++i) {
    big += "SELECT col" + std::to_string(i) + " FROM tbl" + std::to_string(i) + "; ";
  }
  std::string burst = "{\"op\": \"check\", \"sql\": \"" + big + "\"}\n";
  const int kPings = 5;
  for (int i = 0; i < kPings; ++i) burst += "{\"op\": \"ping\"}\n";
  ASSERT_TRUE(client.SendRaw(burst).ok());

  // Queued-request expiries are written by the event thread the instant the
  // deadline passes — while the worker is still streaming the big check's lines — so
  // responses legitimately interleave across requests. Classify every line
  // instead of assuming order: one check terminal plus exactly kPings
  // pong-or-expired lines must arrive.
  int deadline_hits = 0, served_pings = 0, expired_pings = 0, check_terminals = 0;
  while (check_terminals + served_pings + expired_pings < kPings + 1) {
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line).ok());
    if (line.rfind("{\"op\": \"finding\", ", 0) == 0 ||
        line.rfind("{\"op\": \"statement_error\", ", 0) == 0) {
      continue;  // the big check's stream lines
    }
    if (line.find("\"op\": \"check\"") != std::string::npos) {
      ++check_terminals;
      if (line.find("\"code\": \"deadline_exceeded\"") != std::string::npos) {
        ++deadline_hits;  // the check stopped cooperatively at the cutoff
      }
    } else if (line.find("\"op\": \"ping\", \"ok\": true") != std::string::npos) {
      ++served_pings;
    } else if (line.find("\"code\": \"deadline_exceeded\"") != std::string::npos) {
      ++expired_pings;
      ++deadline_hits;
    } else {
      FAIL() << "unexpected response line: " << line;
    }
  }
  EXPECT_EQ(check_terminals, 1);
  EXPECT_EQ(served_pings + expired_pings, kPings);
  EXPECT_GT(deadline_hits, 0);
  EXPECT_GE(server_->gauges().deadlines_expired.load(),
            static_cast<uint64_t>(expired_pings));

  // Recovery: an unhurried request on the same connection completes.
  ASSERT_TRUE(client.SendLine(R"({"op": "ping"})").ok());
  std::string pong;
  ASSERT_TRUE(client.ReadLine(&pong).ok());
  EXPECT_EQ(pong, "{\"op\": \"ping\", \"ok\": true}");
}

TEST_F(ServerChaosTest, AcceptFaultRejectsTheConnectionNotTheServer) {
  ASSERT_TRUE(StartServer().ok());
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("socket_accept", "oneshot").ok());

  // The first connection lands on the armed accept and is dropped at the
  // socket; the client sees EOF (connect succeeds — the kernel completed the
  // handshake — but no hello ever arrives).
  server::LineClient victim;
  ASSERT_TRUE(victim.Connect("127.0.0.1", server_->port()).ok());
  std::string line;
  EXPECT_FALSE(victim.ReadLine(&line).ok());

  // The daemon itself is unharmed: the next connection is served.
  server::LineClient survivor = Connect();
  ASSERT_TRUE(survivor.ReadLine(&line).ok());
  EXPECT_NE(line.find("\"op\": \"hello\""), std::string::npos);
  EXPECT_GE(server_->gauges().connections_rejected.load(), 1u);
}

}  // namespace
}  // namespace sqlcheck
