// The server stack, bottom-up: the wire parser (framing, escapes, hostile
// input), the transport-free SessionHandler (every op, quota refusal and
// recovery, byte-identity of streamed findings against the batch emitters),
// and the live epoll daemon over loopback (greeting, pipelining, split
// reads, oversize resync, capacity rejection, idle eviction, half-close,
// end-to-end byte-identity on examples/sample_workload.sql, and many
// concurrent sessions each matching its offline bytes within its arena cap).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/emit.h"
#include "core/session.h"
#include "core/sqlcheck.h"
#include "server/client.h"
#include "server/handler.h"
#include "server/server.h"
#include "server/wire.h"

namespace sqlcheck {
namespace server {
namespace {

// ----------------------------- wire parsing ---------------------------------

TEST(WireParse, MinimalRequest) {
  Request r = ParseRequest(R"({"op": "ping"})");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.op, "ping");
  EXPECT_TRUE(r.sql.empty());
}

TEST(WireParse, AllKnownFields) {
  Request r = ParseRequest(R"({"op":"snapshot","sql":"SELECT 1;","format":"json"})");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.op, "snapshot");
  EXPECT_EQ(r.sql, "SELECT 1;");
  EXPECT_EQ(r.format, "json");
}

TEST(WireParse, EscapesDecode) {
  Request r = ParseRequest(R"({"op":"check","sql":"SELECT \"a\\b\"\n\tFROM t;"})");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.sql, "SELECT \"a\\b\"\n\tFROM t;");
}

TEST(WireParse, UnicodeEscapes) {
  // BMP escape plus a surrogate pair (U+1F600).
  Request r = ParseRequest(R"({"op":"check","sql":"é 😀"})");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.sql, "\xC3\xA9 \xF0\x9F\x98\x80");
}

TEST(WireParse, UnpairedSurrogateRejected) {
  EXPECT_FALSE(ParseRequest(R"({"op":"check","sql":"\ud83d"})").ok);
  EXPECT_FALSE(ParseRequest(R"({"op":"check","sql":"\ude00"})").ok);
}

TEST(WireParse, UnknownMembersIgnored) {
  Request r = ParseRequest(
      R"({"op":"ping","extra":{"nested":[1,2,{"k":"v"}]},"n":42,"b":true,"z":null})");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.op, "ping");
}

TEST(WireParse, MalformedRejected) {
  EXPECT_FALSE(ParseRequest("").ok);
  EXPECT_FALSE(ParseRequest("not json").ok);
  EXPECT_FALSE(ParseRequest(R"(["op"])").ok);          // not an object
  EXPECT_FALSE(ParseRequest(R"({"op": "ping"} junk)").ok);  // trailing bytes
  EXPECT_FALSE(ParseRequest(R"({"op": })").ok);
  EXPECT_FALSE(ParseRequest(R"({"op": "ping")").ok);   // unterminated object
  EXPECT_FALSE(ParseRequest(R"({"sql": "SELECT 1;"})").ok);  // missing op
  EXPECT_FALSE(ParseRequest(R"({"op": 7})").ok);       // op must be a string
  EXPECT_FALSE(ParseRequest(R"({"sql": [1]})").ok);    // sql must be a string
  Request r = ParseRequest("not json");
  EXPECT_EQ(r.error_code, ErrorCode::kBadRequest);
}

TEST(WireParse, InvalidUtf8Rejected) {
  std::string line = "{\"op\": \"ping\", \"x\": \"\xC3\x28\"}";  // bad continuation
  EXPECT_FALSE(ParseRequest(line).ok);
  std::string overlong = "{\"op\": \"ping\", \"x\": \"\xC0\xAF\"}";  // overlong '/'
  EXPECT_FALSE(ParseRequest(overlong).ok);
  std::string raw_ctrl = "{\"op\": \"ping\", \"x\": \"a\x01b\"}";
  EXPECT_FALSE(ParseRequest(raw_ctrl).ok);
}

TEST(WireParse, ValidUtf8Accepted) {
  EXPECT_TRUE(ValidUtf8("plain ascii"));
  EXPECT_TRUE(ValidUtf8("caf\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x98\x80"));
  EXPECT_FALSE(ValidUtf8("\xED\xA0\x80"));  // encoded surrogate
  EXPECT_FALSE(ValidUtf8("\xF4\x90\x80\x80"));  // > U+10FFFF
  EXPECT_FALSE(ValidUtf8("\xFF"));
}

TEST(WireParse, DeepNestingBounded) {
  std::string deep = R"({"op":"ping","x":)";
  for (int i = 0; i < 64; ++i) deep += "[";
  for (int i = 0; i < 64; ++i) deep += "]";
  deep += "}";
  EXPECT_FALSE(ParseRequest(deep).ok);  // depth bound, not a stack overflow
}

// --------------------------- handler semantics ------------------------------

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) break;
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

TEST(Handler, PingAndQuit) {
  SessionHandler handler{SqlCheckOptions{}};
  EXPECT_EQ(handler.HandleLine(R"({"op": "ping"})"), "{\"op\": \"ping\", \"ok\": true}\n");
  EXPECT_FALSE(handler.quit());
  EXPECT_EQ(handler.HandleLine(R"({"op": "quit"})"), "{\"op\": \"quit\", \"ok\": true}\n");
  EXPECT_TRUE(handler.quit());
}

TEST(Handler, CheckStreamsFindingsThenTerminal) {
  SessionHandler handler{SqlCheckOptions{}};
  std::string response =
      handler.HandleLine(R"({"op": "check", "sql": "SELECT * FROM users;"})");
  std::vector<std::string> lines = SplitLines(response);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"op\": \"finding\""), std::string::npos);
  EXPECT_NE(lines[0].find("Column Wildcard Usage"), std::string::npos);
  EXPECT_EQ(lines[1],
            "{\"op\": \"check\", \"ok\": true, \"statements\": 1, "
            "\"total_statements\": 1, \"findings\": 1}");
}

TEST(Handler, CheckRequiresSql) {
  SessionHandler handler{SqlCheckOptions{}};
  std::string response = handler.HandleLine(R"({"op": "check"})");
  EXPECT_NE(response.find(ErrorCode::kBadRequest), std::string::npos);
}

TEST(Handler, UnknownOpRejected) {
  SessionHandler handler{SqlCheckOptions{}};
  std::string response = handler.HandleLine(R"({"op": "explode"})");
  EXPECT_NE(response.find(ErrorCode::kBadRequest), std::string::npos);
  EXPECT_NE(response.find("explode"), std::string::npos);
}

// The streamed finding objects must be the batch emitters' bytes exactly:
// feed the same statements to a handler and to an offline session, and
// compare each finding line against FindingToJsonLine of the batch report.
TEST(Handler, FindingBytesMatchBatch) {
  const char* statements[] = {
      "CREATE TABLE t (id INT, tag_ids TEXT);",
      "SELECT * FROM t WHERE tag_ids LIKE '%,7,%';",
      "SELECT id FROM t ORDER BY RAND();",
  };
  SessionHandler handler{SqlCheckOptions{}};
  std::string streamed;
  for (const char* sql : statements) {
    streamed += handler.HandleLine(std::string(R"({"op": "check", "sql": ")") +
                                   JsonEscape(sql) + "\"}");
  }
  streamed += handler.HandleLine(R"({"op": "snapshot"})");

  AnalysisSession batch{SqlCheckOptions{}};
  for (const char* sql : statements) batch.Check(sql);
  Report report = batch.Snapshot();
  ASSERT_FALSE(report.findings.empty());

  std::vector<std::string> finding_lines;
  for (const std::string& line : SplitLines(streamed)) {
    if (line.rfind("{\"op\": \"finding\", ", 0) == 0) finding_lines.push_back(line);
  }
  // The snapshot tail re-streams the full ranked report; compare that tail.
  ASSERT_GE(finding_lines.size(), report.findings.size());
  size_t tail = finding_lines.size() - report.findings.size();
  for (size_t i = 0; i < report.findings.size(); ++i) {
    std::string expected = "{\"op\": \"finding\", \"finding\": " +
                           FindingToJsonLine(report.findings[i], i + 1) + "}";
    EXPECT_EQ(finding_lines[tail + i], expected) << "finding " << i;
  }
}

TEST(Handler, SnapshotJsonDocumentMatchesBatchEmitter) {
  SessionHandler handler{SqlCheckOptions{}};
  handler.HandleLine(R"({"op": "check", "sql": "SELECT * FROM users;"})");
  std::string response = handler.HandleLine(R"({"op": "snapshot", "format": "json"})");

  AnalysisSession batch{SqlCheckOptions{}};
  batch.Check("SELECT * FROM users;");
  std::string document = ToJson(batch.Snapshot(), EmitOptions{});
  std::string needle = "\"document\": \"" + JsonEscape(document) + "\"";
  EXPECT_NE(response.find(needle), std::string::npos)
      << "snapshot document must embed the batch ToJson bytes";
}

TEST(Handler, SnapshotUnknownFormatRejected) {
  SessionHandler handler{SqlCheckOptions{}};
  std::string response = handler.HandleLine(R"({"op": "snapshot", "format": "xml"})");
  EXPECT_NE(response.find(ErrorCode::kBadRequest), std::string::npos);
}

TEST(Handler, StatementQuotaRefusesAndResetRecovers) {
  SqlCheckOptions options;
  options.limits.max_statements = 2;
  SessionHandler handler{options};
  handler.HandleLine(R"({"op": "check", "sql": "SELECT 1;"})");
  handler.HandleLine(R"({"op": "check", "sql": "SELECT 2;"})");
  std::string refused = handler.HandleLine(R"({"op": "check", "sql": "SELECT 3;"})");
  EXPECT_NE(refused.find(ErrorCode::kQuotaExceeded), std::string::npos);
  EXPECT_EQ(handler.session().statement_count(), 2u);

  // The ingested history stays queryable after refusal...
  std::string snapshot = handler.HandleLine(R"({"op": "snapshot"})");
  EXPECT_NE(snapshot.find("\"ok\": true"), std::string::npos);

  // ...and reset is the recovery path: fresh session, fresh quota.
  EXPECT_EQ(handler.HandleLine(R"({"op": "reset"})"),
            "{\"op\": \"reset\", \"ok\": true}\n");
  std::string after = handler.HandleLine(R"({"op": "check", "sql": "SELECT 4;"})");
  EXPECT_NE(after.find("\"op\": \"check\", \"ok\": true"), std::string::npos);
  EXPECT_EQ(handler.session().statement_count(), 1u);
}

TEST(Handler, ByteQuotaRefusesOversizedRequest) {
  SqlCheckOptions options;
  options.limits.max_ingest_bytes = 64;
  SessionHandler handler{options};
  std::string ok = handler.HandleLine(R"({"op": "check", "sql": "SELECT 1;"})");
  EXPECT_NE(ok.find("\"ok\": true"), std::string::npos);
  std::string big(100, 'x');
  std::string refused = handler.HandleLine(
      R"({"op": "check", "sql": "SELECT ')" + big + R"(' FROM t;"})");
  EXPECT_NE(refused.find(ErrorCode::kQuotaExceeded), std::string::npos);
}

TEST(Handler, ArenaCapRefuses) {
  SqlCheckOptions options;
  options.limits.arena_cap_bytes = 16 * 1024;  // one arena chunk
  SessionHandler handler{options};
  // Keep ingesting distinct statements until the arena cap trips; the cap
  // must refuse with quota_exceeded rather than grow without bound.
  bool refused = false;
  for (int i = 0; i < 4000 && !refused; ++i) {
    std::string sql = "SELECT col_" + std::to_string(i) + " FROM table_" +
                      std::to_string(i) + " WHERE a = " + std::to_string(i) + ";";
    std::string response = handler.HandleLine(
        R"({"op": "check", "sql": ")" + JsonEscape(sql) + "\"}");
    refused = response.find(ErrorCode::kQuotaExceeded) != std::string::npos;
  }
  EXPECT_TRUE(refused);
  SessionUsage usage = handler.session().Usage();
  // The cap is enforced pre-append, so overshoot is bounded by one chunk.
  EXPECT_LE(usage.arena_reserved_bytes, options.limits.arena_cap_bytes + (64u << 10));
}

TEST(Handler, StatsReportsUsageAndLimits) {
  SqlCheckOptions options;
  options.limits.max_statements = 100;
  SessionHandler handler{options};
  handler.HandleLine(R"({"op": "check", "sql": "SELECT * FROM t;"})");
  std::string stats = handler.HandleLine(R"({"op": "stats"})");
  EXPECT_NE(stats.find("\"statements\": 1"), std::string::npos);
  EXPECT_NE(stats.find("\"ingested_bytes\": 16"), std::string::npos);
  EXPECT_NE(stats.find("\"raw_repeats\": 0, \"fix_cache_hits\""), std::string::npos);
  // The check refreshed the one group's rule-cache row and computed its fix.
  EXPECT_NE(stats.find("\"fix_cache_misses\": 1, \"rule_cache_hits\": 0, "
                       "\"rule_cache_misses\": 1,"),
            std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"max_statements\": 100"), std::string::npos);
  EXPECT_NE(stats.find("\"quota_ok\": true"), std::string::npos);
  EXPECT_NE(stats.find("\"arena_reserved_bytes\""), std::string::npos);
  EXPECT_NE(stats.find("\"interner_names\""), std::string::npos);

  // Two byte-identical repeats (one respaced at the edges) and a case
  // variant, which is parsed: two statements landed without a parse.
  handler.HandleLine(
      R"({"op": "check", "sql": "SELECT * FROM t;  SELECT * FROM t; select * from t;"})");
  stats = handler.HandleLine(R"({"op": "stats"})");
  EXPECT_NE(stats.find("\"statements\": 4"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"raw_repeats\": 2,"), std::string::npos) << stats;
  // The group's row refreshed once for the new generation, then replayed
  // for the two later statements; the case variant's fix is its own entry.
  EXPECT_NE(stats.find("\"fix_cache_misses\": 3, \"rule_cache_hits\": 2, "
                       "\"rule_cache_misses\": 2,"),
            std::string::npos)
      << stats;

  // A snapshot of the unchanged session replays every row and every fix.
  handler.HandleLine(R"({"op": "snapshot"})");
  stats = handler.HandleLine(R"({"op": "stats"})");
  EXPECT_NE(stats.find("\"fix_cache_misses\": 3, \"rule_cache_hits\": 3, "
                       "\"rule_cache_misses\": 2,"),
            std::string::npos)
      << stats;
}

// ----------------------------- loopback daemon ------------------------------

class LoopbackTest : public ::testing::Test {
 protected:
  Status StartServer(ServerOptions options = {}) {
    options.port = 0;  // ephemeral
    if (options.workers == 0) options.workers = 2;
    server_ = std::make_unique<SqlCheckServer>(std::move(options));
    return server_->Start();
  }

  LineClient Connect() {
    LineClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    return client;
  }

  /// Reads lines until the terminal (non-finding) line; returns all of them.
  std::vector<std::string> ReadResponse(LineClient* client) {
    std::vector<std::string> lines;
    std::string line;
    while (client->ReadLine(&line).ok()) {
      lines.push_back(line);
      if (line.rfind("{\"op\": \"finding\", ", 0) != 0) break;
    }
    return lines;
  }

  std::unique_ptr<SqlCheckServer> server_;
};

TEST_F(LoopbackTest, GreetingAndPing) {
  ASSERT_TRUE(StartServer().ok());
  LineClient client = Connect();
  std::string hello;
  ASSERT_TRUE(client.ReadLine(&hello).ok());
  EXPECT_NE(hello.find("\"op\": \"hello\""), std::string::npos);
  EXPECT_NE(hello.find("\"protocol\": 1"), std::string::npos);
  EXPECT_NE(hello.find("\"rules\": 27"), std::string::npos);

  ASSERT_TRUE(client.SendLine(R"({"op": "ping"})").ok());
  std::string pong;
  ASSERT_TRUE(client.ReadLine(&pong).ok());
  EXPECT_EQ(pong, "{\"op\": \"ping\", \"ok\": true}");
}

TEST_F(LoopbackTest, PipelinedRequestsAnswerInOrder) {
  ASSERT_TRUE(StartServer().ok());
  LineClient client = Connect();
  std::string hello;
  ASSERT_TRUE(client.ReadLine(&hello).ok());

  // One write, three requests: responses must come back in request order.
  ASSERT_TRUE(client
                  .SendLine("{\"op\": \"check\", \"sql\": \"SELECT 1;\"}\n"
                            "{\"op\": \"check\", \"sql\": \"SELECT * FROM t;\"}\n"
                            "{\"op\": \"stats\"}")
                  .ok());
  std::vector<std::string> first = ReadResponse(&client);
  ASSERT_FALSE(first.empty());
  EXPECT_NE(first.back().find("\"total_statements\": 1"), std::string::npos);
  std::vector<std::string> second = ReadResponse(&client);
  ASSERT_FALSE(second.empty());
  EXPECT_NE(second.back().find("\"total_statements\": 2"), std::string::npos);
  EXPECT_NE(second.front().find("Column Wildcard Usage"), std::string::npos);
  std::vector<std::string> third = ReadResponse(&client);
  ASSERT_FALSE(third.empty());
  EXPECT_NE(third.back().find("\"op\": \"stats\""), std::string::npos);
}

TEST_F(LoopbackTest, SplitWritesReassemble) {
  ASSERT_TRUE(StartServer().ok());
  LineClient client = Connect();
  std::string hello;
  ASSERT_TRUE(client.ReadLine(&hello).ok());

  // The request arrives in three TCP pushes; the server must buffer until
  // the newline lands, answering nothing in between.
  std::string request = R"({"op": "check", "sql": "SELECT * FROM users;"})";
  ASSERT_TRUE(client.SendRaw(request.substr(0, 13)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(client.SendRaw(request.substr(13, 17)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(client.SendRaw(request.substr(30) + "\n").ok());
  std::vector<std::string> lines = ReadResponse(&client);
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.back().find("\"op\": \"check\", \"ok\": true"), std::string::npos);
}

TEST_F(LoopbackTest, OversizedLineErrorsAndResyncs) {
  ServerOptions options;
  options.max_line_bytes = 256;
  ASSERT_TRUE(StartServer(options).ok());
  LineClient client = Connect();
  std::string hello;
  ASSERT_TRUE(client.ReadLine(&hello).ok());

  std::string huge(1024, 'x');
  ASSERT_TRUE(client.SendLine("{\"op\": \"check\", \"sql\": \"" + huge + "\"}").ok());
  std::string error;
  ASSERT_TRUE(client.ReadLine(&error).ok());
  EXPECT_NE(error.find(ErrorCode::kLineTooLong), std::string::npos);

  // The stream resynchronizes: the next well-formed request still works.
  ASSERT_TRUE(client.SendLine(R"({"op": "ping"})").ok());
  std::string pong;
  ASSERT_TRUE(client.ReadLine(&pong).ok());
  EXPECT_EQ(pong, "{\"op\": \"ping\", \"ok\": true}");
}

TEST_F(LoopbackTest, CapacityRejectsBeyondMaxSessions) {
  ServerOptions options;
  options.max_sessions = 1;
  ASSERT_TRUE(StartServer(options).ok());
  LineClient first = Connect();
  std::string hello;
  ASSERT_TRUE(first.ReadLine(&hello).ok());

  LineClient second = Connect();
  std::string rejection;
  ASSERT_TRUE(second.ReadLine(&rejection).ok());
  EXPECT_NE(rejection.find(ErrorCode::kCapacity), std::string::npos);
  std::string eof_probe;
  EXPECT_FALSE(second.ReadLine(&eof_probe).ok());  // closed after the error

  // The seat frees up when the first tenant leaves.
  ASSERT_TRUE(first.SendLine(R"({"op": "quit"})").ok());
  std::string bye;
  ASSERT_TRUE(first.ReadLine(&bye).ok());
  first.Close();
  for (int attempt = 0; attempt < 50; ++attempt) {
    LineClient retry;
    ASSERT_TRUE(retry.Connect("127.0.0.1", server_->port()).ok());
    std::string line;
    ASSERT_TRUE(retry.ReadLine(&line).ok());
    if (line.find("\"op\": \"hello\"") != std::string::npos) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "capacity seat never freed after quit";
}

TEST_F(LoopbackTest, IdleSessionsAreEvicted) {
  ServerOptions options;
  options.idle_evict_ms = 100;
  ASSERT_TRUE(StartServer(options).ok());
  LineClient client = Connect();
  std::string hello;
  ASSERT_TRUE(client.ReadLine(&hello).ok());

  std::string notice;
  ASSERT_TRUE(client.ReadLine(&notice).ok());  // blocks until the sweep fires
  EXPECT_NE(notice.find(ErrorCode::kEvicted), std::string::npos);
  std::string eof_probe;
  EXPECT_FALSE(client.ReadLine(&eof_probe).ok());  // then the close
  EXPECT_GE(server_->gauges().evictions.load(), 1u);
}

TEST_F(LoopbackTest, HalfCloseFlushesPendingWork) {
  ASSERT_TRUE(StartServer().ok());
  LineClient client = Connect();
  std::string hello;
  ASSERT_TRUE(client.ReadLine(&hello).ok());
  ASSERT_TRUE(client.SendLine(R"({"op": "check", "sql": "SELECT * FROM t;"})").ok());
  client.ShutdownWrite();  // the `nc` pattern: EOF on stdin, keep reading
  std::vector<std::string> lines = ReadResponse(&client);
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.back().find("\"op\": \"check\", \"ok\": true"), std::string::npos);
  std::string eof_probe;
  EXPECT_FALSE(client.ReadLine(&eof_probe).ok());  // server closes after flush
}

TEST_F(LoopbackTest, SessionsAreIsolated) {
  ASSERT_TRUE(StartServer().ok());
  LineClient a = Connect();
  LineClient b = Connect();
  std::string hello;
  ASSERT_TRUE(a.ReadLine(&hello).ok());
  ASSERT_TRUE(b.ReadLine(&hello).ok());

  ASSERT_TRUE(a.SendLine(R"({"op": "check", "sql": "SELECT 1;"})").ok());
  ASSERT_TRUE(a.SendLine(R"({"op": "check", "sql": "SELECT 2;"})").ok());
  ASSERT_TRUE(b.SendLine(R"({"op": "check", "sql": "SELECT 3;"})").ok());
  ReadResponse(&a);
  std::vector<std::string> a2 = ReadResponse(&a);
  std::vector<std::string> b1 = ReadResponse(&b);
  ASSERT_FALSE(a2.empty());
  ASSERT_FALSE(b1.empty());
  // Tenant A has two statements, tenant B one — no cross-tenant bleed.
  EXPECT_NE(a2.back().find("\"total_statements\": 2"), std::string::npos);
  EXPECT_NE(b1.back().find("\"total_statements\": 1"), std::string::npos);
}

// End-to-end identity: stream examples/sample_workload.sql statement by
// statement through the live server; every finding object in the final
// snapshot must be byte-identical to the offline batch run's serialization.
TEST_F(LoopbackTest, SampleWorkloadFindingsMatchBatchBytes) {
  std::ifstream in(std::string(SQLCHECK_SOURCE_DIR) +
                   "/examples/sample_workload.sql");
  ASSERT_TRUE(in.is_open());
  std::ostringstream content;
  content << in.rdbuf();
  std::string workload = content.str();

  ASSERT_TRUE(StartServer().ok());
  LineClient client = Connect();
  std::string hello;
  ASSERT_TRUE(client.ReadLine(&hello).ok());
  ASSERT_TRUE(client
                  .SendLine(R"({"op": "check", "sql": ")" + JsonEscape(workload) +
                            "\"}")
                  .ok());
  ReadResponse(&client);
  ASSERT_TRUE(client.SendLine(R"({"op": "snapshot"})").ok());
  std::vector<std::string> lines = ReadResponse(&client);
  ASSERT_GE(lines.size(), 2u);

  AnalysisSession batch{SqlCheckOptions{}};
  batch.AddScript(workload);
  Report report = batch.Snapshot();
  ASSERT_FALSE(report.findings.empty());

  ASSERT_EQ(lines.size(), report.findings.size() + 1);
  for (size_t i = 0; i < report.findings.size(); ++i) {
    std::string expected = "{\"op\": \"finding\", \"finding\": " +
                           FindingToJsonLine(report.findings[i], i + 1) + "}";
    EXPECT_EQ(lines[i], expected) << "finding " << i;
  }
}

// Server load: 64 sessions stay connected while four driver threads stream
// the same statements through them over two workers. Every session's final
// snapshot must match the offline run of that stream byte for byte, its
// arena must stay within the cap plus 64 KiB of slack, and no request may
// fail.
TEST_F(LoopbackTest, ConcurrentSessionsMatchOfflineBytesWithinArenaCap) {
  constexpr size_t kSessions = 64;
  constexpr int kDrivers = 4;
  constexpr size_t kArenaCapBytes = 512 << 10;
  constexpr size_t kArenaSlackBytes = 64 << 10;
  const std::vector<std::string> stream = {
      "CREATE TABLE users (id INT, name VARCHAR(64), email VARCHAR(64), "
      "password VARCHAR(64), status VARCHAR(8), tag_ids TEXT)",
      "CREATE TABLE orders (id INT, user_id INT, total FLOAT)",
      "SELECT * FROM users WHERE status = 'active'",
      "SELECT u.name, o.total FROM users u JOIN orders o ON u.id = o.user_id",
      "SELECT name FROM users WHERE email LIKE '%@example.com'",
      "SELECT * FROM users WHERE status = 'active'",
      "SELECT id, name FROM users GROUP BY id, name ORDER BY RAND()",
      "SELECT name FROM users WHERE id = 7",
      "SELECT name, password FROM users WHERE password = 'hunter2'",
      "SELECT u.name, o.total FROM users u JOIN orders o ON u.id = o.user_id",
  };

  AnalysisSession offline{SqlCheckOptions{}};
  for (const std::string& sql : stream) offline.Check(sql);
  const Report offline_report = offline.Snapshot();
  ASSERT_FALSE(offline_report.findings.empty());
  std::vector<std::string> expected;
  for (size_t i = 0; i < offline_report.findings.size(); ++i) {
    expected.push_back("{\"op\": \"finding\", \"finding\": " +
                       FindingToJsonLine(offline_report.findings[i], i + 1) + "}");
  }

  ServerOptions options;
  options.analysis.limits.arena_cap_bytes = kArenaCapBytes;
  ASSERT_TRUE(StartServer(options).ok());
  std::vector<LineClient> clients(kSessions);
  for (LineClient& client : clients) {
    std::string hello;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    ASSERT_TRUE(client.ReadLine(&hello).ok());
  }
  EXPECT_EQ(server_->gauges().active_sessions.load(), kSessions);

  // Sends one request; returns its terminal line ("" on a dead socket) and
  // leaves the finding lines before it in `findings`.
  auto exchange = [this](LineClient* client, const std::string& request,
                         std::vector<std::string>* findings) {
    findings->clear();
    if (client->SendLine(request).ok()) *findings = ReadResponse(client);
    if (findings->empty()) return std::string();
    std::string terminal = std::move(findings->back());
    findings->pop_back();
    return terminal;
  };
  auto ok = [](const std::string& terminal) {
    return terminal.find("\"ok\": true") != std::string::npos;
  };
  std::vector<std::string> checks;
  for (const std::string& sql : stream) {
    checks.push_back(R"({"op": "check", "sql": ")" + JsonEscape(sql) + "\"}");
  }
  struct Tally {
    size_t errors = 0;
    size_t mismatches = 0;
    size_t cap_breaches = 0;
  };
  std::vector<Tally> tallies(kDrivers);
  std::vector<std::thread> drivers;
  for (int t = 0; t < kDrivers; ++t) {
    drivers.emplace_back([&, t] {
      Tally& tally = tallies[t];
      std::vector<std::string> findings;
      for (size_t i = t; i < kSessions; i += kDrivers) {
        LineClient* client = &clients[i];
        for (const std::string& check : checks) {
          if (!ok(exchange(client, check, &findings))) ++tally.errors;
        }
        if (!ok(exchange(client, R"({"op": "snapshot"})", &findings))) ++tally.errors;
        if (findings != expected) ++tally.mismatches;

        const std::string stats = exchange(client, R"({"op": "stats"})", &findings);
        const std::string key = "\"arena_reserved_bytes\": ";
        const size_t at = stats.find(key);
        if (at == std::string::npos) {
          ++tally.errors;
        } else if (std::strtoull(stats.c_str() + at + key.size(), nullptr, 10) >
                   kArenaCapBytes + kArenaSlackBytes) {
          ++tally.cap_breaches;
        }
      }
    });
  }
  for (std::thread& driver : drivers) driver.join();
  for (const Tally& tally : tallies) {
    EXPECT_EQ(tally.errors, 0u);
    EXPECT_EQ(tally.mismatches, 0u);
    EXPECT_EQ(tally.cap_breaches, 0u);
  }
}

TEST_F(LoopbackTest, StatsReportsSubMillisecondServiceTime) {
  ServerOptions options;
  options.workers = 1;
  ASSERT_TRUE(StartServer(options).ok());
  LineClient client = Connect();
  std::string hello;
  ASSERT_TRUE(client.ReadLine(&hello).ok());

  // A burst of pings, each served in well under a millisecond: the service
  // time average must see them as such, not as whole-millisecond zeros.
  constexpr int kPings = 64;
  std::string burst = R"({"op": "ping"})";
  for (int i = 1; i < kPings; ++i) burst += "\n{\"op\": \"ping\"}";
  ASSERT_TRUE(client.SendLine(burst).ok());
  for (int i = 0; i < kPings; ++i) {
    std::string pong;
    ASSERT_TRUE(client.ReadLine(&pong).ok());
  }
  ASSERT_TRUE(client.SendLine(R"({"op": "stats"})").ok());
  std::string stats;
  ASSERT_TRUE(client.ReadLine(&stats).ok());
  const std::string key = "\"avg_request_us\": ";
  const size_t at = stats.find(key);
  ASSERT_NE(at, std::string::npos) << stats;
  const uint64_t avg_us = std::stoull(stats.substr(at + key.size()));
  EXPECT_GT(avg_us, 0u) << stats;
  EXPECT_LT(avg_us, 1000u) << stats;
}

TEST_F(LoopbackTest, GaugesCountTraffic) {
  ASSERT_TRUE(StartServer().ok());
  {
    LineClient client = Connect();
    std::string hello;
    ASSERT_TRUE(client.ReadLine(&hello).ok());
    ASSERT_TRUE(client.SendLine(R"({"op": "ping"})").ok());
    std::string pong;
    ASSERT_TRUE(client.ReadLine(&pong).ok());
  }
  const ServerGauges& gauges = server_->gauges();
  EXPECT_GE(gauges.connections_accepted.load(), 1u);
  EXPECT_GE(gauges.requests.load(), 1u);
  EXPECT_GT(gauges.bytes_in.load(), 0u);
  EXPECT_GT(gauges.bytes_out.load(), 0u);
}

}  // namespace
}  // namespace server
}  // namespace sqlcheck
