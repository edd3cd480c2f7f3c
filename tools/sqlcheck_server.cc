// The sqlcheck-server daemon: the multi-tenant deployment surface of the
// analysis engine. One TCP listener, one AnalysisSession per connection, a
// newline-delimited JSON protocol (docs/PROTOCOL.md), and per-tenant memory
// quotas so thousands of concurrent sessions fit a fixed budget
// (docs/OPERATIONS.md covers sizing).
//
// Exit codes:
//   0  clean shutdown (SIGINT/SIGTERM)
//   2  usage or bind error
#include <csignal>
#include <cstdio>
#include <iostream>
#include <string>
#include <string_view>

#include "common/strings.h"
#include "server/server.h"

namespace {

using namespace sqlcheck;

constexpr std::string_view kUsage = R"(usage: sqlcheck-server [options]

Serves the incremental SQL anti-pattern analyzer over TCP: one analysis
session per connection, newline-delimited JSON requests and responses
(see docs/PROTOCOL.md). Streamed findings are byte-identical to the batch
CLI's JSON output for the same statements.

options:
  --host <addr>               IPv4 address to bind (default: 127.0.0.1)
  --port <N>                  TCP port; 0 picks an ephemeral port and prints
                              it (default: 8617)
  --workers <N>               analysis worker threads (default: hardware)
  --max-sessions <N>          concurrent session cap; arrivals beyond it get
                              a `capacity` error (default: 10000)
  --idle-evict-secs <N>       evict sessions idle this many seconds, 0 = off
                              (default: 0)
  --max-line-bytes <N>        longest accepted request line (default: 1048576)
  --session-arena-cap <N>     per-session AST arena budget in bytes, 0 = off
  --max-statements <N>        per-session statement quota, 0 = off
  --max-ingest-bytes <N>      per-session ingested-SQL quota, 0 = off
  --interner-cap <N>          per-session interned-name quota, 0 = off
  --request-deadline-ms <N>   per-request deadline: queued requests past it
                              answer `deadline_exceeded` without running, a
                              running check stops between statements, 0 = off
                              (default: 0)
  --max-queue-depth <N>       load shedding: requests queued across all
                              connections before new lines are refused with a
                              retryable `overloaded` error, 0 = off
                              (default: 0)
  --write-buffer-bytes <N>    per-connection response backlog before the
                              server stops reading that socket
                              (default: 8388608)
  --write-stall-ms <N>        disconnect a client whose backlog makes no
                              write progress this long, 0 = off (default: 0)
  --statement-budget-ms <N>   wall-clock budget per statement; an exceeder
                              still lands but its fingerprint is quarantined
                              (repeats refused O(1)), 0 = off (default: 0)
  --quarantine-cap <N>        quarantined-fingerprint LRU capacity
                              (default: 256)
  --fixes                     include the fix verification fields on finding
                              lines
  --verify-exec <on|off|required>
                              Tier-3 differential execution of rewrite fixes
                              (default: off); per-tier counts surface in the
                              `stats` op
  --verify-seed <N>           seed for the generated verification datasets
                              (default: 42)
  --disable <NAME[,NAME...]>  disable rules by anti-pattern name (repeatable)
  -h, --help                  show this help

exit codes: 0 = clean shutdown, 2 = usage or bind error
)";

int UsageError(const std::string& message) {
  std::cerr << "sqlcheck-server: " << message << "\n\n" << kUsage;
  return 2;
}

bool ParseSize(const std::string& value, size_t* out) {
  if (!IsAllDigits(value) || value.empty() || value.size() > 15) return false;
  *out = static_cast<size_t>(std::stoull(value));
  return true;
}

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  // Belt (Server::Start also sets it) and suspenders: no disappearing client
  // may ever take the daemon down with SIGPIPE — writes surface EPIPE and
  // that connection alone is torn down silently.
  std::signal(SIGPIPE, SIG_IGN);

  server::ServerOptions options;

  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value_of = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string value;
    size_t number = 0;
    if (arg == "-h" || arg == "--help") {
      std::cout << kUsage;
      return 0;
    } else if (arg == "--host") {
      if (!value_of(&value)) return UsageError("--host requires a value");
      options.host = value;
    } else if (arg == "--port") {
      if (!value_of(&value) || !ParseSize(value, &number) || number > 65535) {
        return UsageError("--port expects 0..65535");
      }
      options.port = static_cast<uint16_t>(number);
    } else if (arg == "--workers") {
      if (!value_of(&value) || !ParseSize(value, &number) || number > 1024) {
        return UsageError("--workers expects a thread count");
      }
      options.workers = static_cast<int>(number);
    } else if (arg == "--max-sessions") {
      if (!value_of(&value) || !ParseSize(value, &number) || number == 0) {
        return UsageError("--max-sessions expects a positive count");
      }
      options.max_sessions = number;
    } else if (arg == "--idle-evict-secs") {
      if (!value_of(&value) || !ParseSize(value, &number)) {
        return UsageError("--idle-evict-secs expects a number of seconds");
      }
      options.idle_evict_ms = static_cast<int>(number * 1000);
    } else if (arg == "--max-line-bytes") {
      if (!value_of(&value) || !ParseSize(value, &number) || number == 0) {
        return UsageError("--max-line-bytes expects a positive byte count");
      }
      options.max_line_bytes = number;
    } else if (arg == "--session-arena-cap") {
      if (!value_of(&value) || !ParseSize(value, &number)) {
        return UsageError("--session-arena-cap expects a byte count");
      }
      options.analysis.limits.arena_cap_bytes = number;
    } else if (arg == "--max-statements") {
      if (!value_of(&value) || !ParseSize(value, &number)) {
        return UsageError("--max-statements expects a count");
      }
      options.analysis.limits.max_statements = number;
    } else if (arg == "--max-ingest-bytes") {
      if (!value_of(&value) || !ParseSize(value, &number)) {
        return UsageError("--max-ingest-bytes expects a byte count");
      }
      options.analysis.limits.max_ingest_bytes = number;
    } else if (arg == "--interner-cap") {
      if (!value_of(&value) || !ParseSize(value, &number)) {
        return UsageError("--interner-cap expects a count");
      }
      options.analysis.limits.interner_cap_names = number;
    } else if (arg == "--request-deadline-ms") {
      if (!value_of(&value) || !ParseSize(value, &number)) {
        return UsageError("--request-deadline-ms expects milliseconds");
      }
      options.request_deadline_ms = static_cast<int>(number);
    } else if (arg == "--max-queue-depth") {
      if (!value_of(&value) || !ParseSize(value, &number)) {
        return UsageError("--max-queue-depth expects a count");
      }
      options.max_queue_depth = number;
    } else if (arg == "--write-buffer-bytes") {
      if (!value_of(&value) || !ParseSize(value, &number) || number == 0) {
        return UsageError("--write-buffer-bytes expects a positive byte count");
      }
      options.max_write_buffer_bytes = number;
    } else if (arg == "--write-stall-ms") {
      if (!value_of(&value) || !ParseSize(value, &number)) {
        return UsageError("--write-stall-ms expects milliseconds");
      }
      options.write_stall_ms = static_cast<int>(number);
    } else if (arg == "--statement-budget-ms") {
      if (!value_of(&value) || !ParseSize(value, &number)) {
        return UsageError("--statement-budget-ms expects milliseconds");
      }
      options.analysis.statement_budget_ms = static_cast<int>(number);
    } else if (arg == "--quarantine-cap") {
      if (!value_of(&value) || !ParseSize(value, &number)) {
        return UsageError("--quarantine-cap expects a count");
      }
      options.analysis.quarantine_capacity = number;
    } else if (arg == "--verify-exec") {
      if (!value_of(&value)) return UsageError("--verify-exec requires a value");
      if (value == "off") {
        options.analysis.verify_exec.mode = ExecVerifyMode::kOff;
      } else if (value == "on") {
        options.analysis.verify_exec.mode = ExecVerifyMode::kOn;
      } else if (value == "required") {
        options.analysis.verify_exec.mode = ExecVerifyMode::kRequired;
      } else {
        return UsageError("--verify-exec expects on, off, or required");
      }
    } else if (arg == "--verify-seed") {
      if (!value_of(&value) || !ParseSize(value, &number)) {
        return UsageError("--verify-seed expects a number");
      }
      options.analysis.verify_exec.seed = number;
    } else if (arg == "--fixes") {
      options.include_fixes = true;
    } else if (arg == "--disable") {
      if (!value_of(&value)) return UsageError("--disable requires a value");
      for (const auto& name : Split(value, ',')) {
        std::string trimmed(Trim(name));
        if (!trimmed.empty()) {
          options.analysis.disabled_rules.push_back(std::move(trimmed));
        }
      }
    } else {
      return UsageError("unknown option '" + std::string(arg) + "'");
    }
  }

  server::SqlCheckServer srv(options);
  Status status = srv.Start();
  if (!status.ok()) {
    std::cerr << "sqlcheck-server: " << status.message() << "\n";
    return 2;
  }
  // The "listening" line is the startup handshake for scripts (and the smoke
  // test): flushed immediately so a pipe reader unblocks.
  std::printf("sqlcheck-server: listening on %s:%u\n", options.host.c_str(),
              srv.port());
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  sigset_t mask;
  sigemptyset(&mask);
  while (g_stop == 0) sigsuspend(&mask);

  srv.Stop();
  const server::ServerGauges& g = srv.gauges();
  std::fprintf(stderr,
               "sqlcheck-server: shutdown (accepted=%llu rejected=%llu "
               "evicted=%llu requests=%llu bytes_in=%llu bytes_out=%llu "
               "shed=%llu deadlines=%llu slow_clients=%llu)\n",
               static_cast<unsigned long long>(g.connections_accepted.load()),
               static_cast<unsigned long long>(g.connections_rejected.load()),
               static_cast<unsigned long long>(g.evictions.load()),
               static_cast<unsigned long long>(g.requests.load()),
               static_cast<unsigned long long>(g.bytes_in.load()),
               static_cast<unsigned long long>(g.bytes_out.load()),
               static_cast<unsigned long long>(g.requests_shed.load()),
               static_cast<unsigned long long>(g.deadlines_expired.load()),
               static_cast<unsigned long long>(g.slow_client_disconnects.load()));
  return 0;
}
