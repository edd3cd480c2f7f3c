#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/options.h"
#include "core/session.h"

namespace sqlcheck {
namespace server {

struct Request;

/// \brief Process-wide counters the event loop maintains and the `stats` op
/// reports. Plain atomics: workers bump them without coordination.
struct ServerGauges {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_rejected{0};  ///< Turned away at capacity.
  std::atomic<uint64_t> active_sessions{0};
  std::atomic<uint64_t> evictions{0};  ///< Idle sessions reclaimed.
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> bytes_in{0};
  std::atomic<uint64_t> bytes_out{0};
  /// Requests refused at admission with `overloaded` (--max-queue-depth).
  std::atomic<uint64_t> requests_shed{0};
  /// Requests answered `deadline_exceeded` — expired in queue or cut off
  /// mid-script (--request-deadline-ms).
  std::atomic<uint64_t> deadlines_expired{0};
  /// Connections dropped because their response backlog made no write
  /// progress for --write-stall-ms.
  std::atomic<uint64_t> slow_client_disconnects{0};
  /// EWMA (alpha 1/8) of request service time in microseconds, 0 before the
  /// first request; feeds the `retry_after_ms` hint. Workers update it
  /// without coordination — racing samples just blend.
  std::atomic<uint64_t> avg_request_us{0};
};

/// \brief One tenant's protocol endpoint: owns the tenant's AnalysisSession
/// and turns complete request lines into NDJSON response bytes. Deliberately
/// transport-free — the epoll server feeds it socket lines, tests feed it
/// strings directly — so every framing/op/quota behavior is unit-testable
/// without a network.
///
/// Threading: not thread-safe; the server serializes requests per
/// connection (one in-flight handler call per tenant), which is also what
/// keeps the underlying single-threaded AnalysisSession sound.
class SessionHandler {
 public:
  /// `options` configures the tenant's session (including its
  /// SessionLimits quotas); `include_fixes` opts finding lines into the
  /// extended diagnosis fields (the CLI's --fixes surface); `gauges`
  /// (optional, not owned) adds the server-wide block to `stats` responses.
  explicit SessionHandler(const SqlCheckOptions& options, bool include_fixes = false,
                          ServerGauges* gauges = nullptr);

  /// Handles one complete request line (no trailing newline required) and
  /// returns the full response: zero or more `finding` / `statement_error`
  /// lines followed by exactly one terminal line, every line LF-terminated.
  /// `deadline_ms` (monotonic milliseconds on the steady clock, 0 = none)
  /// arms the session's cooperative deadline for this request: ingestion
  /// stops between statements once it passes and the terminal line answers
  /// `deadline_exceeded`. No exception escapes — an engine fault degrades to
  /// an `internal_error` terminal line.
  std::string HandleLine(std::string_view line, int64_t deadline_ms = 0);

  /// True once the client sent `{"op": "quit"}` — the transport should
  /// flush pending output and close.
  bool quit() const { return quit_; }

  const AnalysisSession& session() const { return *session_; }
  uint64_t requests() const { return requests_; }
  uint64_t findings_streamed() const { return findings_streamed_; }

 private:
  std::string HandleCheck(const Request& request, int64_t deadline_ms);
  std::string HandleSnapshot(const Request& request);
  std::string HandleReset();
  std::string HandleStats();

  /// `{"op": "finding", "finding": {...}}` — the NDJSON finding unit; the
  /// inner object is exactly FindingToJsonLine's, so server findings are
  /// byte-comparable against a batch SqlCheck::Run() of the same stream.
  std::string FindingLine(const Finding& finding, size_t rank) const;

  SqlCheckOptions options_;
  bool include_fixes_;
  ServerGauges* gauges_;  ///< Not owned; handler bumps deadline gauges.
  std::unique_ptr<AnalysisSession> session_;
  bool quit_ = false;
  uint64_t requests_ = 0;
  uint64_t findings_streamed_ = 0;
  std::chrono::steady_clock::time_point started_ = std::chrono::steady_clock::now();
};

}  // namespace server
}  // namespace sqlcheck
