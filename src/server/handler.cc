#include "server/handler.h"

#include <utility>

#include "core/emit.h"
#include "server/wire.h"

namespace sqlcheck {
namespace server {

namespace {

void AppendField(std::string* out, const char* key, uint64_t value, bool first = false) {
  if (!first) *out += ", ";
  *out += '"';
  *out += key;
  *out += "\": ";
  *out += std::to_string(value);
}

void AppendField(std::string* out, const char* key, std::string_view value,
                 bool first = false) {
  if (!first) *out += ", ";
  *out += '"';
  *out += key;
  *out += "\": \"";
  AppendJsonEscaped(out, value);
  *out += '"';
}

}  // namespace

SessionHandler::SessionHandler(const SqlCheckOptions& options, bool include_fixes,
                               ServerGauges* gauges)
    : options_(options),
      include_fixes_(include_fixes),
      gauges_(gauges),
      session_(std::make_unique<AnalysisSession>(options)) {}

std::string SessionHandler::HandleLine(std::string_view line, int64_t deadline_ms) {
  ++requests_;
  // Nothing past this point may throw into the transport: the worker pool's
  // tasks-don't-throw contract ends here. The session's append paths absorb
  // statement-level faults themselves; this catch covers everything else
  // (report assembly, ranking, emission) and answers internal_error while
  // the connection — and the session's ingested history — stay usable.
  try {
    Request request = ParseRequest(line);
    if (!request.ok) return ErrorLine(request.error_code, request.error_message);
    if (request.op == "check") return HandleCheck(request, deadline_ms);
    if (request.op == "snapshot") return HandleSnapshot(request);
    if (request.op == "reset") return HandleReset();
    if (request.op == "stats") return HandleStats();
    if (request.op == "ping") return "{\"op\": \"ping\", \"ok\": true}\n";
    if (request.op == "quit") {
      quit_ = true;
      return "{\"op\": \"quit\", \"ok\": true}\n";
    }
    return ErrorLine(ErrorCode::kBadRequest, "unknown op '" + request.op + "'");
  } catch (const std::exception& e) {
    session_->ClearDeadline();
    return ErrorLine(ErrorCode::kInternalError,
                     std::string("request failed: ") + e.what());
  } catch (...) {
    session_->ClearDeadline();
    return ErrorLine(ErrorCode::kInternalError, "request failed");
  }
}

std::string SessionHandler::FindingLine(const Finding& finding, size_t rank) const {
  std::string line = "{\"op\": \"finding\", \"finding\": ";
  line += FindingToJsonLine(finding, rank, include_fixes_);
  line += "}\n";
  return line;
}

std::string SessionHandler::HandleCheck(const Request& request, int64_t deadline_ms) {
  if (request.sql.empty()) {
    return ErrorLine(ErrorCode::kBadRequest, "check requires a non-empty 'sql'");
  }
  // Reject before parsing: a request that would cross a quota is refused
  // whole, leaving the session's ingested history fully usable.
  Status quota = session_->CheckQuota(request.sql.size());
  if (!quota.ok()) return ErrorLine(ErrorCode::kQuotaExceeded, quota.message());

  if (deadline_ms > 0) {
    session_->SetDeadline(std::chrono::steady_clock::time_point(
        std::chrono::milliseconds(deadline_ms)));
  }
  const size_t before = session_->statement_count();
  Report delta = session_->Check(request.sql);
  session_->ClearDeadline();
  if (!session_->quota_status().ok()) {
    // A mid-append breach (e.g. the arena crossed its cap while this script
    // was ingesting) still answers quota_exceeded — nothing was appended.
    return ErrorLine(ErrorCode::kQuotaExceeded, session_->quota_status().message());
  }
  std::string response;
  for (size_t i = 0; i < delta.findings.size(); ++i) {
    response += FindingLine(delta.findings[i], i + 1);
  }
  findings_streamed_ += delta.findings.size();

  // Statement-level failures stream like findings: each poisoned, budget-
  // blown, or deadline-refused statement gets its own line, then the
  // terminal line summarizes. A request-level deadline cutoff (refused
  // entries that were never quarantined) turns the terminal into
  // deadline_exceeded — partial statements up to the cutoff are ingested
  // and their findings above remain valid.
  const std::vector<StatementFailure>& failures = session_->recent_failures();
  bool deadline_hit = false;
  for (const StatementFailure& failure : failures) {
    response += StatementErrorLine(failure.code, failure.message, failure.sql,
                                   failure.quarantined);
    if (!failure.quarantined && failure.code == std::string_view("deadline_exceeded")) {
      deadline_hit = true;
    }
  }
  if (deadline_hit) {
    if (gauges_ != nullptr) gauges_->deadlines_expired.fetch_add(1);
    response += "{\"op\": \"check\", \"ok\": false, \"error\": {\"code\": \"";
    response += ErrorCode::kDeadlineExceeded;
    response += "\", \"message\": \"request deadline expired mid-script; "
                "statements before the cutoff are ingested\"}";
  } else {
    response += "{\"op\": \"check\", \"ok\": true";
  }
  AppendField(&response, "statements", session_->statement_count() - before);
  AppendField(&response, "total_statements", session_->statement_count());
  AppendField(&response, "findings", delta.findings.size());
  if (!failures.empty()) {
    AppendField(&response, "failed_statements", failures.size());
  }
  response += "}\n";
  return response;
}

std::string SessionHandler::HandleSnapshot(const Request& request) {
  Report report = session_->Snapshot();
  if (request.format == "json" || request.format == "sarif") {
    // Whole-document flavor: the PR-3 emitters' exact batch output, shipped
    // as one escaped string so the NDJSON framing stays line-per-message.
    EmitOptions emit;
    emit.include_fixes = include_fixes_;
    std::string document =
        request.format == "json" ? ToJson(report, emit) : ToSarif(report, emit);
    std::string response = "{\"op\": \"snapshot\", \"ok\": true";
    AppendField(&response, "format", request.format);
    AppendField(&response, "findings", report.findings.size());
    AppendField(&response, "document", document);
    response += "}\n";
    return response;
  }
  if (!request.format.empty() && request.format != "ndjson") {
    return ErrorLine(ErrorCode::kBadRequest,
                     "unknown snapshot format '" + request.format + "'");
  }
  std::string response;
  for (size_t i = 0; i < report.findings.size(); ++i) {
    response += FindingLine(report.findings[i], i + 1);
  }
  findings_streamed_ += report.findings.size();
  response += "{\"op\": \"snapshot\", \"ok\": true";
  AppendField(&response, "findings", report.findings.size());
  AppendField(&response, "statements", session_->statement_count());
  response += "}\n";
  return response;
}

std::string SessionHandler::HandleReset() {
  // A fresh session: history, memos, arena, interner, quota accounting, and
  // the statement quarantine all restart from zero. This is the tenant-facing
  // recovery path after quota_exceeded and after quarantined statements.
  session_ = std::make_unique<AnalysisSession>(options_);
  return "{\"op\": \"reset\", \"ok\": true}\n";
}

std::string SessionHandler::HandleStats() {
  SessionUsage usage = session_->Usage();
  const SessionLimits& limits = options_.limits;
  uint64_t uptime = static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::seconds>(
                                              std::chrono::steady_clock::now() - started_)
                                              .count());
  std::string response = "{\"op\": \"stats\", \"ok\": true, \"session\": {";
  AppendField(&response, "statements", usage.statements, /*first=*/true);
  AppendField(&response, "unique_groups", usage.unique_groups);
  AppendField(&response, "ingested_bytes", usage.ingested_bytes);
  AppendField(&response, "arena_reserved_bytes", usage.arena_reserved_bytes);
  AppendField(&response, "arena_used_bytes", usage.arena_used_bytes);
  AppendField(&response, "scratch_reserved_bytes", usage.scratch_reserved_bytes);
  AppendField(&response, "interner_names", usage.interner_names);
  AppendField(&response, "interner_bytes", usage.interner_bytes);
  AppendField(&response, "raw_repeats", session_->raw_repeats());
  AppendField(&response, "fix_cache_hits", session_->fix_cache_hits());
  AppendField(&response, "fix_cache_misses", session_->fix_cache_misses());
  AppendField(&response, "rule_cache_hits", session_->rule_cache_hits());
  AppendField(&response, "rule_cache_misses", session_->rule_cache_misses());
  const VerifyStats& verify = session_->verify_stats();
  AppendField(&response, "verify_tier_exec", verify.tier_exec);
  AppendField(&response, "verify_tier_analysis", verify.tier_analysis);
  AppendField(&response, "verify_tier_parse", verify.tier_parse);
  AppendField(&response, "verify_demoted", verify.demoted);
  AppendField(&response, "verify_exec_runs", verify.exec_runs);
  AppendField(&response, "verify_exec_infeasible", verify.exec_infeasible);
  AppendField(&response, "verify_memo_hits", verify.memo_hits);
  AppendField(&response, "verify_memo_misses", verify.memo_misses);
  AppendField(&response, "statements_quarantined", session_->statements_quarantined());
  AppendField(&response, "quarantine_size", session_->quarantine_size());
  AppendField(&response, "quarantine_refusals", session_->quarantine_refusals());
  AppendField(&response, "faults_recovered", session_->faults_recovered());
  AppendField(&response, "requests", requests_);
  AppendField(&response, "findings_streamed", findings_streamed_);
  AppendField(&response, "uptime_secs", uptime);
  response += ", \"quota_ok\": ";
  response += session_->quota_status().ok() ? "true" : "false";
  if (!session_->quota_status().ok()) {
    AppendField(&response, "quota_message", session_->quota_status().message());
  }
  response += "}, \"limits\": {";
  AppendField(&response, "max_statements", limits.max_statements, /*first=*/true);
  AppendField(&response, "max_ingest_bytes", limits.max_ingest_bytes);
  AppendField(&response, "arena_cap_bytes", limits.arena_cap_bytes);
  AppendField(&response, "interner_cap_names", limits.interner_cap_names);
  response += '}';
  if (gauges_ != nullptr) {
    response += ", \"server\": {";
    AppendField(&response, "active_sessions", gauges_->active_sessions.load(),
                /*first=*/true);
    AppendField(&response, "connections_accepted", gauges_->connections_accepted.load());
    AppendField(&response, "connections_rejected", gauges_->connections_rejected.load());
    AppendField(&response, "evictions", gauges_->evictions.load());
    AppendField(&response, "requests", gauges_->requests.load());
    AppendField(&response, "bytes_in", gauges_->bytes_in.load());
    AppendField(&response, "bytes_out", gauges_->bytes_out.load());
    AppendField(&response, "requests_shed", gauges_->requests_shed.load());
    AppendField(&response, "deadlines_expired", gauges_->deadlines_expired.load());
    AppendField(&response, "slow_client_disconnects",
                gauges_->slow_client_disconnects.load());
    AppendField(&response, "avg_request_us", gauges_->avg_request_us.load());
    response += '}';
  }
  response += "}\n";
  return response;
}

}  // namespace server
}  // namespace sqlcheck
