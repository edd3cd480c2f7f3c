#pragma once

#include <string>
#include <string_view>

#include "core/options.h"
#include "core/report.h"
#include "core/session.h"
#include "storage/database.h"

namespace sqlcheck {

/// \brief The sqlcheck facade: find, rank, and fix anti-patterns in a
/// database application (the toolchain of §3).
///
/// This is a thin batch wrapper over the incremental AnalysisSession —
/// Run() is session().Snapshot(), so batch reports are byte-identical to
/// feeding the same statements through a session one at a time.
///
/// Usage mirrors the paper's workflow:
/// \code
///   SqlCheck checker;
///   checker.AddScript(application_sql);   // queries + DDL
///   checker.AttachDatabase(&db);          // optional: enables data analysis
///   Report report = checker.Run();
///   std::cout << report.ToText();
/// \endcode
class SqlCheck {
 public:
  explicit SqlCheck(SqlCheckOptions options = {});

  /// Adds one SQL statement from the application workload.
  void AddQuery(std::string_view sql_text);
  /// Adds a multi-statement script.
  void AddScript(std::string_view script);
  /// Connects the target database (the §4.2 data analyzer). Its schema and
  /// table profiles are captured at attach time — call again to re-profile
  /// if the data changes between attach and Run(). (The pre-incremental
  /// facade profiled lazily inside Run(); attach-time capture is what lets
  /// a long-lived session amortize profiling across many reports.)
  void AttachDatabase(const Database* db);

  /// Registers a custom rule (extensibility hook of §7).
  void RegisterRule(std::unique_ptr<Rule> rule);

  /// Runs ap-detect -> ap-rank -> ap-fix and returns the ranked report.
  /// Idempotent: statements may keep being added and Run() called again.
  Report Run();

  const SqlCheckOptions& options() const { return session_.options(); }

  /// The underlying incremental engine, for callers that outgrow batch mode.
  AnalysisSession& session() { return session_; }
  const AnalysisSession& session() const { return session_; }

 private:
  AnalysisSession session_;
};

/// \brief One-shot convenience mirroring the paper's Python API
/// (`find_anti_patterns(query)`): checks a single statement in isolation.
/// Routed through AnalysisSession, so it cannot drift from the batch or
/// streaming paths.
Report FindAntiPatterns(std::string_view sql_text, const SqlCheckOptions& options = {});

}  // namespace sqlcheck
