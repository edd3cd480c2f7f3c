// Test helper: a workload analyzed by an AnalysisSession that detects but
// suggests no fixes, for tests that drive the fixers, the rewriter or the
// verifier themselves against the session's context.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/session.h"

namespace sqlcheck {

struct Detected {
  explicit Detected(const std::string& script, const Database* db = nullptr,
                    SqlCheckOptions options = {})
      : session(WithoutFixes(std::move(options))) {
    session.AddScript(script);
    if (db != nullptr) session.AttachDatabase(db);
    for (Finding& f : session.Snapshot().findings) {
      detections.push_back(std::move(f.ranked.detection));
    }
  }

  const Context& context() const { return session.context(); }
  operator const Context&() const { return session.context(); }

  AnalysisSession session;
  std::vector<Detection> detections;  ///< In ap-rank order.

 private:
  static SqlCheckOptions WithoutFixes(SqlCheckOptions options) {
    options.suggest_fixes = false;
    return options;
  }
};

}  // namespace sqlcheck
