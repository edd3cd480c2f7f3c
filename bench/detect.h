// Shared by the paper-table benches: one workload's detections through the
// production pipeline.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/session.h"

namespace sqlcheck {

/// Ranked detections of `statements` (plus `db`'s data profiles, if given)
/// under `config`: one AnalysisSession, each statement appended on its own,
/// no fixes.
inline std::vector<Detection> DetectWorkload(const std::vector<std::string>& statements,
                                             const DetectorConfig& config,
                                             const Database* db = nullptr) {
  SqlCheckOptions options;
  options.suggest_fixes = false;
  options.detector = config;
  AnalysisSession session(options);
  for (const std::string& sql_text : statements) session.AddQuery(sql_text);
  if (db != nullptr) session.AttachDatabase(db);
  std::vector<Detection> out;
  for (Finding& f : session.Snapshot().findings) {
    out.push_back(std::move(f.ranked.detection));
  }
  return out;
}

}  // namespace sqlcheck
