#include "ranking/model.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

namespace sqlcheck {

namespace {
double Squash5(double x) { return std::min(1.0, x / 5.0); }
double Squash8(double x) { return std::min(1.0, x / 8.0); }

/// Speedups are reported as ratios (1.0 = no change); the score input is the
/// *improvement*, so 1.0 maps to 0.
double SpeedupInput(double ratio) { return ratio > 1.0 ? ratio : 0.0; }
}  // namespace

double RankingModel::Score(const ApMetrics& m) const {
  return weights_.rp * Squash5(SpeedupInput(m.read_speedup)) +
         weights_.wp * Squash5(SpeedupInput(m.write_speedup)) +
         weights_.m * Squash5(m.maintainability) +
         weights_.da * Squash8(m.data_amplification) +
         weights_.di * static_cast<double>(m.data_integrity) +
         weights_.a * static_cast<double>(m.accuracy);
}

ApMetrics RankingModel::MetricsFor(const Detection& detection) const {
  ApMetrics metrics = metrics_.For(detection.type);

  // Query-aware adjustment (§5.2): map the offending statement to the
  // standard query types. A detection on a pure read statement cannot buy
  // write speedup and vice versa.
  if (detection.stmt != nullptr) {
    switch (detection.stmt->kind) {
      case sql::StatementKind::kSelect:
        metrics.write_speedup = 0.0;
        break;
      case sql::StatementKind::kInsert:
      case sql::StatementKind::kUpdate:
      case sql::StatementKind::kDelete:
        metrics.read_speedup = 0.0;
        break;
      default:
        break;  // DDL detections keep the full profile
    }
  }
  return metrics;
}

RankedDetection RankingModel::ScoreDetection(Detection detection) const {
  RankedDetection ranked;
  ranked.score = Score(MetricsFor(detection));
  ranked.detection = std::move(detection);
  return ranked;
}

std::vector<RankedDetection> RankingModel::Rank(std::vector<Detection> detections) const {
  // Sort small keys, then move each detection into its ranked slot once.
  // `pos` breaks ties, so the order is what a stable sort would give.
  struct Key {
    int ap_count;
    double score;
    size_t pos;
  };
  std::vector<Key> keys(detections.size());
  for (size_t i = 0; i < detections.size(); ++i) {
    keys[i] = {0, Score(MetricsFor(detections[i])), i};
  }
  if (mode_ == InterQueryMode::kByApCount) {
    // ❶ queries with more APs first; score breaks ties within and across.
    // Each data finding (no query) stands alone.
    std::unordered_map<std::string_view, int> per_query;
    for (const Detection& d : detections) {
      if (!d.query.empty()) ++per_query[d.query];
    }
    for (Key& key : keys) {
      const std::string& query = detections[key.pos].query;
      key.ap_count = query.empty() ? 1 : per_query[query];
    }
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.ap_count != b.ap_count) return a.ap_count > b.ap_count;
    if (a.score != b.score) return a.score > b.score;
    return a.pos < b.pos;
  });

  std::vector<RankedDetection> ranked(keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    RankedDetection& out = ranked[k];
    out.score = keys[k].score;
    out.detection = std::move(detections[keys[k].pos]);
  }
  return ranked;
}

Severity ScoreSeverity(double score) {
  if (score >= 0.5) return Severity::kHigh;
  if (score >= 0.15) return Severity::kMedium;
  return Severity::kLow;
}

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kHigh: return "high";
    case Severity::kMedium: return "medium";
    case Severity::kLow: return "low";
  }
  return "low";
}

}  // namespace sqlcheck
