#pragma once

#include <vector>

#include "ranking/metrics.h"
#include "rules/rule.h"

namespace sqlcheck {

/// \brief Weights over the six metrics (Figure 7a of the paper).
struct RankingWeights {
  double rp = 0.7;
  double wp = 0.15;
  double m = 0.05;
  double da = 0.04;
  double di = 0.02;
  double a = 0.02;

  /// C1: prioritizes read performance (analytical workloads).
  static RankingWeights C1() { return {0.7, 0.15, 0.05, 0.04, 0.02, 0.02}; }
  /// C2: equal read/write priority (hybrid transactional/analytical).
  static RankingWeights C2() { return {0.4, 0.4, 0.1, 0.04, 0.02, 0.02}; }
};

/// \brief Inter-query ranking mode (§5.2 "Model Components" ❶/❷).
enum class InterQueryMode {
  kByScore,    ///< Flat ordering by computed impact score.
  kByApCount,  ///< Queries with more APs first, score breaks ties. A data
               ///< finding (no query) counts as a query with one AP.
};

/// \brief One detection with its computed impact score.
struct RankedDetection {
  Detection detection;
  double score = 0.0;
};

/// \brief Severity grading of a Figure-6 impact score — the single place
/// the thresholds live, so every consumer (the text renderer's color
/// grading, the --fixes JSON "severity" field) draws the same lines.
enum class Severity { kHigh, kMedium, kLow };

/// >= 0.5 is high, >= 0.15 medium, below that low.
Severity ScoreSeverity(double score);

/// Stable lowercase name ("high" / "medium" / "low").
const char* SeverityName(Severity severity);

/// \brief ap-rank: scores detections with the Figure 6 formulae and orders
/// them so the developer's attention lands on high-impact APs first.
class RankingModel {
 public:
  explicit RankingModel(RankingWeights weights = RankingWeights::C1(),
                        InterQueryMode mode = InterQueryMode::kByScore,
                        MetricsStore metrics = MetricsStore::Default())
      : weights_(weights), mode_(mode), metrics_(std::move(metrics)) {}

  /// Figure 6: score = Wrp*min(1,RP/5) + Wwp*min(1,WP/5) + Wm*min(1,M/5)
  ///                 + Wda*min(1,DA/8) + Wdi*DI + Wa*A.
  double Score(const ApMetrics& metrics) const;

  /// Scores one detection using the metric store (query-aware: detections on
  /// read-only statements emphasize RP, write statements WP).
  RankedDetection ScoreDetection(Detection detection) const;

  /// Ranks all detections, highest impact first; equal keys keep their
  /// input order.
  std::vector<RankedDetection> Rank(std::vector<Detection> detections) const;

  const RankingWeights& weights() const { return weights_; }

 private:
  /// The store's metrics for `detection`, adjusted to its statement kind.
  ApMetrics MetricsFor(const Detection& detection) const;

  RankingWeights weights_;
  InterQueryMode mode_;
  MetricsStore metrics_;
};

}  // namespace sqlcheck
