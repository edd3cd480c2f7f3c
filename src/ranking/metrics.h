#pragma once

#include <array>
#include <cstddef>

#include "rules/rule.h"

namespace sqlcheck {

/// \brief The six raw impact metrics ap-rank collects per AP (§5.1):
///   RP/WP — measured speedup of read/write queries after fixing the AP
///           (e.g. 636x for the multi-valued attribute lookup, Fig. 3a);
///   M     — number of query changes a schema evolution task needs (O(Q) vs
///           O(1), §5.1 ❷), expressed as a small integer scale;
///   DA    — data amplification factor removed by the fix;
///   DI/A  — binary: does the AP threaten integrity / accuracy.
struct ApMetrics {
  double read_speedup = 0.0;
  double write_speedup = 0.0;
  double maintainability = 0.0;
  double data_amplification = 0.0;
  int data_integrity = 0;  // 0/1
  int accuracy = 0;        // 0/1
};

/// \brief Store of per-AP metrics, one flat slot per AntiPattern. Seeded
/// from the paper's GlobaLeaks empirical analysis (§8.2) and updatable as
/// new performance data arrives — the "retraining" loop of §3 step ❹.
class MetricsStore {
 public:
  /// Store seeded with the built-in calibration table (built once per
  /// process; each call copies it).
  static MetricsStore Default();

  const ApMetrics& For(AntiPattern type) const { return metrics_[Slot(type)]; }

  /// Blends a fresh measurement into the stored metrics (exponential moving
  /// average with weight `alpha` on the new observation).
  void RecordObservation(AntiPattern type, const ApMetrics& observed, double alpha = 0.3);

  void Set(AntiPattern type, ApMetrics metrics) { metrics_[Slot(type)] = metrics; }

 private:
  static size_t Slot(AntiPattern type) { return static_cast<size_t>(type); }

  std::array<ApMetrics, kAntiPatternCount> metrics_{};  ///< Zero until set.
};

}  // namespace sqlcheck
