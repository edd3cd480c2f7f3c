#pragma once

#include <array>
#include <cstddef>

#include "rules/rule.h"

namespace sqlcheck {

/// \brief Store of per-AP metrics, one flat slot per AntiPattern. Seeded
/// from the paper's GlobaLeaks empirical analysis (§8.2) and updatable as
/// new performance data arrives — the "retraining" loop of §3 step ❹.
class MetricsStore {
 public:
  /// Store seeded with each built-in rule's default metrics (ApInfo::metrics,
  /// built once per process; each call copies it).
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
