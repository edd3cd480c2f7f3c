#include "ranking/metrics.h"

namespace sqlcheck {

MetricsStore MetricsStore::Default() {
  static const MetricsStore kDefaults = [] {
    MetricsStore m;
    for (int t = 0; t < kAntiPatternCount; ++t) {
      const ApInfo& row = InfoFor(static_cast<AntiPattern>(t));
      m.Set(row.type, row.metrics);
    }
    return m;
  }();
  return kDefaults;
}

void MetricsStore::RecordObservation(AntiPattern type, const ApMetrics& observed,
                                     double alpha) {
  ApMetrics& current = metrics_[Slot(type)];
  auto blend = [alpha](double old_value, double new_value) {
    return (1.0 - alpha) * old_value + alpha * new_value;
  };
  current.read_speedup = blend(current.read_speedup, observed.read_speedup);
  current.write_speedup = blend(current.write_speedup, observed.write_speedup);
  current.maintainability = blend(current.maintainability, observed.maintainability);
  current.data_amplification =
      blend(current.data_amplification, observed.data_amplification);
  // Binary flags stick once observed.
  current.data_integrity = current.data_integrity | observed.data_integrity;
  current.accuracy = current.accuracy | observed.accuracy;
}

}  // namespace sqlcheck
