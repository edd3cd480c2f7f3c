#include "ranking/metrics.h"

namespace sqlcheck {

namespace {

/// Calibration table. RP/WP come from the paper's measurements where stated
/// (Figs. 3 and 8); the rest follow Table 1's impact flags.
MetricsStore BuildDefaults() {
  MetricsStore m;
  auto set = [&](AntiPattern t, double rp, double wp, double maint, double da, int di,
                 int a) { m.Set(t, ApMetrics{rp, wp, maint, da, di, a}); };

  // Logical design.
  set(AntiPattern::kMultiValuedAttribute, 636.0, 3.0, 4.0, 2.0, 1, 1);  // Fig 3a
  set(AntiPattern::kNoPrimaryKey, 2.0, 1.0, 3.0, 2.0, 1, 0);
  set(AntiPattern::kNoForeignKey, 1.1, 1.1, 3.0, 0.0, 1, 0);            // Fig 8d/e
  set(AntiPattern::kGenericPrimaryKey, 0.0, 0.0, 1.0, 0.0, 0, 0);
  set(AntiPattern::kDataInMetadata, 2.0, 1.5, 4.0, 2.0, 1, 1);
  set(AntiPattern::kAdjacencyList, 1.1, 0.0, 2.0, 0.0, 0, 0);           // §8.5: PG11 ~1.1x
  set(AntiPattern::kGodTable, 1.5, 1.2, 3.0, 0.0, 0, 0);

  // Physical design.
  set(AntiPattern::kRoundingErrors, 0.0, 0.0, 1.0, 0.0, 0, 1);
  set(AntiPattern::kEnumeratedTypes, 0.0, 10.0, 2.0, 1.0, 0, 0);        // Fig 7b row
  set(AntiPattern::kExternalDataStorage, 0.0, 0.0, 2.0, 0.0, 1, 1);
  set(AntiPattern::kIndexOveruse, 1.0, 10.0, 1.0, 1.0, 0, 0);           // Fig 8a: ~10x
  set(AntiPattern::kIndexUnderuse, 1.5, 0.0, 0.0, 0.0, 0, 0);           // Fig 7b row
  set(AntiPattern::kCloneTable, 1.5, 1.0, 4.0, 0.0, 1, 1);

  // Query APs.
  set(AntiPattern::kColumnWildcard, 1.3, 0.0, 1.0, 0.0, 0, 1);
  set(AntiPattern::kConcatenateNulls, 0.0, 0.0, 0.5, 0.0, 0, 1);
  set(AntiPattern::kOrderingByRand, 5.0, 0.0, 0.0, 0.0, 0, 0);
  set(AntiPattern::kPatternMatching, 10.0, 0.0, 0.5, 0.0, 0, 0);
  set(AntiPattern::kImplicitColumns, 0.0, 0.0, 2.0, 0.0, 1, 0);
  set(AntiPattern::kDistinctAndJoin, 2.0, 0.0, 1.0, 0.0, 0, 0);
  set(AntiPattern::kTooManyJoins, 3.0, 0.0, 0.5, 0.0, 0, 0);
  set(AntiPattern::kReadablePassword, 0.0, 0.0, 0.5, 0.0, 1, 1);

  // Data APs.
  set(AntiPattern::kMissingTimezone, 0.0, 0.0, 1.0, 0.0, 0, 1);
  set(AntiPattern::kIncorrectDataType, 1.5, 0.0, 1.0, 2.0, 0, 0);
  set(AntiPattern::kDenormalizedTable, 1.5, 0.0, 1.0, 3.0, 0, 0);
  set(AntiPattern::kInformationDuplication, 0.0, 0.0, 2.0, 1.0, 1, 1);
  set(AntiPattern::kRedundantColumn, 0.0, 0.0, 0.5, 2.0, 0, 0);
  set(AntiPattern::kNoDomainConstraint, 0.0, 0.0, 1.0, 1.0, 1, 0);
  return m;
}

}  // namespace

MetricsStore MetricsStore::Default() {
  static const MetricsStore kDefaults = BuildDefaults();
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
