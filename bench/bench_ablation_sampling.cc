// Ablation (§4.2): the data analyzer samples because profiling is the
// expensive part. Sweeps the per-table sample limit and reports profiling
// time vs whether the data rules still fire — small samples must already
// recover the detections.
#include <chrono>
#include <cstdio>

#include "core/session.h"
#include "workload/globaleaks.h"

using namespace sqlcheck;

int main() {
  Database db;
  workload::GlobaleaksOptions scale;
  scale.tenant_count = 2000;
  scale.users_per_tenant = 10;
  workload::Globaleaks::BuildWithAps(&db, scale);

  std::printf("Ablation — data-analyzer sample size (Tenants rows: %zu)\n",
              db.GetTable("Tenants")->live_row_count());
  std::printf("%10s %14s %10s %12s\n", "sample", "profile_ms", "MVA hit", "detections");

  for (size_t sample : {size_t{10}, size_t{50}, size_t{200}, size_t{1000}, size_t{0}}) {
    SqlCheckOptions options;
    options.suggest_fixes = false;
    options.data_analyzer.sample_limit = sample;
    options.detector.intra_query = false;
    AnalysisSession session(options);

    auto start = std::chrono::steady_clock::now();
    session.AttachDatabase(&db);  // profiles the tables
    Report detections = session.Snapshot();
    auto elapsed = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();

    bool mva = false;
    for (const auto& f : detections.findings) {
      if (f.ranked.detection.type == AntiPattern::kMultiValuedAttribute) mva = true;
    }
    std::printf("%10s %14.2f %10s %12zu\n",
                sample == 0 ? "full" : std::to_string(sample).c_str(), elapsed,
                mva ? "yes" : "NO", detections.size());
  }
  std::printf("\nexpected shape: detections stable across sample sizes while profile "
              "time grows toward the full scan\n");
  return 0;
}
