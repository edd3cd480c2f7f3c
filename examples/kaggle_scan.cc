// Data-only analysis (§8.4 "Data Analysis"): no queries at all — attach a
// database and let the data rules profile it, exactly like the paper's scan
// of 31 Kaggle SQLite files. Scans two of the synthesized datasets.
//
//   $ ./kaggle_scan
#include <cstdio>

#include "core/sqlcheck.h"
#include "workload/kaggle.h"

using namespace sqlcheck;

int main() {
  int scanned = 0;
  for (const auto& spec : workload::KaggleSpecs()) {
    if (spec.name != "The History of Baseball" && spec.name != "Soccer Dataset") continue;
    auto db = workload::SynthesizeKaggleDatabase(spec);

    SqlCheckOptions options;
    options.detector.intra_query = false;  // data rules only — no queries exist
    SqlCheck checker(options);
    checker.AttachDatabase(db.get());
    Report report = checker.Run();

    std::printf("== %s: %zu tables, %zu findings ==\n", spec.name.c_str(),
                db->table_count(), report.size());
    std::printf("%s\n", report.ToText(5).c_str());
    ++scanned;
  }
  return scanned == 2 ? 0 : 1;
}
