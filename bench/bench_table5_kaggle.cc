// Tables 5 & 6: sqlcheck's data-analysis rules over 31 Kaggle-style
// databases — AP count and classes per database (queries are NOT available,
// exactly as in §8.4's data analysis experiment; paper total: 200 APs).
#include <cstdio>
#include <map>
#include <set>

#include "core/session.h"
#include "workload/kaggle.h"

using namespace sqlcheck;

int main() {
  std::printf("Tables 5 & 6 — data-analysis detection on Kaggle-style databases\n");
  std::printf("%-36s %6s  %s\n", "Database", "# AP", "Detected classes");
  int total = 0;
  for (const auto& spec : workload::KaggleSpecs()) {
    auto db = workload::SynthesizeKaggleDatabase(spec);
    SqlCheckOptions options;
    options.suggest_fixes = false;
    options.detector.intra_query = false;  // data rules only
    AnalysisSession session(options);
    session.AttachDatabase(db.get());
    Report detections = session.Snapshot();

    std::set<AntiPattern> classes;
    for (const auto& f : detections.findings) classes.insert(f.ranked.detection.type);
    std::string names;
    for (AntiPattern type : classes) {
      if (!names.empty()) names += ", ";
      names += ApName(type);
    }
    std::printf("%-36s %6zu  %s\n", spec.name.c_str(), detections.size(), names.c_str());
    total += static_cast<int>(detections.size());
  }
  std::printf("%-36s %6d\n", "Total:", total);
  std::printf("\npaper total: 200 APs across 31 databases (data rules only)\n");
  return 0;
}
