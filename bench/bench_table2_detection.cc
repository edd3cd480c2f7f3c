// Table 2: detection comparison between sqlcheck (S) and dbdeo (D) on the
// query benchmark, for the six AP classes the paper audits manually:
// S-only / D-only / Both counts plus TP/FP per tool. Ground truth comes from
// the corpus generator's seeded labels (the substitute for the paper's
// manual analysis). Headline to reproduce: sqlcheck has substantially fewer
// false positives (paper: 48%) and fewer false negatives (20%) than dbdeo.
#include <cstdio>
#include <map>
#include <set>

#include "baseline/dbdeo.h"
#include "detect.h"
#include "rules/registry.h"
#include "sql/extractor.h"
#include "workload/corpus.h"

using namespace sqlcheck;
using workload::Corpus;
using workload::CorpusOptions;
using workload::DetectionScore;

namespace {

const std::vector<AntiPattern>& Table2Types() {
  static const std::vector<AntiPattern>* kTypes = new std::vector<AntiPattern>{
      AntiPattern::kPatternMatching, AntiPattern::kGodTable,
      AntiPattern::kEnumeratedTypes, AntiPattern::kRoundingErrors,
      AntiPattern::kDataInMetadata,  AntiPattern::kAdjacencyList,
  };
  return *kTypes;
}

/// (query, type) pair sets for the S/D/Both breakdown.
std::set<std::pair<std::string, int>> PairSet(const std::vector<Detection>& detections) {
  std::set<std::pair<std::string, int>> out;
  for (const auto& d : detections) {
    out.emplace(d.query, static_cast<int>(d.type));
  }
  return out;
}

}  // namespace

int main() {
  CorpusOptions options;
  options.repo_count = 300;
  Corpus corpus = GenerateCorpus(options);

  // Per-repo runs: sqlcheck runs one session per repository (inter-query
  // context is repo-local, as in the paper), dbdeo is statement-local.
  std::vector<Detection> sqlcheck_detections;
  std::vector<Detection> dbdeo_detections;
  Dbdeo dbdeo;
  for (const auto& repo : corpus.repos) {
    std::vector<std::string> raw;
    // Statements arrive through the embedded-SQL extractor, as in §8.1.
    for (const auto& found : sql::ExtractEmbeddedSql(repo.source)) {
      raw.push_back(found.sql);
    }
    DetectorConfig config;
    config.data_analysis = false;  // GitHub corpora ship queries, not data
    for (auto& d : DetectWorkload(raw, config)) {
      sqlcheck_detections.push_back(std::move(d));
    }
    for (auto& d : dbdeo.CheckAll(raw)) {
      dbdeo_detections.push_back(std::move(d));
    }
  }

  auto s_pairs = PairSet(sqlcheck_detections);
  auto d_pairs = PairSet(dbdeo_detections);
  auto s_scores = ScoreDetections(corpus, sqlcheck_detections, Table2Types());
  auto d_scores = ScoreDetections(corpus, dbdeo_detections, Table2Types());

  std::printf("Table 2 — Detection of Anti-Patterns (corpus: %d repos, %zu statements)\n",
              options.repo_count, corpus.StatementCount());
  std::printf("%-18s %6s %6s %6s %6s %6s %6s %6s\n", "AP Name", "S", "D", "Both", "TP-S",
              "FP-S", "TP-D", "FP-D");

  int total_s = 0, total_d = 0, total_both = 0;
  DetectionScore total_sq, total_db;
  for (AntiPattern type : Table2Types()) {
    int t = static_cast<int>(type);
    int s_only = 0, d_only = 0, both = 0;
    for (const auto& pair : s_pairs) {
      if (pair.second != t) continue;
      if (d_pairs.count(pair) > 0) ++both;
      else ++s_only;
    }
    for (const auto& pair : d_pairs) {
      if (pair.second == t && s_pairs.count(pair) == 0) ++d_only;
    }
    const DetectionScore& ss = s_scores[type];
    const DetectionScore& ds = d_scores[type];
    std::printf("%-18s %6d %6d %6d %6d %6d %6d %6d\n", ApName(type), s_only, d_only, both,
                ss.true_positives, ss.false_positives, ds.true_positives,
                ds.false_positives);
    total_s += s_only;
    total_d += d_only;
    total_both += both;
    total_sq.true_positives += ss.true_positives;
    total_sq.false_positives += ss.false_positives;
    total_sq.false_negatives += ss.false_negatives;
    total_db.true_positives += ds.true_positives;
    total_db.false_positives += ds.false_positives;
    total_db.false_negatives += ds.false_negatives;
  }
  std::printf("%-18s %6d %6d %6d %6d %6d %6d %6d\n", "Total:", total_s, total_d,
              total_both, total_sq.true_positives, total_sq.false_positives,
              total_db.true_positives, total_db.false_positives);

  double fp_reduction =
      total_db.false_positives == 0
          ? 0.0
          : 100.0 * (total_db.false_positives - total_sq.false_positives) /
                total_db.false_positives;
  double fn_reduction =
      total_db.false_negatives == 0
          ? 0.0
          : 100.0 * (total_db.false_negatives - total_sq.false_negatives) /
                total_db.false_negatives;
  std::printf("\nsqlcheck vs dbdeo: %.0f%% fewer false positives (paper: 48%%), "
              "%.0f%% fewer false negatives (paper: 20%%)\n",
              fp_reduction, fn_reduction);
  std::printf("sqlcheck precision %.2f recall %.2f | dbdeo precision %.2f recall %.2f\n",
              total_sq.Precision(), total_sq.Recall(), total_db.Precision(),
              total_db.Recall());
  return 0;
}
