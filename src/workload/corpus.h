#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rules/rule.h"

namespace sqlcheck::workload {

/// \brief One embedded SQL statement with its seeded ground truth.
struct LabeledStatement {
  std::string sql;
  std::vector<AntiPattern> truth;  ///< APs genuinely present (may be empty).
};

/// \brief One synthetic "repository": a host-language source file carrying
/// string-quoted embedded SQL, plus the per-statement ground truth.
struct CorpusRepo {
  std::string name;
  std::string source;  ///< Python-ish file contents (fed to the extractor).
  std::vector<LabeledStatement> statements;
};

struct CorpusOptions {
  int repo_count = 200;
  uint64_t seed = 1406;  ///< Homage to the paper's 1406 repositories.
};

/// \brief The synthetic query benchmark standing in for the paper's GitHub
/// corpus (§8.1). Statements carry ground-truth labels so precision/recall
/// can be computed mechanically — the substitute for the authors' manual
/// analysis. The generator seeds:
///   * true positives for all query-detectable AP types, with realistic
///     variants (e.g. several multi-valued-attribute idioms);
///   * false-positive bait for dbdeo's context-free regexes (identifiers
///     containing type keywords, t1/t2 aliases, prefix LIKEs, indexed
///     columns filtered in other statements, lone numeric-suffix tables);
///   * false-positive bait for sqlcheck's intra-query rules that only the
///     inter-query context resolves (prose columns queried with LIKE).
struct Corpus {
  std::vector<CorpusRepo> repos;

  std::vector<LabeledStatement> AllStatements() const;
  size_t StatementCount() const;
};

Corpus GenerateCorpus(const CorpusOptions& options = {});

/// \brief Precision/recall bookkeeping for one detector run against the
/// corpus ground truth, per AP type.
struct DetectionScore {
  int true_positives = 0;
  int false_positives = 0;
  int false_negatives = 0;

  double Precision() const {
    int denom = true_positives + false_positives;
    return denom == 0 ? 0.0 : static_cast<double>(true_positives) / denom;
  }
  double Recall() const {
    int denom = true_positives + false_negatives;
    return denom == 0 ? 0.0 : static_cast<double>(true_positives) / denom;
  }
};

/// \brief Scores detections against the corpus truth. Detections are matched
/// to statements by raw SQL text; `types` restricts scoring to a subset (as
/// Table 2 does) — pass empty to score every type.
std::map<AntiPattern, DetectionScore> ScoreDetections(
    const Corpus& corpus, const std::vector<Detection>& detections,
    const std::vector<AntiPattern>& types);

}  // namespace sqlcheck::workload
