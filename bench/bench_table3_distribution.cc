// Table 3 + the §8.1 headline counts: the distribution of APs detected by
// dbdeo (D) vs sqlcheck (S) across (a) the GitHub-style corpus, (b) the user
// study statements, and (c) the Kaggle-style databases (S only, data rules).
// Also reports the three detector configurations of §8.1: dbdeo, sqlcheck
// intra-only (more detections, more FPs), sqlcheck intra+inter (fewer,
// cleaner) — the paper's 86656 -> 63058 contraction, at our corpus scale.
#include <cstdio>
#include <map>

#include "baseline/dbdeo.h"
#include "detect.h"
#include "sql/extractor.h"
#include "workload/corpus.h"
#include "workload/kaggle.h"
#include "workload/user_study.h"

using namespace sqlcheck;

namespace {

std::map<AntiPattern, int> CountByType(const std::vector<Detection>& detections) {
  std::map<AntiPattern, int> out;
  for (const auto& d : detections) ++out[d.type];
  return out;
}

int Total(const std::map<AntiPattern, int>& counts) {
  int total = 0;
  for (const auto& [_, n] : counts) total += n;
  return total;
}

int DistinctTypes(const std::map<AntiPattern, int>& counts) {
  int types = 0;
  for (const auto& [_, n] : counts) {
    if (n > 0) ++types;
  }
  return types;
}

}  // namespace

int main() {
  // ---------------- GitHub-style corpus, three configurations --------------
  workload::CorpusOptions corpus_options;
  corpus_options.repo_count = 300;
  workload::Corpus corpus = GenerateCorpus(corpus_options);

  Dbdeo dbdeo;
  std::vector<Detection> d_git, s_git_intra, s_git_full;
  for (const auto& repo : corpus.repos) {
    std::vector<std::string> raw;
    for (const auto& found : sql::ExtractEmbeddedSql(repo.source)) {
      raw.push_back(found.sql);
    }

    DetectorConfig intra_cfg;
    intra_cfg.inter_query = false;
    intra_cfg.data_analysis = false;
    DetectorConfig full_cfg;
    full_cfg.data_analysis = false;

    for (auto& d : DetectWorkload(raw, intra_cfg)) s_git_intra.push_back(std::move(d));
    for (auto& d : DetectWorkload(raw, full_cfg)) s_git_full.push_back(std::move(d));
    for (auto& d : dbdeo.CheckAll(raw)) d_git.push_back(std::move(d));
  }

  // ---------------- user study statements ---------------------------------
  auto participants = workload::GenerateUserStudy();
  std::vector<Detection> d_study, s_study;
  size_t study_statements = 0;
  for (const auto& p : participants) {
    study_statements += p.statements.size();
    DetectorConfig cfg;
    cfg.data_analysis = false;
    for (auto& d : DetectWorkload(p.statements, cfg)) s_study.push_back(std::move(d));
    for (auto& d : dbdeo.CheckAll(p.statements)) d_study.push_back(std::move(d));
  }

  // ---------------- Kaggle databases (data rules only) ---------------------
  std::vector<Detection> s_kaggle;
  for (const auto& spec : workload::KaggleSpecs()) {
    auto db = workload::SynthesizeKaggleDatabase(spec);
    DetectorConfig cfg;
    cfg.intra_query = false;  // data analysis only, as in §8.4
    for (auto& d : DetectWorkload({}, cfg, db.get())) s_kaggle.push_back(std::move(d));
  }

  auto git_d = CountByType(d_git);
  auto git_s = CountByType(s_git_full);
  auto study_d = CountByType(d_study);
  auto study_s = CountByType(s_study);
  auto kaggle_s = CountByType(s_kaggle);

  std::printf("Table 3 — Distribution of APs (corpus: %d repos, %zu stmts; study: %zu "
              "participants, %zu stmts; kaggle: %zu DBs)\n",
              corpus_options.repo_count, corpus.StatementCount(), participants.size(),
              study_statements, workload::KaggleSpecs().size());
  std::printf("%-26s %8s %8s | %8s %8s | %8s\n", "Anti-Pattern", "GitHub-D", "GitHub-S",
              "Study-D", "Study-S", "Kaggle-S");
  for (int t = 0; t < kAntiPatternCount; ++t) {
    AntiPattern type = static_cast<AntiPattern>(t);
    int gd = git_d[type], gs = git_s[type];
    int sd = study_d[type], ss = study_s[type];
    int ks = kaggle_s[type];
    if (gd + gs + sd + ss + ks == 0) continue;
    std::printf("%-26s %8d %8d | %8d %8d | %8d\n", ApName(type), gd, gs, sd, ss, ks);
  }
  std::printf("%-26s %8d %8d | %8d %8d | %8d\n", "Total:", Total(git_d), Total(git_s),
              Total(study_d), Total(study_s), Total(kaggle_s));

  std::printf("\n§8.1 configuration sweep over the corpus:\n");
  std::printf("  dbdeo:                    %5d detections, %2d AP types\n",
              Total(git_d), DistinctTypes(git_d));
  auto intra_counts = CountByType(s_git_intra);
  std::printf("  sqlcheck (intra only):    %5d detections, %2d AP types\n",
              Total(intra_counts), DistinctTypes(intra_counts));
  std::printf("  sqlcheck (intra+inter):   %5d detections, %2d AP types\n",
              Total(git_s), DistinctTypes(git_s));
  std::printf("  paper shape: intra-only > intra+inter > dbdeo, with sqlcheck covering "
              "more AP types than dbdeo: %s\n",
              (Total(intra_counts) > Total(git_s) && Total(git_s) > Total(git_d) &&
               DistinctTypes(git_s) > DistinctTypes(git_d))
                  ? "reproduced"
                  : "NOT reproduced");
  return 0;
}
