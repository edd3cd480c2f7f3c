// Corpus-scale scan: cold vs warm `sqlcheck scan` over a generated
// multi-repo corpus on disk. The corpus generator's repositories are laid
// out as a real directory tree (one queries.sql per repo; every fourth repo
// additionally ships its Python-ish source file, so the embedded-SQL
// extractor path is part of the measurement). Three configurations run over
// the same tree:
//
//   cold      fresh fingerprint store each rep (the store file is deleted
//             before the rep, so every repository is parsed and analyzed)
//   warm      store persisted from the cold run (every repository replays
//             whole from its manifest; zero analyses, zero file opens)
//   disabled  no store at all (the store-less scan cost, for reference)
//
// Each repo's queries.sql concatenates several corpus seed variants so files
// carry realistic statement counts (a dump with a handful of statements is
// dominated by per-file syscall cost on either path and measures the
// filesystem, not the store).
//
// The report digests of all three MUST be byte-identical — that identity is
// the store's whole soundness contract and is checked unconditionally, like
// the digest gates in the other benches. The warm run must additionally
// serve every repository from its manifest: one manifest hit per repository
// and no miss, every file and statement replayed, nothing analyzed. With
// --gate (Release CI) the warm scan must clear 5x the cold scan.
//
// On failure of any check the bench refuses to write BENCH_scan.json — a
// red run must not leave an artifact that upload steps could mistake for a
// measurement — and exits 1.
//
//   $ ./bench_corpus_scan [repo_count] [--gate]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "scan/scanner.h"
#include "workload/corpus.h"

using namespace sqlcheck;

namespace {

namespace fs = std::filesystem;

constexpr double kWarmSpeedupFloor = 5.0;
/// Seed variants concatenated into each repo's queries.sql (~340 statements
/// per file at the generator's ~14 statements per repo per seed).
constexpr int kSeedVariants = 24;

struct RunResult {
  double best_seconds = 1e100;
  uint64_t digest = 0;
  scan::ScanReport report;
  scan::ScanSummary summary;  ///< From the last rep.
};

/// Runs one scan configuration `reps` times and keeps the best wall time —
/// the minimum is the noise-robust estimator for a deterministic workload.
/// `prepare` runs before each rep outside the timed region (the cold
/// configuration deletes the store file there).
template <typename Prepare>
bool RunScans(const std::string& root, const std::string& store_path, int reps,
              Prepare&& prepare, RunResult* out) {
  for (int r = 0; r < reps; ++r) {
    prepare();
    scan::ScanOptions options;
    options.store_path = store_path;
    scan::CorpusScanner scanner(options);
    Result<scan::ScanReport> result = scanner.Scan(root);
    if (!result.ok()) {
      std::fprintf(stderr, "FAIL: scan: %s\n", result.message().c_str());
      return false;
    }
    uint64_t digest = scan::DigestScanReport(result.value());
    if (r == 0) {
      out->digest = digest;
      out->report = std::move(result.value());
    } else if (digest != out->digest) {
      std::fprintf(stderr, "FAIL: rep %d digest %llu != rep 0 digest %llu\n", r,
                   static_cast<unsigned long long>(digest),
                   static_cast<unsigned long long>(out->digest));
      return false;
    }
    out->summary = scanner.summary();
    if (!out->summary.store.warning.empty()) {
      std::fprintf(stderr, "FAIL: unexpected store warning: %s\n",
                   out->summary.store.warning.c_str());
      return false;
    }
    if (out->summary.seconds < out->best_seconds) {
      out->best_seconds = out->summary.seconds;
    }
  }
  return true;
}

bool WriteCorpusTree(const std::vector<workload::Corpus>& variants,
                     const fs::path& root) {
  const workload::Corpus& base = variants.front();
  for (size_t r = 0; r < base.repos.size(); ++r) {
    fs::path dir = root / base.repos[r].name;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "FAIL: mkdir %s: %s\n", dir.string().c_str(),
                   ec.message().c_str());
      return false;
    }
    std::ofstream sql(dir / "queries.sql");
    for (const workload::Corpus& corpus : variants) {
      for (const workload::LabeledStatement& stmt : corpus.repos[r].statements) {
        sql << stmt.sql << ";\n";
      }
    }
    if (!sql) return false;
    if (r % 4 == 0) {
      std::ofstream src(dir / "app.py");
      src << base.repos[r].source;
      if (!src) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int repo_count = 60;
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0) {
      gate = true;
    } else {
      repo_count = std::atoi(argv[i]);
      if (repo_count <= 0) {
        std::fprintf(stderr, "usage: %s [repo_count] [--gate]\n", argv[0]);
        return 2;
      }
    }
  }

  char tmpl[] = "/tmp/sqlcheck_bench_scan_XXXXXX";
  char* tmp = mkdtemp(tmpl);
  if (tmp == nullptr) {
    std::fprintf(stderr, "FAIL: mkdtemp\n");
    return 1;
  }
  fs::path root(tmp);
  std::string store_path = root.string() + ".store";

  std::vector<workload::Corpus> variants;
  variants.reserve(kSeedVariants);
  for (int v = 0; v < kSeedVariants; ++v) {
    workload::CorpusOptions options;
    options.repo_count = repo_count;
    options.seed = 1406 + static_cast<uint64_t>(v);
    variants.push_back(workload::GenerateCorpus(options));
  }
  bool ok = WriteCorpusTree(variants, root);

  RunResult cold, warm, disabled;
  if (ok) {
    ok = RunScans(root.string(), store_path, 3,
                  [&] { fs::remove(store_path); }, &cold);
  }
  if (ok && (cold.summary.store_reused != 0 || cold.summary.store.appended == 0)) {
    std::fprintf(stderr, "FAIL: cold scan was not cold (reused=%llu appended=%llu)\n",
                 static_cast<unsigned long long>(cold.summary.store_reused),
                 static_cast<unsigned long long>(cold.summary.store.appended));
    ok = false;
  }
  // The store left behind by the last cold rep feeds the warm runs.
  if (ok) ok = RunScans(root.string(), store_path, 3, [] {}, &warm);
  // A fully-warm scan replays every repository whole from its manifest: one
  // manifest hit per repository, no stale manifest, nothing analyzed.
  if (ok && (warm.summary.analyzed != 0 || warm.summary.store.file_misses != 0 ||
             warm.summary.store.file_hits != warm.report.repos ||
             warm.summary.files_reused != warm.report.files ||
             warm.summary.store_reused != warm.report.statements)) {
    std::fprintf(stderr,
                 "FAIL: warm scan not fully warm (analyzed=%llu manifest hits=%llu "
                 "misses=%llu of %llu repos, files_reused=%llu/%llu, "
                 "statements replayed=%llu/%llu)\n",
                 static_cast<unsigned long long>(warm.summary.analyzed),
                 static_cast<unsigned long long>(warm.summary.store.file_hits),
                 static_cast<unsigned long long>(warm.summary.store.file_misses),
                 static_cast<unsigned long long>(warm.report.repos),
                 static_cast<unsigned long long>(warm.summary.files_reused),
                 static_cast<unsigned long long>(warm.report.files),
                 static_cast<unsigned long long>(warm.summary.store_reused),
                 static_cast<unsigned long long>(warm.report.statements));
    ok = false;
  }
  if (ok) ok = RunScans(root.string(), std::string(), 1, [] {}, &disabled);

  // Soundness: the three configurations must report byte-identically. This
  // runs on every build type, gated or not.
  if (ok && (warm.digest != cold.digest || disabled.digest != cold.digest)) {
    std::fprintf(stderr,
                 "FAIL: digest mismatch cold=%llu warm=%llu disabled=%llu\n",
                 static_cast<unsigned long long>(cold.digest),
                 static_cast<unsigned long long>(warm.digest),
                 static_cast<unsigned long long>(disabled.digest));
    ok = false;
  }

  double speedup = ok ? cold.best_seconds / warm.best_seconds : 0.0;
  if (ok) {
    std::printf("corpus scan (repo_count=%d, %llu files, %llu statements, "
                "%llu unique, %llu findings)\n",
                repo_count, static_cast<unsigned long long>(cold.report.files),
                static_cast<unsigned long long>(cold.report.statements),
                static_cast<unsigned long long>(cold.report.unique_statements),
                static_cast<unsigned long long>(cold.report.findings));
    std::printf("  cold      %8.3f s  (fresh store, full analysis)\n",
                cold.best_seconds);
    std::printf("  warm      %8.3f s  (%5.2fx cold; %llu repos / %llu files replayed, "
                "0 analyses)\n",
                warm.best_seconds, speedup,
                static_cast<unsigned long long>(warm.report.repos),
                static_cast<unsigned long long>(warm.summary.files_reused));
    std::printf("  disabled  %8.3f s  (no store)\n", disabled.best_seconds);
    std::printf("  store     %llu entries, %llu bytes\n",
                static_cast<unsigned long long>(warm.summary.store.entries),
                static_cast<unsigned long long>(warm.summary.store.bytes));
    std::printf("  digests   identical across cold/warm/disabled\n");
  }

  bool gate_passed = true;
  if (ok && gate && speedup < kWarmSpeedupFloor) {
    std::fprintf(stderr, "FAIL: warm scan %.2fx cold < %.1fx floor\n", speedup,
                 kWarmSpeedupFloor);
    gate_passed = false;
  }

  std::error_code ec;
  fs::remove_all(root, ec);
  fs::remove(store_path, ec);

  if (!ok || !gate_passed) {
    // A red run must not leave a plausible-looking artifact behind.
    std::remove("BENCH_scan.json");
    std::fprintf(stderr, "refusing to write BENCH_scan.json: checks failed\n");
    return 1;
  }

  FILE* f = std::fopen("BENCH_scan.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write BENCH_scan.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"corpus_scan\",\n"
               "  \"repo_count\": %d,\n"
               "  \"seed_variants\": %d,\n"
               "  \"files\": %llu,\n"
               "  \"statements\": %llu,\n"
               "  \"unique_statements\": %llu,\n"
               "  \"findings\": %llu,\n"
               "  \"hardware_threads\": %u,\n"
               "  \"cold_s\": %.4f,\n"
               "  \"warm_s\": %.4f,\n"
               "  \"disabled_s\": %.4f,\n"
               "  \"warm_speedup\": %.2f,\n"
               "  \"store_entries\": %llu,\n"
               "  \"store_bytes\": %llu,\n"
               "  \"digests_identical\": true,\n"
               "  \"gate\": %s\n"
               "}\n",
               repo_count, kSeedVariants,
               static_cast<unsigned long long>(cold.report.files),
               static_cast<unsigned long long>(cold.report.statements),
               static_cast<unsigned long long>(cold.report.unique_statements),
               static_cast<unsigned long long>(cold.report.findings),
               std::thread::hardware_concurrency(), cold.best_seconds,
               warm.best_seconds, disabled.best_seconds, speedup,
               static_cast<unsigned long long>(warm.summary.store.entries),
               static_cast<unsigned long long>(warm.summary.store.bytes),
               gate ? "\"pass\"" : "\"not-run\"");
  std::fclose(f);
  return 0;
}
