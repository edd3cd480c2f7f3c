// Corpus scanner (scan/scanner.h) end-to-end: the cold == warm ==
// store-disabled report identity over a real directory tree, repository
// manifest staleness (edit, delete, add) and recovery, compaction down to
// exactly a cold store, every store-degradation path (corruption, foreign
// file, lock contention, injected open/commit/analysis faults) falling back
// to a cold scan with the SAME report, the auto job clamp, and scan findings
// equal to file mode's over the same statements. The scan's soundness
// contract is that the store can only ever change how fast a report is
// produced, never a byte of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <stdlib.h>
#include <sys/stat.h>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "core/emit.h"
#include "core/session.h"
#include "core/sqlcheck.h"
#include "persist/fingerprint_store.h"
#include "ranking/model.h"
#include "rules/registry.h"
#include "scan/scanner.h"
#include "server/wire.h"
#include "sql/extractor.h"
#include "sql/fingerprint.h"
#include "sql/lexer.h"
#include "workload/corpus.h"

namespace sqlcheck::scan {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string SampleWorkload() {
  return ReadFile(SQLCHECK_SOURCE_DIR "/examples/sample_workload.sql");
}

/// Size and XXH64 of the cold store ScanTest.ColdStoreFileIsPinned writes.
constexpr uint64_t kColdStoreBytes = 72904;
constexpr uint64_t kColdStoreXxh64 = 0x8cdbede47bd30364ull;

class ScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailpointRegistry::Instance().DisarmAll();
    char tmpl[] = "/tmp/sqlcheck_scan_XXXXXX";
    char* dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    root_ = dir;
    store_ = root_ + ".store";
    WriteFile("alpha/queries.sql",
              "SELECT * FROM users;\n"
              "SELECT name FROM users WHERE tag_ids LIKE '%,7,%';\n"
              "SELECT id, name FROM users WHERE id = 3;\n");
    WriteFile("alpha/app.py",
              "import db\n"
              "def load(conn):\n"
              "    return conn.execute(\"SELECT * FROM orders WHERE status = 'open'\")\n");
    WriteFile("beta/queries.sql",
              "SELECT * FROM users;\n"
              "CREATE TABLE t (id INT, payload VARCHAR(10));\n");
    // Dot-directories are skipped entirely — this file must never be scanned.
    WriteFile(".hidden/secret.sql", "SELECT * FROM users;\n");
  }
  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    std::error_code ec;
    fs::remove_all(root_, ec);
    fs::remove(store_, ec);
  }

  void WriteFile(const std::string& rel, const std::string& content) {
    fs::path p = fs::path(root_) / rel;
    std::error_code ec;
    fs::create_directories(p.parent_path(), ec);
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << content;
    ASSERT_TRUE(out.good());
  }

  void AppendToFile(const std::string& rel, const std::string& content) {
    std::ofstream out(fs::path(root_) / rel, std::ios::binary | std::ios::app);
    out << content;
    ASSERT_TRUE(out.good());
  }

  /// Empties the scan root, for tests that bring their own tree.
  void ClearTree() {
    std::error_code ec;
    fs::remove_all(root_, ec);
    fs::create_directories(root_, ec);
  }

  struct Run {
    ScanReport report;
    ScanSummary summary;
    uint64_t digest = 0;
    std::string text;
  };

  Run Scan(const std::string& store_path, int jobs = 0) {
    ScanOptions options;
    options.store_path = store_path;
    options.jobs = jobs;
    CorpusScanner scanner(options);
    Result<ScanReport> result = scanner.Scan(root_);
    EXPECT_TRUE(result.ok()) << result.message();
    Run run;
    if (result.ok()) {
      run.report = std::move(result.value());
      run.digest = DigestScanReport(run.report);
      run.text = run.report.ToText() + run.report.ToJson();
    }
    run.summary = scanner.summary();
    return run;
  }

  /// After a warm store, one `change` to repository `repo`: the next scan
  /// re-analyzes exactly that repository, replays every other one, and
  /// reports exactly what a store-less scan of the changed tree reports; the
  /// scan after that is fully warm again.
  void ExpectOnlyRepoReanalyzed(const std::string& repo,
                                const std::function<void()>& change) {
    SCOPED_TRACE(repo);
    Scan(store_);
    change();
    const Run changed = Scan(store_);
    const Run reference = Scan("");
    uint64_t repo_stmts = 0;
    for (const RepoRow& row : changed.report.repo_rows) {
      if (row.name == repo) repo_stmts = row.statements;
    }
    EXPECT_GT(repo_stmts, 0u);
    EXPECT_EQ(changed.summary.analyzed, repo_stmts);
    EXPECT_EQ(changed.summary.store_reused, changed.report.statements - repo_stmts);
    EXPECT_EQ(changed.summary.store.file_misses, 1u);
    EXPECT_EQ(changed.digest, reference.digest);
    EXPECT_EQ(changed.text, reference.text);

    const Run warm = Scan(store_);
    EXPECT_EQ(warm.summary.analyzed, 0u);
    EXPECT_EQ(warm.summary.files_reused, warm.report.files);
    EXPECT_EQ(warm.text, reference.text);
  }

  std::string root_;
  std::string store_;
};

TEST_F(ScanTest, ColdWarmDisabledReportsAreIdentical) {
  Run cold = Scan(store_);
  EXPECT_EQ(cold.report.files, 3u);   // the dot-dir file is invisible
  EXPECT_EQ(cold.report.repos, 2u);
  EXPECT_GT(cold.report.statements, 0u);
  EXPECT_GT(cold.report.findings, 0u);
  EXPECT_EQ(cold.summary.store_reused, 0u);
  EXPECT_GT(cold.summary.store.appended, 0u);
  EXPECT_GT(cold.summary.store.appended_files, 0u);
  EXPECT_TRUE(cold.summary.store.warning.empty()) << cold.summary.store.warning;

  Run warm = Scan(store_);
  // Fully warm: every repository replays whole from its manifest — the scan
  // never opens a file and analyzes nothing.
  EXPECT_EQ(warm.summary.files_reused, warm.report.files);
  EXPECT_EQ(warm.summary.analyzed, 0u);
  EXPECT_EQ(warm.summary.store.misses, 0u);
  EXPECT_EQ(warm.summary.store.file_misses, 0u);
  EXPECT_GT(warm.summary.store_reused, 0u);

  Run disabled = Scan("");
  EXPECT_FALSE(disabled.summary.store_enabled);

  EXPECT_EQ(cold.digest, warm.digest);
  EXPECT_EQ(cold.digest, disabled.digest);
  EXPECT_EQ(cold.text, warm.text);
  EXPECT_EQ(cold.text, disabled.text);

  std::string summary;
  EXPECT_TRUE(persist::FingerprintStore::Verify(store_, &summary).ok()) << summary;
}

TEST_F(ScanTest, ReportDigestOfOrdinaryNamesIsPinned) {
  Run run = Scan("");
  EXPECT_EQ(run.digest, 10929388342558542233ull) << run.report.ToJson();
}

TEST_F(ScanTest, JsonReportKeepsHostileRepoNamesWhole) {
  // Directory names may hold quotes and control bytes; escaping expands
  // this one from 200 to 800 bytes.
  std::string name;
  for (int i = 0; i < 200; ++i) name += i % 2 == 0 ? '"' : '\x01';
  WriteFile(name + "/queries.sql", "SELECT * FROM users;\n");
  Run run = Scan("");
  ASSERT_EQ(run.report.repos, 3u);
  const std::string json = run.report.ToJson();
  // The whole report is valid JSON: the wire parser accepts it as the value
  // of an unknown request member.
  server::Request parsed =
      server::ParseRequest("{\"op\": \"scan\", \"report\": " + json + "}");
  EXPECT_TRUE(parsed.ok) << parsed.error_message;
  EXPECT_NE(json.find("{\"name\": \"" + JsonEscape(name) + "\", \"files\": 1, "),
            std::string::npos)
      << json;
}

TEST_F(ScanTest, EditedFileReanalyzesOnlyItsRepo) {
  ExpectOnlyRepoReanalyzed("beta", [&] {
    AppendToFile("beta/queries.sql", "DELETE FROM t WHERE id = 1;\n");
  });
}

TEST_F(ScanTest, DeletedFileReanalyzesOnlyItsRepo) {
  // The repository's other file keeps its size and mtime: only the file
  // set changed, and that alone must invalidate the manifest.
  ExpectOnlyRepoReanalyzed("alpha", [&] {
    fs::remove(fs::path(root_) / "alpha/app.py");
  });
}

TEST_F(ScanTest, AddedFileReanalyzesOnlyItsRepo) {
  ExpectOnlyRepoReanalyzed("alpha", [&] {
    WriteFile("alpha/schema.sql",
              "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(20), "
              "tag_ids TEXT);\n");
  });
}

TEST_F(ScanTest, WorkloadFindingsStayWithTheirRepo) {
  // The same query in two repositories: only the first declares the table
  // it filters without an index, so only there does Index Underuse fire.
  // That record must not be served to the second repository on replay.
  ClearTree();
  const std::string query = "SELECT name FROM users WHERE email = 'a@b.c';\n";
  WriteFile("a/schema.sql",
            "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(20), "
            "email VARCHAR(40));\n" +
                query);
  WriteFile("b/queries.sql", query);
  const Run cold = Scan(store_);
  const size_t underuse = static_cast<size_t>(AntiPattern::kIndexUnderuse);
  ASSERT_GT(cold.report.rules[underuse].repos, 0u);
  const Run warm = Scan(store_);
  EXPECT_EQ(warm.summary.analyzed, 0u);
  EXPECT_EQ(warm.text, cold.text);
  EXPECT_EQ(warm.text, Scan("").text);
}

TEST_F(ScanTest, CompactedStoreEqualsColdStoreOfFinalTree) {
  // A repository with workload findings (its records are keyed by the
  // repository digest), edited twice: each edit strands the previous
  // generation of those records. Compaction must leave exactly what a cold
  // scan of the final tree writes.
  WriteFile("gamma/schema.sql", SampleWorkload());
  WriteFile("gamma/queries.sql", "SELECT name FROM users WHERE email = 'a@b.c';\n");
  Scan(store_);
  AppendToFile("gamma/queries.sql", "SELECT id FROM orders WHERE status = 'paid';\n");
  Scan(store_);
  AppendToFile("gamma/queries.sql", "SELECT total FROM orders WHERE user_id = 7;\n");
  const Run final_run = Scan(store_);

  const uint64_t ruleset =
      persist::FingerprintStore::RulesetHash(RuleRegistry::Default());
  std::string summary;
  ASSERT_TRUE(persist::FingerprintStore::Compact(store_, ruleset, &summary).ok());
  EXPECT_EQ(summary.find("dropped=0 "), std::string::npos) << summary;

  const std::string cold_path = store_ + ".cold";
  const Run cold = Scan(cold_path);
  EXPECT_EQ(cold.text, final_run.text);
  auto entries = [ruleset](const std::string& path) {
    persist::FingerprintStore store;
    EXPECT_TRUE(store.Open(path, ruleset).ok());
    const persist::StoreStats stats = store.stats();
    store.Close();
    return std::make_pair(stats.entries, stats.file_entries);
  };
  EXPECT_EQ(entries(store_), entries(cold_path));
  EXPECT_EQ(fs::file_size(store_), fs::file_size(cold_path));

  // And the compacted store still replays the whole tree.
  Run warm = Scan(store_);
  EXPECT_EQ(warm.summary.analyzed, 0u);
  EXPECT_EQ(warm.text, final_run.text);
  std::error_code ec;
  fs::remove(cold_path, ec);
}

TEST_F(ScanTest, CorruptStoreDegradesToColdWithIdenticalReport) {
  Run cold = Scan(store_);
  {
    // Flip a byte in the header: checksum mismatch, store rebuilt at open.
    std::fstream f(store_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(16);
    char c = 0;
    f.get(c);
    f.seekp(16);
    f.put(static_cast<char>(c ^ 0xFF));
  }
  Run degraded = Scan(store_);
  EXPECT_TRUE(degraded.summary.store_enabled);
  EXPECT_TRUE(degraded.summary.store.degraded);
  EXPECT_FALSE(degraded.summary.store.warning.empty());
  EXPECT_EQ(degraded.summary.store_reused, 0u);  // nothing survived to reuse
  EXPECT_EQ(degraded.digest, cold.digest);
  EXPECT_EQ(degraded.text, cold.text);

  // The rebuild left a valid store: the next scan is warm again.
  Run warm = Scan(store_);
  EXPECT_EQ(warm.summary.files_reused, warm.report.files);
  EXPECT_EQ(warm.digest, cold.digest);
}

TEST_F(ScanTest, MutatedStoreNeverChangesTheReport) {
  // Seeded mutations of a valid store: bit flips, truncation, zeroed spans,
  // a duplicated span, swapped 8-byte words. Whatever the bytes, a scan
  // reports exactly what a store-less scan does, and a store Verify accepts
  // is never rebuilt by the open (so one the open rebuilds fails Verify).
  WriteFile("gamma/schema.sql", SampleWorkload());
  WriteFile("gamma/queries.sql", "SELECT name FROM users WHERE email = 'a@b.c';\n");
  WriteFile("delta/app.py",
            "def q(conn):\n"
            "    conn.execute(\"SELECT * FROM orders ORDER BY RAND()\")\n");
  const Run reference = Scan("");
  Scan(store_);
  const std::string pristine = ReadFile(store_);
  std::mt19937_64 rng(24);
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  int rebuilt = 0;
  int accepted = 0;
  for (int i = 0; i < 250; ++i) {
    std::string raw = pristine;
    const size_t at = pick(raw.size());
    const size_t len = 1 + pick(std::min<size_t>(32, raw.size() - at));
    switch (i % 5) {
      case 0:
        raw[at] = static_cast<char>(raw[at] ^ (1 << pick(8)));
        break;
      case 1:
        raw.resize(at);
        break;
      case 2:
        raw.replace(at, len, len, '\0');
        break;
      case 3:
        raw.insert(pick(raw.size() + 1), raw.substr(at, len));
        break;
      default: {
        const size_t other = pick(raw.size() - 7);
        const size_t word = std::min(at, raw.size() - 8);
        std::string a = raw.substr(word, 8);
        std::string b = raw.substr(other, 8);
        raw.replace(other, 8, a);
        raw.replace(word, 8, b);
        break;
      }
    }
    SCOPED_TRACE("mutation " + std::to_string(i) + " at byte " + std::to_string(at));
    {
      std::ofstream out(store_, std::ios::binary | std::ios::trunc);
      out.write(raw.data(), static_cast<std::streamsize>(raw.size()));
    }
    const bool verified = persist::FingerprintStore::Verify(store_, nullptr).ok();
    const Run run = Scan(store_);
    EXPECT_EQ(run.digest, reference.digest);
    EXPECT_EQ(run.text, reference.text);
    EXPECT_FALSE(verified && run.summary.store.degraded) << run.summary.store.warning;
    rebuilt += run.summary.store.degraded ? 1 : 0;
    accepted += verified ? 1 : 0;
  }
  EXPECT_GT(rebuilt, 200);
  EXPECT_GT(accepted, 0);  // Zeroing bytes that were already zero.
}

TEST_F(ScanTest, ForeignFileAtStorePathIsLeftUntouched) {
  const std::string original = "precious data that is not a store\n";
  {
    std::ofstream out(store_, std::ios::binary);
    out << original;
  }
  Run run = Scan(store_);
  EXPECT_TRUE(run.summary.store_enabled);
  EXPECT_FALSE(run.summary.store.warning.empty());
  EXPECT_EQ(run.summary.store_reused, 0u);
  EXPECT_EQ(run.digest, Scan("").digest);

  std::ifstream in(store_, std::ios::binary);
  std::string raw((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(raw, original);
}

TEST_F(ScanTest, LockedStoreScansColdAndCorrectly) {
  Run cold = Scan(store_);

  const uint64_t hash =
      persist::FingerprintStore::RulesetHash(RuleRegistry::Default());
  persist::FingerprintStore holder;
  ASSERT_TRUE(holder.Open(store_, hash).ok());
  ASSERT_TRUE(holder.usable());

  Run locked = Scan(store_);
  EXPECT_TRUE(locked.summary.store_enabled);
  EXPECT_NE(locked.summary.store.warning.find("locked"), std::string::npos)
      << locked.summary.store.warning;
  EXPECT_EQ(locked.summary.store_reused, 0u);
  EXPECT_EQ(locked.digest, cold.digest);
  EXPECT_EQ(locked.text, cold.text);

  holder.Close();
  Run warm = Scan(store_);
  EXPECT_EQ(warm.summary.files_reused, warm.report.files);
  EXPECT_EQ(warm.digest, cold.digest);
}

TEST_F(ScanTest, InjectedOpenFaultScansCold) {
  Run cold = Scan(store_);
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("store_open", "oneshot").ok());
  Run faulted = Scan(store_);
  EXPECT_TRUE(faulted.summary.store_enabled);
  EXPECT_FALSE(faulted.summary.store.warning.empty());
  EXPECT_EQ(faulted.summary.store_reused, 0u);
  EXPECT_EQ(faulted.digest, cold.digest);
  EXPECT_EQ(faulted.text, cold.text);
}

TEST_F(ScanTest, InjectedCommitFaultKeepsReportSoundAndStoreRecoverable) {
  // The torn flush fires inside the scan's final Commit: the report must be
  // unaffected (it never depends on the write-back), the summary must carry
  // the warning, and the next scan must open the store cleanly.
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("store_append", "oneshot").ok());
  Run cold = Scan(store_);
  EXPECT_FALSE(cold.summary.store.warning.empty());

  FailpointRegistry::Instance().DisarmAll();
  Run second = Scan(store_);
  EXPECT_TRUE(second.summary.store.warning.empty() ||
              second.summary.store.warning.find("uncommitted") != std::string::npos)
      << second.summary.store.warning;
  EXPECT_EQ(second.digest, cold.digest);
  EXPECT_EQ(second.text, cold.text);

  // That second scan re-appended and committed; now it is warm.
  Run third = Scan(store_);
  EXPECT_EQ(third.summary.files_reused, third.report.files);
  EXPECT_EQ(third.digest, cold.digest);
  std::string summary;
  EXPECT_TRUE(persist::FingerprintStore::Verify(store_, &summary).ok()) << summary;
}

TEST_F(ScanTest, FailedRepoWritesNoManifest) {
  // Every allocation of the analysis faults persistently: every repository's
  // session records statement failures, so none may leave a manifest (or a
  // record) behind — the next healthy scan must analyze everything again.
  ASSERT_TRUE(FailpointRegistry::Instance().Arm("arena_alloc", "1.0").ok());
  Run faulted = Scan(store_);
  FailpointRegistry::Instance().DisarmAll();
  EXPECT_EQ(faulted.summary.store.appended_files, 0u);
  EXPECT_EQ(faulted.summary.store.appended, 0u);

  Run healthy = Scan(store_);
  EXPECT_EQ(healthy.summary.store_reused, 0u);
  EXPECT_EQ(healthy.summary.analyzed, healthy.report.statements);
  EXPECT_EQ(healthy.text, Scan("").text);
  Run warm = Scan(store_);
  EXPECT_EQ(warm.summary.analyzed, 0u);
  EXPECT_EQ(warm.text, healthy.text);
}

TEST_F(ScanTest, AutoJobsClampToHardwareAndRepoCount) {
  const int hw = ThreadPool::ResolveParallelism(0);
  Run auto_run = Scan("", /*jobs=*/0);
  EXPECT_GE(auto_run.summary.jobs, 1);
  EXPECT_LE(auto_run.summary.jobs, hw);
  EXPECT_LE(auto_run.summary.jobs, static_cast<int>(auto_run.report.repos));

  // Explicit values are honored up to the repository count — a worker
  // analyzes whole repositories, so workers past them would sit idle.
  Run explicit_run = Scan("", /*jobs=*/64);
  EXPECT_EQ(explicit_run.summary.jobs,
            std::min<int>(64, static_cast<int>(explicit_run.report.repos)));
  EXPECT_EQ(explicit_run.digest, auto_run.digest);
}

// --------------------------- scan == file mode ------------------------------

/// The counts a scan report shares with file mode: occurrences per rule, the
/// severity histogram, and total findings.
struct Tally {
  std::array<uint64_t, kAntiPatternCount> per_rule{};
  std::array<uint64_t, 3> severity{};  ///< high / medium / low.
  uint64_t findings = 0;

  bool operator==(const Tally&) const = default;
};

Tally TallyOf(const ScanReport& report) {
  Tally t;
  for (int k = 0; k < kAntiPatternCount; ++k) t.per_rule[k] = report.rules[k].occurrences;
  t.severity = {report.severity_high, report.severity_medium, report.severity_low};
  t.findings = report.findings;
  return t;
}

void AddFileMode(const Report& report, Tally* t) {
  for (const Finding& f : report.findings) {
    ++t->per_rule[static_cast<size_t>(f.ranked.detection.type)];
    ++t->severity[static_cast<size_t>(ScoreSeverity(f.ranked.score))];
    ++t->findings;
  }
}

SqlCheckOptions FileModeOptions() {
  SqlCheckOptions options;
  options.suggest_fixes = false;
  return options;
}

TEST_F(ScanTest, SampleWorkloadMatchesFileMode) {
  const std::string script = SampleWorkload();
  ClearTree();
  WriteFile("sample_workload.sql", script);
  const Run scan = Scan("");

  SqlCheck file_mode(FileModeOptions());
  file_mode.AddScript(script);
  Tally want;
  AddFileMode(file_mode.Run(), &want);
  EXPECT_EQ(want.findings, 19u);
  EXPECT_TRUE(TallyOf(scan.report) == want) << scan.report.ToJson();
}

TEST_F(ScanTest, Table3CorpusMatchesFileModePerRepo) {
  // One scan repository per corpus repository, its embedded SQL extracted
  // from the same source file file mode is fed. A cold and a warm scan with
  // a store report the store-less scan's bytes, and the warm one replays
  // every repository from its manifest without analyzing a statement.
  const workload::Corpus corpus = workload::GenerateCorpus();
  ClearTree();
  Tally want;
  std::map<std::string, uint64_t> repo_findings;
  for (const workload::CorpusRepo& repo : corpus.repos) {
    WriteFile(repo.name + "/app.py", repo.source);
    SqlCheck file_mode(FileModeOptions());
    for (const sql::EmbeddedSql& found : sql::ExtractEmbeddedSql(repo.source)) {
      file_mode.AddQuery(found.sql);
    }
    Report report = file_mode.Run();
    repo_findings[repo.name] = report.size();
    AddFileMode(report, &want);
  }
  const Run scan = Scan("", /*jobs=*/2);
  ASSERT_EQ(scan.report.repos, corpus.repos.size());
  EXPECT_TRUE(TallyOf(scan.report) == want);
  for (const RepoRow& row : scan.report.repo_rows) {
    EXPECT_EQ(row.findings, repo_findings[row.name]) << row.name;
  }

  const Run cold = Scan(store_, /*jobs=*/2);
  EXPECT_EQ(cold.summary.store_reused, 0u);
  EXPECT_GT(cold.summary.store.appended, 0u);
  const Run warm = Scan(store_, /*jobs=*/2);
  EXPECT_EQ(warm.summary.analyzed, 0u);
  EXPECT_EQ(warm.summary.store.file_hits, warm.report.repos);
  EXPECT_EQ(warm.summary.store.file_misses, 0u);
  EXPECT_EQ(warm.summary.files_reused, warm.report.files);
  EXPECT_EQ(warm.summary.store_reused, warm.report.statements);
  for (const Run* run : {&cold, &warm}) {
    EXPECT_TRUE(run->summary.store.warning.empty()) << run->summary.store.warning;
    EXPECT_EQ(run->digest, scan.digest);
    EXPECT_EQ(run->text, scan.text);
  }
}

TEST_F(ScanTest, ReportAndStoreAreIdenticalAtAnyJobCount) {
  // Workers pull repositories in any order, but results merge and the store
  // is written in repository order, so the report and the store file are
  // byte-identical at every job count.
  ClearTree();
  for (const workload::CorpusRepo& repo : workload::GenerateCorpus().repos) {
    WriteFile(repo.name + "/app.py", repo.source);
  }
  Run serial;
  std::string serial_store;
  for (int jobs : {1, 2, 4}) {
    SCOPED_TRACE(jobs);
    std::error_code ec;
    fs::remove(store_, ec);
    Run run = Scan(store_, jobs);
    EXPECT_EQ(run.summary.jobs, jobs);
    EXPECT_EQ(run.summary.store_reused, 0u);
    std::string store = ReadFile(store_);
    if (jobs == 1) {
      serial = std::move(run);
      serial_store = std::move(store);
      continue;
    }
    EXPECT_EQ(run.digest, serial.digest);
    EXPECT_EQ(run.text, serial.text);
    EXPECT_TRUE(store == serial_store) << "store files differ at jobs=" << jobs;
  }
}

/// Distinct exact and template fingerprints of every statement under `root`,
/// counted without the scanner: one AnalysisSession per top-level directory
/// (dot-directories skipped) fed its `.sql` scripts and the embedded SQL of
/// its `.py` files in path order. Each statement's exact fingerprint comes
/// from the session's dedup memo, its template fingerprint from
/// TemplateFingerprintOfExact.
std::pair<uint64_t, uint64_t> DistinctFingerprintsOf(const std::string& root) {
  std::map<std::string, std::vector<fs::path>> repos;
  for (const fs::directory_entry& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string repo = fs::relative(entry.path(), root).begin()->string();
    if (repo[0] != '.') repos[repo].push_back(entry.path());
  }
  std::set<uint64_t> exact;
  std::set<uint64_t> tmpl;
  sql::TokenBuffer tokens;
  for (auto& [name, files] : repos) {
    std::sort(files.begin(), files.end());
    AnalysisSession session;
    for (const fs::path& file : files) {
      const std::string text = ReadFile(file.string());
      if (file.extension() == ".sql") {
        session.AddScript(text);
      } else {
        for (const sql::EmbeddedSql& found : sql::ExtractEmbeddedSql(text)) {
          session.AddQuery(found.sql);
        }
      }
    }
    const QueryGroups& groups = session.context().query_groups();
    for (size_t i = 0; i < groups.fingerprints.size(); ++i) {
      const std::string_view canonical = groups.canonical[groups.group[i]];
      if (canonical.empty()) continue;  // Comment-only: not a statement.
      exact.insert(groups.fingerprints[i]);
      tmpl.insert(sql::TemplateFingerprintOfExact(canonical, tokens));
    }
  }
  return {exact.size(), tmpl.size()};
}

TEST_F(ScanTest, DistinctCountsMatchASetOfEveryOccurrence) {
  // The merge counts distinct fingerprints over every worker's occurrences.
  // Cold, fully warm and mixed scans (one repository edited, the rest
  // replayed) at one and three jobs must all count what a std::set of
  // independently computed fingerprints holds.
  WriteFile("gamma/schema.sql", SampleWorkload());
  workload::CorpusOptions corpus_options;
  corpus_options.repo_count = 30;
  for (const workload::CorpusRepo& repo :
       workload::GenerateCorpus(corpus_options).repos) {
    WriteFile(repo.name + "/app.py", repo.source);
  }
  const std::string original = ReadFile(root_ + "/beta/queries.sql");
  for (int jobs : {1, 3}) {
    SCOPED_TRACE(jobs);
    std::error_code ec;
    fs::remove(store_, ec);
    WriteFile("beta/queries.sql", original);
    const auto [exact, tmpl] = DistinctFingerprintsOf(root_);
    ASSERT_GT(exact, tmpl);
    const Run cold = Scan(store_, jobs);
    const Run warm = Scan(store_, jobs);
    EXPECT_GT(cold.report.statements, exact);  // Repeats across repositories.
    EXPECT_GT(cold.summary.analyzed, 0u);
    EXPECT_EQ(warm.summary.analyzed, 0u);
    for (const Run* run : {&cold, &warm}) {
      EXPECT_EQ(run->report.unique_statements, exact);
      EXPECT_EQ(run->report.unique_templates, tmpl);
    }

    // A new statement and a new template in one repository, plus a repeat
    // of a statement the replayed repositories hold.
    AppendToFile("beta/queries.sql",
                 "SELECT payload FROM t WHERE id = 41 AND payload = 'x';\n"
                 "SELECT * FROM users;\n");
    const auto [exact_after, tmpl_after] = DistinctFingerprintsOf(root_);
    EXPECT_EQ(exact_after, exact + 1);
    EXPECT_EQ(tmpl_after, tmpl + 1);
    const Run mixed = Scan(store_, jobs);
    EXPECT_GT(mixed.summary.analyzed, 0u);
    EXPECT_GT(mixed.summary.store_reused, 0u);
    EXPECT_EQ(mixed.report.unique_statements, exact_after);
    EXPECT_EQ(mixed.report.unique_templates, tmpl_after);
  }
}

TEST_F(ScanTest, ColdStoreFileIsPinned) {
  // The workers frame each record and the serial write-back copies the
  // frames, so the bytes of a cold store are pinned outright: the header,
  // every record (key text, fingerprints, findings, checksum) and every
  // manifest. Fixed mtimes make the repository digests, and with them the
  // keys of workload-sensitive records, the same on every run. A change to
  // this pin means every existing store would cold-rebuild or, worse, be
  // read differently.
  WriteFile("gamma/schema.sql", SampleWorkload());
  workload::CorpusOptions corpus_options;
  corpus_options.repo_count = 40;
  for (const workload::CorpusRepo& repo : workload::GenerateCorpus(corpus_options).repos) {
    WriteFile(repo.name + "/app.py", repo.source);
  }
  const struct timespec fixed[2] = {{1577836800, 0}, {1577836800, 0}};
  for (const fs::directory_entry& entry : fs::recursive_directory_iterator(root_)) {
    if (entry.is_regular_file()) {
      ASSERT_EQ(utimensat(AT_FDCWD, entry.path().c_str(), fixed, 0), 0) << entry.path();
    }
  }
  for (int jobs : {1, 3}) {
    SCOPED_TRACE(jobs);
    std::error_code ec;
    fs::remove(store_, ec);
    const Run run = Scan(store_, jobs);
    EXPECT_EQ(run.summary.jobs, jobs);
    EXPECT_TRUE(run.summary.store.warning.empty()) << run.summary.store.warning;
    const std::string store = ReadFile(store_);
    EXPECT_EQ(store.size(), kColdStoreBytes);
    EXPECT_EQ(Xxh64(store.data(), store.size()), kColdStoreXxh64);
  }
}

TEST_F(ScanTest, RepeatedStatementsKeepTheirOwnFindings) {
  // One statement four times (embedded and in a script) plus a whitespace
  // variant. Each occurrence is a statement of its own: the scan must count
  // every occurrence's findings against that occurrence, exactly as file
  // mode does, even where the session shares their analysis.
  const std::string repeat = "SELECT * FROM users WHERE tag_ids LIKE '%,7,%'";
  std::string source = "def load(conn):\n";
  source += "    return conn.execute(\"" + repeat + "\")\n";
  std::string script =
      "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(64), tag_ids TEXT);\n";
  script += repeat + ";\n" + repeat + ";\n";
  script += "SELECT name FROM users WHERE id = 3;\n";
  script += repeat + ";\n";
  script += "SELECT  *  FROM users\n  WHERE tag_ids LIKE '%,7,%';\n";
  ClearTree();
  WriteFile("rep/app.py", source);  // path order: app.py, then queries.sql
  WriteFile("rep/queries.sql", script);
  const Run scan = Scan("");
  ASSERT_EQ(scan.report.statements, 7u);

  // File mode over the same statements. With dedup off every occurrence is
  // parsed into a tree of its own, so the tree identifies the occurrence.
  SqlCheckOptions options = FileModeOptions();
  options.dedup_queries = false;
  SqlCheck file_mode(options);
  for (const sql::EmbeddedSql& found : sql::ExtractEmbeddedSql(source)) {
    file_mode.AddQuery(found.sql);
  }
  file_mode.AddScript(script);
  const Report report = file_mode.Run();
  std::map<const sql::Statement*, uint32_t> rules_of;  // per occurrence
  for (const Finding& f : report.findings) {
    rules_of[f.ranked.detection.stmt] |= 1u << static_cast<int>(f.ranked.detection.type);
  }
  ASSERT_EQ(file_mode.session().context().queries().size(), 7u);
  std::array<uint64_t, kAntiPatternCount> statements_with{};
  for (const auto& [stmt, mask] : rules_of) {
    ASSERT_NE(stmt, nullptr);
    for (int k = 0; k < kAntiPatternCount; ++k) statements_with[k] += (mask >> k) & 1u;
  }
  Tally want;
  AddFileMode(report, &want);
  EXPECT_TRUE(TallyOf(scan.report) == want) << scan.report.ToJson();
  for (int k = 0; k < kAntiPatternCount; ++k) {
    EXPECT_EQ(scan.report.rules[k].statements, statements_with[k])
        << ApName(AntiPattern(k));
  }
  const size_t wildcard = static_cast<size_t>(AntiPattern::kColumnWildcard);
  EXPECT_EQ(scan.report.rules[wildcard].statements, 5u);

  // Dedup on, the file-mode report is the same one.
  SqlCheck deduped(FileModeOptions());
  for (const sql::EmbeddedSql& found : sql::ExtractEmbeddedSql(source)) {
    deduped.AddQuery(found.sql);
  }
  deduped.AddScript(script);
  EXPECT_EQ(deduped.Run().ToJson(), report.ToJson());

  EXPECT_EQ(scan.digest, 1073672416580899628ull) << scan.report.ToJson();
  const Run cold = Scan(store_);
  EXPECT_EQ(cold.text, scan.text);
  EXPECT_EQ(Scan(store_).text, scan.text);
}

TEST(ScanFingerprintsTest, TemplateOfExactMatchesTemplateOfRaw) {
  // FingerprintForScan derives the template fingerprint by re-canonicalizing
  // the exact form instead of the raw text. That is only sound if
  // canonicalization is stable on its own output — locked in here across
  // comment, case, whitespace, and literal shapes.
  const char* statements[] = {
      "SELECT * FROM users WHERE id = 42",
      "select   name ,  id from USERS where ID=7 -- trailing comment",
      "/* leading */ SELECT 'quoted literal' FROM t WHERE x IN (1, 2, 3)",
      "INSERT INTO t (a, b) VALUES (1.5, 'two')",
      "UPDATE t SET a = a + 1 WHERE b LIKE '%,7,%'",
      "CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))",
  };
  for (const char* raw : statements) {
    std::string exact_canonical;
    sql::ScanFingerprints fp = sql::FingerprintForScan(raw, &exact_canonical);
    EXPECT_EQ(fp.exact, sql::FingerprintSql(raw, sql::FingerprintOptions::Exact()))
        << raw;
    EXPECT_EQ(fp.tmpl, sql::FingerprintSql(raw, sql::FingerprintOptions::Template()))
        << raw;
    EXPECT_EQ(fp.tmpl, sql::FingerprintSql(exact_canonical,
                                           sql::FingerprintOptions::Template()))
        << raw;
    EXPECT_EQ(exact_canonical,
              sql::CanonicalizeSql(exact_canonical, sql::FingerprintOptions::Exact()))
        << raw;
  }
}

}  // namespace
}  // namespace sqlcheck::scan
