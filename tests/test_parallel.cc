// Concurrency: the server runs many tenants' sessions at once on its
// ThreadPool and `sqlcheck scan --jobs` runs one repository-pulling worker
// per job on one, so the pool must fork/join correctly, and the analysis
// pipeline run from several threads at once must give each of them the
// serial answer (rules and the default registry are stateless; these tests
// keep them that way).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/session.h"
#include "core/sqlcheck.h"
#include "engine/executor.h"
#include "rules/registry.h"
#include "storage/database.h"
#include "workload/corpus.h"

namespace sqlcheck {
namespace {

// ------------------------------- ThreadPool --------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossPhases) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int phase = 0; phase < 3; ++phase) {
    for (int i = 0; i < 10; ++i) pool.Submit([&count] { count.fetch_add(1); });
    pool.Wait();
    EXPECT_EQ(count.load(), (phase + 1) * 10);
  }
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // Nothing submitted; must not hang.
}

TEST(ThreadPoolTest, ResolveParallelismMapsNonPositiveToHardware) {
  EXPECT_EQ(ThreadPool::ResolveParallelism(3), 3);
  EXPECT_GE(ThreadPool::ResolveParallelism(0), 1);
  EXPECT_GE(ThreadPool::ResolveParallelism(-1), 1);
}

// ---------------------- workload used for equality tests --------------------

/// A mixed workload: the synthetic corpus statements (query + DDL rules)
/// plus a small profiled database (data rules), so every detector path runs.
std::string CorpusScript() {
  workload::CorpusOptions options;
  options.repo_count = 24;
  std::string script;
  for (const auto& labeled : workload::GenerateCorpus(options).AllStatements()) {
    script += labeled.sql;
    script += ";\n";
  }
  return script;
}

void PopulateDatabase(Database* db) {
  Executor exec(db);
  exec.ExecuteScript(R"sql(
CREATE TABLE users (id INTEGER PRIMARY KEY, name VARCHAR(40), status TEXT,
                    password VARCHAR(32), created_at TEXT);
CREATE TABLE orders (id INTEGER PRIMARY KEY, user_id INTEGER, tag_ids TEXT,
                     total FLOAT, subtotal FLOAT, tax FLOAT);
)sql");
  for (int i = 0; i < 32; ++i) {
    std::string n = std::to_string(i);
    exec.ExecuteSql("INSERT INTO users VALUES (" + n + ", 'user" + n +
                    "', 'active', 'hunter2', '2019-07-0" + std::to_string(i % 9 + 1) +
                    " 12:00:00')");
    exec.ExecuteSql("INSERT INTO orders VALUES (" + n + ", " + n + ", '1,2,3', 10.5, 10.0, 0.5)");
  }
}

std::string RunReport(const std::string& script, const Database* db) {
  SqlCheck checker;
  checker.AddScript(script);
  if (db != nullptr) checker.AttachDatabase(db);
  return checker.Run().ToText();
}

/// The corpus as one script per repository, as `sqlcheck scan` feeds them.
std::vector<std::string> RepoScripts() {
  workload::CorpusOptions options;
  options.repo_count = 24;
  std::vector<std::string> scripts;
  for (const auto& repo : workload::GenerateCorpus(options).repos) {
    std::string script;
    for (const auto& labeled : repo.statements) {
      script += labeled.sql;
      script += ";\n";
    }
    scripts.push_back(std::move(script));
  }
  return scripts;
}

/// One repository's session, analyzed without fixes as a scan worker does.
std::unique_ptr<AnalysisSession> RunRepo(const std::string& script, const Database* db) {
  SqlCheckOptions options;
  options.suggest_fixes = false;
  auto session = std::make_unique<AnalysisSession>(options);
  session->AddScript(script);
  if (db != nullptr) session->AttachDatabase(db);
  return session;
}

std::vector<Detection> Detections(const std::string& script, const Database* db) {
  std::vector<Detection> out;
  for (Finding& f : RunRepo(script, db)->Snapshot().findings) {
    out.push_back(std::move(f.ranked.detection));
  }
  return out;
}

/// Runs `body(t)` on `threads` threads at once and joins them all.
template <typename Body>
void RunConcurrently(int threads, Body body) {
  std::vector<std::thread> runners;
  runners.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) runners.emplace_back([&body, t] { body(t); });
  for (auto& runner : runners) runner.join();
}

void ExpectSameDetections(const std::vector<Detection>& serial,
                          const std::vector<Detection>& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].type, parallel[i].type) << "at " << i;
    EXPECT_EQ(serial[i].source, parallel[i].source) << "at " << i;
    EXPECT_EQ(serial[i].table, parallel[i].table) << "at " << i;
    EXPECT_EQ(serial[i].column, parallel[i].column) << "at " << i;
    EXPECT_EQ(serial[i].query, parallel[i].query) << "at " << i;
    EXPECT_EQ(serial[i].message, parallel[i].message) << "at " << i;
  }
}

// ----------------------- concurrent pipeline runs ---------------------------

TEST(ParallelPipelineTest, ConcurrentRepoSessionsMatchSerial) {
  // Scan workers pull repositories off a shared counter and run one session
  // per repository, several at a time.
  const std::vector<std::string> repos = RepoScripts();
  std::vector<std::unique_ptr<AnalysisSession>> serial;
  for (const std::string& script : repos) serial.push_back(RunRepo(script, nullptr));

  constexpr int kThreads = 4;
  std::vector<std::unique_ptr<AnalysisSession>> parallel(repos.size());
  std::atomic<size_t> next{0};
  RunConcurrently(kThreads, [&](int) {
    for (size_t r; (r = next.fetch_add(1)) < repos.size();) {
      parallel[r] = RunRepo(repos[r], nullptr);
    }
  });
  for (size_t r = 0; r < repos.size(); ++r) {
    const Context& want = serial[r]->context();
    const Context& got = parallel[r]->context();
    ASSERT_EQ(want.queries().size(), got.queries().size()) << "repo " << r;
    for (size_t i = 0; i < want.queries().size(); ++i) {
      EXPECT_EQ(want.queries()[i].raw_sql, got.queries()[i].raw_sql);
      EXPECT_EQ(want.queries()[i].tables, got.queries()[i].tables);
      EXPECT_EQ(want.queries()[i].predicates.size(), got.queries()[i].predicates.size());
    }
    EXPECT_EQ(serial[r]->Snapshot().ToJson(), parallel[r]->Snapshot().ToJson())
        << "repo " << r;
  }
}

TEST(ParallelPipelineTest, ReportTextIsByteIdenticalAcrossThreadCounts) {
  // Server workers run whole checkers side by side: analysis, ranking, fixes
  // and data profiling of a shared database.
  std::string script = CorpusScript();
  Database db;
  PopulateDatabase(&db);

  const std::string serial_text = RunReport(script, &db);
  ASSERT_FALSE(serial_text.empty());
  for (int threads : {2, 4, 8}) {
    std::vector<std::string> texts(static_cast<size_t>(threads));
    RunConcurrently(threads, [&](int t) {
      texts[static_cast<size_t>(t)] = RunReport(script, &db);
    });
    for (const std::string& text : texts) {
      EXPECT_EQ(serial_text, text) << "threads=" << threads;
    }
  }
}

TEST(ParallelPipelineTest, RulesAreSafeUnderConcurrentRepoSessions) {
  // Many sessions at once, every repository each, one shared profiled
  // database: any rule keeping hidden mutable state would corrupt at least
  // one run.
  Database db;
  PopulateDatabase(&db);
  const std::vector<std::string> repos = RepoScripts();
  std::vector<std::vector<Detection>> serial;
  for (const std::string& script : repos) serial.push_back(Detections(script, &db));

  constexpr int kRunners = 8;
  std::vector<std::vector<std::vector<Detection>>> results(kRunners);
  RunConcurrently(kRunners, [&](int t) {
    auto& mine = results[static_cast<size_t>(t)];
    mine.resize(repos.size());
    // Each runner starts at a different repository, so different
    // repositories are analyzed side by side.
    for (size_t k = 0; k < repos.size(); ++k) {
      const size_t r = (k + static_cast<size_t>(t)) % repos.size();
      mine[r] = Detections(repos[r], &db);
    }
  });
  for (const auto& result : results) {
    for (size_t r = 0; r < repos.size(); ++r) ExpectSameDetections(serial[r], result[r]);
  }
}

}  // namespace
}  // namespace sqlcheck
