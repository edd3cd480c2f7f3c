#include "trace.h"

#include <algorithm>
#include <filesystem>
#include <set>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "analysis/data_analyzer.h"
#include "analysis/query_analyzer.h"
#include "core/emit.h"
#include "core/session.h"
#include "core/sqlcheck.h"
#include "fix/fix_engine.h"
#include "fix/verify_exec.h"
#include "persist/fingerprint_store.h"
#include "ranking/model.h"
#include "rules/registry.h"
#include "server/client.h"
#include "server/handler.h"
#include "server/server.h"
#include "server/wire.h"
#include "sql/extractor.h"
#include "sql/fingerprint.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/splitter.h"
#include "wire_client.h"

namespace perfbench {
namespace {

using namespace sqlcheck;

/// Tier-3 executions replayed per unit: each one builds and populates a
/// database, so an uncapped replay of a rewrite-heavy unit would eat the run.
constexpr size_t kMaxVerifyExecsPerUnit = 48;

/// Layers timed per item, reported as `<name>_us` (mean microseconds per
/// item). The item is what the layer consumes: a statement for the frontend
/// and appends, a unique statement for analysis and rules, a detection for
/// ranking, a finding for fixes, a request for the server, a call otherwise.
const char* const kTimedLayers[] = {
    "sql.split",       "sql.lex",           "sql.parse",          "sql.fingerprint",
    "sql.extract",     "analysis.query",    "analysis.data",      "rules.eval",
    "ranking.rank",    "fix.suggest",       "fix.verify_exec",    "core.append",
    "core.snapshot",   "core.emit",         "server.wire_parse",  "server.handle",
    "persist.open",    "persist.probe_file", "persist.probe_stmt", "persist.append",
    "persist.commit",
};

/// The layers an offline SqlCheck pass runs, once each: their summed self
/// time over the pass's wall time is the trace coverage. Lexing is inside
/// parsing and Tier 3 inside fix suggestion, so neither is added again;
/// extraction and data analysis count only when the units have host files
/// or databases.
const char* const kCoverageLayers[] = {
    "sql.split",  "sql.parse",   "sql.fingerprint", "analysis.query",
    "rules.eval", "ranking.rank", "fix.suggest",     "core.emit",
};

std::vector<std::string> RuleSpanNames(const RuleRegistry& registry) {
  std::vector<std::string> names;
  for (const auto& rule : registry.rules()) {
    names.push_back("rules." + ApSlug(rule->type()));
  }
  return names;
}

struct Counts {
  uint64_t unknown = 0;
  uint64_t verify_runs = 0;
  uint64_t statements = 0;
  uint64_t uniques = 0;
  uint64_t fix_hits = 0;
  uint64_t fix_misses = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  uint64_t store_hits = 0;
  uint64_t store_misses = 0;
  uint64_t file_hits = 0;
  uint64_t file_misses = 0;
};

double Frac(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

/// One offline report per unit through the batch facade. With `spans`, the
/// harness records a span around each public call (the traced pass).
double OfflinePass(const std::vector<Unit>& units, const SqlCheckOptions& options,
                   Spans* spans) {
  auto start = Clock::now();
  size_t sink = 0;
  auto timed = [&](std::string_view name, auto&& fn) {
    if (spans == nullptr) {
      fn();
    } else {
      Span span(spans, name);
      fn();
    }
  };
  for (const Unit& unit : units) {
    SqlCheck checker(options);
    timed("pass.append", [&] {
      for (const std::string& script : unit.scripts) checker.AddScript(script);
      for (const std::string& source : unit.sources) {
        for (const sql::EmbeddedSql& e : sql::ExtractEmbeddedSql(source)) {
          checker.AddQuery(e.sql);
        }
      }
    });
    if (unit.db != nullptr) timed("pass.attach", [&] { checker.AttachDatabase(unit.db); });
    Report report;
    timed("pass.run", [&] { report = checker.Run(); });
    timed("pass.emit", [&] { sink += ToJson(report).size(); });
  }
  Check(sink > 0, "offline pass emitted nothing");
  return UsSince(start);
}

class Replayer {
 public:
  Replayer(const SqlCheckOptions& options, const Config& config)
      : options_(options),
        registry_(RuleRegistry::Default()),
        store_path_(config.work_dir + "/trace.fps") {
    Check(registry_.Disable(options.disabled_rules).ok(), "bad disabled_rules");
    rule_spans_ = RuleSpanNames(registry_);
    server::ServerOptions server_options;
    server_options.port = 0;
    server_options.workers = 1;
    server_options.analysis = options;
    server_ = std::make_unique<server::SqlCheckServer>(server_options);
    Check(server_->Start().ok(), "trace server failed to start");
    std::string hello;
    Check(client_.Connect("127.0.0.1", server_->port()).ok() &&
              client_.ReadLine(&hello).ok(),
          "trace client failed to connect");
  }
  ~Replayer() {
    client_.Close();
    server_->Stop();
  }

  /// Replays every unit once; counts are taken on the first pass only.
  void Pass(const std::vector<Unit>& units, bool count) {
    for (const Unit& unit : units) ReplayUnit(unit, count);
  }

  const Spans& spans() const { return spans_; }
  const Counts& counts() const { return counts_; }
  const std::vector<std::string>& rule_spans() const { return rule_spans_; }

 private:
  struct File {
    std::string rel_path;
    uint64_t size = 0;
    std::vector<std::string_view> statements;
  };

  void ReplayUnit(const Unit& unit, bool count) {
    // ---- Frontend: split / extract, lex, parse, fingerprint. ----
    std::vector<File> files;
    std::vector<std::vector<sql::EmbeddedSql>> extracted(unit.sources.size());
    for (size_t i = 0; i < unit.scripts.size(); ++i) {
      File file{unit.name + "/script" + std::to_string(i) + ".sql",
                unit.scripts[i].size(), {}};
      {
        Span span(&spans_, "sql.split");
        file.statements = sql::SplitStatements(unit.scripts[i], nullptr, &buffer_);
        span.set_items(static_cast<double>(std::max<size_t>(1, file.statements.size())));
      }
      files.push_back(std::move(file));
    }
    for (size_t i = 0; i < unit.sources.size(); ++i) {
      {
        Span span(&spans_, "sql.extract");
        extracted[i] = sql::ExtractEmbeddedSql(unit.sources[i]);
        span.set_items(static_cast<double>(std::max<size_t>(1, extracted[i].size())));
      }
      File file{unit.name + "/source" + std::to_string(i) + ".py", unit.sources[i].size(), {}};
      for (const sql::EmbeddedSql& e : extracted[i]) file.statements.push_back(e.sql);
      files.push_back(std::move(file));
    }
    std::vector<std::string_view> statements;
    for (const File& file : files) {
      statements.insert(statements.end(), file.statements.begin(), file.statements.end());
    }
    if (unit.sources.empty()) {
      // No host files in this workload: time the extractor on the same
      // statements embedded in application code, and analyze nothing more.
      std::string source = EmbedAsSource({statements.begin(), statements.end()});
      Span span(&spans_, "sql.extract");
      span.set_items(
          static_cast<double>(std::max<size_t>(1, sql::ExtractEmbeddedSql(source).size())));
    }

    for (std::string_view s : statements) {
      Span span(&spans_, "sql.lex");
      sql::Lex(s, buffer_);
    }
    Arena arena;
    std::vector<sql::StatementPtr> parsed;
    parsed.reserve(statements.size());
    for (std::string_view s : statements) {
      {
        Span span(&spans_, "sql.parse");
        parsed.push_back(sql::ParseStatement(s, &arena, &buffer_));
      }
      if (count && parsed.back()->kind == sql::StatementKind::kUnknown) ++counts_.unknown;
    }
    std::unordered_set<std::string> seen;
    std::vector<size_t> uniques;
    for (size_t i = 0; i < statements.size(); ++i) {
      std::string canonical;
      {
        Span span(&spans_, "sql.fingerprint");
        canonical = sql::CanonicalizeSql(statements[i], sql::FingerprintOptions::Exact());
        sink_ += sql::FingerprintCanonical(canonical);
      }
      if (seen.insert(std::move(canonical)).second) uniques.push_back(i);
    }
    for (size_t u : uniques) {
      Span span(&spans_, "analysis.query");
      sink_ += AnalyzeQuery(*parsed[u]).tables.size();
    }

    // ---- Session: appends, snapshot, emit. ----
    AnalysisSession session(options_);
    for (size_t i = 0; i < unit.scripts.size(); ++i) {
      Span span(&spans_, "core.append",
                static_cast<double>(std::max<size_t>(1, files[i].statements.size())));
      session.AddScript(unit.scripts[i]);
    }
    for (const auto& list : extracted) {
      for (const sql::EmbeddedSql& e : list) {
        Span span(&spans_, "core.append");
        session.AddQuery(e.sql);
      }
    }
    if (unit.db != nullptr) session.AttachDatabase(unit.db);
    Report report;
    {
      Span span(&spans_, "core.snapshot");
      report = session.Snapshot();
    }
    {
      Span span(&spans_, "core.emit");
      sink_ += ToJson(report).size();
    }
    const Context& context = session.context();
    if (count) {
      counts_.statements += session.statement_count();
      counts_.uniques += session.unique_count();
      counts_.fix_hits += session.fix_cache_hits();
      counts_.fix_misses += session.fix_cache_misses();
      counts_.memo_hits += session.verify_stats().memo_hits;
      counts_.memo_misses += session.verify_stats().memo_misses;
    }

    // ---- Rules: each CheckQuery against the final context. rules.eval is
    // the sum over rules, so span bookkeeping between calls stays out. ----
    std::vector<Detection> out;
    for (size_t u : context.query_groups().unique) {
      const QueryFacts& facts = context.queries()[u];
      double eval_us = 0.0;
      for (size_t r = 0; r < registry_.rules().size(); ++r) {
        out.clear();
        auto start = Clock::now();
        registry_.rules()[r]->CheckQuery(facts, context, options_.detector, &out);
        const double us = UsSince(start);
        spans_.Add(rule_spans_[r], us);
        eval_us += us;
      }
      spans_.Add("rules.eval", eval_us);
    }

    // ---- Data analysis: the attached database, else the DDL catalog's
    // tables created empty (the analyzer's fixed per-table cost). ----
    if (unit.db != nullptr) {
      Span span(&spans_, "analysis.data",
                static_cast<double>(std::max<size_t>(1, unit.db->table_count())));
      sink_ += AnalyzeDatabase(*unit.db, options_.data_analyzer).profiles.size();
    } else {
      Database empty(unit.name);
      for (const TableSchema* table : context.catalog().Tables()) {
        (void)empty.CreateTable(*table);
      }
      Span span(&spans_, "analysis.data",
                static_cast<double>(std::max<size_t>(1, empty.table_count())));
      sink_ += AnalyzeDatabase(empty, options_.data_analyzer).profiles.size();
    }

    // ---- Ranking and fixes. ----
    std::vector<Detection> detections;
    detections.reserve(report.findings.size());
    for (const Finding& f : report.findings) detections.push_back(f.ranked.detection);
    {
      RankingModel model(options_.ranking_weights, options_.ranking_mode);
      Span span(&spans_, "ranking.rank",
                static_cast<double>(std::max<size_t>(1, detections.size())));
      sink_ += model.Rank(detections).size();
    }
    VerifyMemo memo;
    VerifyStats verify_stats;
    FixEngine engine(registry_, options_.detector, options_.verify_exec, &memo,
                     &verify_stats);
    for (const Detection& d : detections) {
      Span span(&spans_, "fix.suggest");
      sink_ += engine.SuggestFix(d, context).statements.size();
    }
    ReplayVerifyExec(report, context, count);

    // ---- Server: wire parse and handler on the request stream, then the
    // same stream over loopback for the transport share. ----
    std::vector<std::string> requests = unit.requests;
    if (requests.empty()) {
      for (std::string_view s : statements) requests.push_back(CheckRequest(s));
    }
    for (const std::string& line : requests) {
      Span span(&spans_, "server.wire_parse");
      sink_ += server::ParseRequest(line).sql.size();
    }
    {
      server::SessionHandler handler(options_);
      for (const std::string& line : requests) {
        Span span(&spans_, "server.handle");
        sink_ += handler.HandleLine(line).size();
      }
    }
    std::string terminal;
    Check(client_.SendLine(R"({"op": "reset"})").ok() && ReadResponse(&client_, &terminal),
          "trace server reset failed");
    for (const std::string& line : requests) {
      Span span(&spans_, "server.roundtrip");
      Check(client_.SendLine(line).ok() && ReadResponse(&client_, &terminal) &&
                terminal.find("\"ok\": true") != std::string::npos,
            "trace server request failed: " + terminal);
    }

    ReplayStore(files, report, count);
  }

  void ReplayVerifyExec(const Report& report, const Context& context, bool count) {
    ExecVerifyOptions exec = options_.verify_exec;
    exec.mode = ExecVerifyMode::kOn;
    std::set<std::string> proposals;
    for (const Finding& f : report.findings) {
      const Fix& fix = f.fix;
      if (fix.kind != FixKind::kRewrite || !fix.replaces_original) continue;
      const Fixer* fixer = registry_.FindFixer(fix.type);
      if (fixer == nullptr) continue;
      EquivalenceContract contract = fixer->equivalence();
      if (contract == EquivalenceContract::kNotApplicable) continue;
      std::string key = std::string(ApName(fix.type)) + "\x1f" + fix.original_sql;
      for (const std::string& s : fix.statements) key += "\x1f" + s;
      if (proposals.size() >= kMaxVerifyExecsPerUnit || !proposals.insert(key).second) {
        continue;
      }
      ExecCheck check;
      {
        Span span(&spans_, "fix.verify_exec");
        check = VerifyByExecution(fix, contract, context, exec);
      }
      if (count && check.outcome != ExecCheck::Outcome::kSkipped) ++counts_.verify_runs;
    }
  }

  void ReplayStore(const std::vector<File>& files, const Report& report, bool count) {
    std::unordered_map<std::string_view, std::vector<persist::StoredFinding>> findings;
    for (const Finding& f : report.findings) {
      const Detection& d = f.ranked.detection;
      if (d.query.empty()) continue;
      persist::StoredFinding stored;
      stored.type = static_cast<uint8_t>(d.type);
      stored.source = static_cast<uint8_t>(d.source);
      stored.has_query = true;
      stored.score = f.ranked.score;
      stored.table = d.table;
      stored.column = d.column;
      stored.message = d.message;
      findings[d.query].push_back(std::move(stored));
    }
    static const std::vector<persist::StoredFinding> kNone;
    const uint64_t ruleset = persist::FingerprintStore::RulesetHash(registry_);

    struct Key {
      std::string canonical;
      sql::ScanFingerprints fps;
    };
    std::vector<std::vector<Key>> keys(files.size());
    std::error_code ec;
    std::filesystem::remove(store_path_, ec);
    persist::StoreStats cold_stats;
    {
      persist::FingerprintStore store;
      {
        Span span(&spans_, "persist.open");
        Check(store.Open(store_path_, ruleset).ok() && store.usable(),
              "trace store open failed");
      }
      for (size_t f = 0; f < files.size(); ++f) {
        std::vector<persist::StmtRef> refs;
        {
          Span span(&spans_, "persist.probe_file");
          Check(!store.ProbeFile(files[f].rel_path, files[f].size, f + 1, &refs),
                "cold trace store served a file");
        }
        for (std::string_view s : files[f].statements) {
          Key key;
          key.fps = sql::FingerprintForScan(s, &key.canonical);
          std::vector<persist::FindingStat> stats;
          uint64_t tmpl = 0, offset = 0;
          bool hit;
          {
            Span span(&spans_, "persist.probe_stmt");
            hit = store.ProbeStats(key.canonical, key.fps.exact, &stats, &tmpl, &offset);
          }
          if (!hit) {
            auto it = findings.find(s);
            Span span(&spans_, "persist.append");
            offset = store.Append(key.canonical, key.fps.exact, key.fps.tmpl,
                                  it == findings.end() ? kNone : it->second);
          }
          refs.push_back({key.fps.exact, key.fps.tmpl, offset});
          keys[f].push_back(std::move(key));
        }
        Check(store.AppendFile(files[f].rel_path, files[f].size, f + 1, refs),
              "trace store file append failed");
      }
      {
        Span span(&spans_, "persist.commit");
        Check(store.Commit().ok(), "trace store commit failed");
      }
      cold_stats = store.stats();
    }
    persist::FingerprintStore warm;
    {
      Span span(&spans_, "persist.open");
      Check(warm.Open(store_path_, ruleset).ok() && warm.usable(), "trace store reopen failed");
    }
    for (size_t f = 0; f < files.size(); ++f) {
      std::vector<persist::StmtRef> refs;
      {
        Span span(&spans_, "persist.probe_file");
        Check(warm.ProbeFile(files[f].rel_path, files[f].size, f + 1, &refs),
              "warm trace store missed a file");
      }
      for (const Key& key : keys[f]) {
        std::vector<persist::FindingStat> stats;
        uint64_t tmpl = 0, offset = 0;
        Span span(&spans_, "persist.probe_stmt");
        sink_ += warm.ProbeStats(key.canonical, key.fps.exact, &stats, &tmpl, &offset);
      }
    }
    persist::StoreStats warm_stats = warm.stats();
    warm.Close();
    std::filesystem::remove(store_path_, ec);
    if (count) {
      counts_.store_hits += cold_stats.hits + warm_stats.hits;
      counts_.store_misses += cold_stats.misses + warm_stats.misses;
      counts_.file_hits += cold_stats.file_hits + warm_stats.file_hits;
      counts_.file_misses += cold_stats.file_misses + warm_stats.file_misses;
    }
  }

  SqlCheckOptions options_;
  RuleRegistry registry_;
  std::string store_path_;
  std::vector<std::string> rule_spans_;
  std::unique_ptr<server::SqlCheckServer> server_;
  server::LineClient client_;
  sql::TokenBuffer buffer_;
  Spans spans_;
  Counts counts_;
  uint64_t sink_ = 0;
};

}  // namespace

std::vector<std::pair<std::string, std::string>> LayerMetricNames() {
  std::vector<std::pair<std::string, std::string>> names;
  for (const char* layer : kTimedLayers) names.emplace_back(std::string(layer) + "_us", "us");
  for (const std::string& rule : RuleSpanNames(RuleRegistry::Default())) {
    names.emplace_back(rule + "_us", "us");
  }
  names.emplace_back("server.transport_us", "us");
  names.emplace_back("sql.unknown_stmts", "count");
  names.emplace_back("fix.verify_exec_runs", "count");
  for (const char* ratio : {"core.dedup_frac", "fix.cache_hit_frac", "fix.verify_memo_hit_frac",
                            "persist.hit_frac", "persist.file_hit_frac", "trace.coverage_frac",
                            "trace.overhead_frac"}) {
    names.emplace_back(ratio, "ratio");
  }
  return names;
}

LayerValues TraceUnits(const std::vector<Unit>& units, const SqlCheckOptions& options,
                       const Config& config) {
  // Overhead: untraced and traced offline passes, alternated, medians.
  std::vector<double> untraced, traced;
  Spans pass_spans;
  RunFor(config.seconds * 0.3, 3, [&] {
    untraced.push_back(OfflinePass(units, options, nullptr));
    traced.push_back(OfflinePass(units, options, &pass_spans));
  });
  const double untraced_us = Median(untraced);

  Replayer replayer(options, config);
  int passes = 0;
  RunFor(config.seconds * 0.7, 1, [&] { replayer.Pass(units, passes++ == 0); });

  const Spans& spans = replayer.spans();
  const Counts& counts = replayer.counts();
  LayerValues values;
  for (const char* layer : kTimedLayers) values[std::string(layer) + "_us"] = spans.MeanUs(layer);
  for (const std::string& rule : replayer.rule_spans()) values[rule + "_us"] = spans.MeanUs(rule);
  values["server.transport_us"] =
      spans.MeanUs("server.roundtrip") - spans.MeanUs("server.handle");
  values["sql.unknown_stmts"] = static_cast<double>(counts.unknown);
  values["fix.verify_exec_runs"] = static_cast<double>(counts.verify_runs);
  values["core.dedup_frac"] = 1.0 - Frac(counts.uniques, counts.statements);
  values["fix.cache_hit_frac"] = Frac(counts.fix_hits, counts.fix_hits + counts.fix_misses);
  values["fix.verify_memo_hit_frac"] =
      Frac(counts.memo_hits, counts.memo_hits + counts.memo_misses);
  values["persist.hit_frac"] = Frac(counts.store_hits, counts.store_hits + counts.store_misses);
  values["persist.file_hit_frac"] =
      Frac(counts.file_hits, counts.file_hits + counts.file_misses);

  auto any = [&](auto pred) { return std::any_of(units.begin(), units.end(), pred); };
  double covered_us = 0.0;
  if (any([](const Unit& u) { return u.db != nullptr; })) covered_us += spans.TotalUs("analysis.data");
  if (any([](const Unit& u) { return !u.sources.empty(); })) covered_us += spans.TotalUs("sql.extract");
  for (const char* layer : kCoverageLayers) covered_us += spans.TotalUs(layer);
  values["trace.coverage_frac"] = covered_us / passes / untraced_us;
  values["trace.overhead_frac"] = (Median(traced) - untraced_us) / untraced_us;
  return values;
}

std::vector<Metric> LayerMetrics(const LayerValues& values) {
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : LayerMetricNames()) {
    auto it = values.find(name);
    Check(it != values.end(), "traced run did not measure " + name);
    metrics.push_back({name, it->second, unit});
  }
  return metrics;
}

std::string EmbedAsSource(const std::vector<std::string_view>& statements) {
  std::string out = "def run(cursor):\n";
  for (std::string_view sql : statements) {
    char quote = sql.find('"') == std::string_view::npos ? '"' : '\'';
    if (sql.find(quote) != std::string_view::npos) continue;
    std::string line(sql);
    std::replace(line.begin(), line.end(), '\n', ' ');
    out += "    cursor.execute(";
    out += quote;
    out += line;
    out += quote;
    out += ")\n";
  }
  return out;
}

}  // namespace perfbench
