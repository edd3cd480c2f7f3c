#include "scan/scanner.h"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/context.h"
#include "common/mmap_file.h"
#include "common/thread_pool.h"
#include "core/emit.h"
#include "ranking/model.h"
#include "rules/registry.h"
#include "sql/extractor.h"
#include "sql/fingerprint.h"
#include "sql/splitter.h"
#include "sql/token.h"

namespace sqlcheck::scan {

namespace fs = std::filesystem;

namespace {

// Repo rule-presence is tracked as a bitmask; the rule set must fit one word.
static_assert(kAntiPatternCount <= 32, "widen the repo rule mask");

constexpr uint64_t kNoOffset = persist::FingerprintStore::kNoOffset;

enum class FileKind {
  kSqlScript,  ///< Split into statements directly.
  kSource,     ///< Host-language file: run the embedded-SQL extractor.
  kSniff,      ///< Unknown extension: content-sniff for a leading SQL verb.
  kIgnore,     ///< Known non-SQL noise (markup, archives, binaries).
};

std::string LowerExt(const fs::path& path) {
  std::string ext = path.extension().generic_string();
  for (char& c : ext) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return ext;
}

FileKind ClassifyExtension(const std::string& ext) {
  static const std::unordered_set<std::string> kSqlExts = {
      ".sql", ".ddl", ".dml", ".psql", ".pgsql", ".mysql", ".sqlite", ".hql"};
  static const std::unordered_set<std::string> kSourceExts = {
      ".py", ".java", ".php", ".js",  ".jsx",   ".ts", ".tsx", ".rb",
      ".go", ".cs",   ".c",   ".cc",  ".cpp",   ".cxx", ".h",  ".hh",
      ".hpp", ".kt",  ".scala", ".pl", ".pm",   ".sh"};
  static const std::unordered_set<std::string> kIgnoreExts = {
      ".md",   ".rst",  ".json", ".yml", ".yaml", ".xml", ".html", ".htm",
      ".css",  ".csv",  ".lock", ".toml", ".ini", ".cfg", ".conf", ".log",
      ".png",  ".jpg",  ".jpeg", ".gif", ".svg",  ".ico", ".pdf",  ".zip",
      ".gz",   ".tar",  ".bz2",  ".xz",  ".so",   ".o",   ".a",    ".bin",
      ".exe",  ".dll",  ".class", ".jar", ".pyc"};
  if (kSqlExts.count(ext)) return FileKind::kSqlScript;
  if (kSourceExts.count(ext)) return FileKind::kSource;
  if (kIgnoreExts.count(ext)) return FileKind::kIgnore;
  return FileKind::kSniff;
}

/// First-token sniff for extensionless dumps: skip whitespace and SQL
/// comments, read the leading word, accept the file when it is a statement
/// verb. Binary content (NUL in the head) is rejected outright.
bool LooksLikeSql(std::string_view head) {
  static const std::unordered_set<std::string> kVerbs = {
      "select", "insert",   "update", "delete", "create", "alter",  "drop",
      "with",   "begin",    "merge",  "truncate", "grant", "revoke",
      "explain", "pragma",  "analyze", "vacuum", "set",    "use",    "copy",
      "call",   "values",   "show",   "replace", "commit", "rollback"};
  if (head.find('\0') != std::string_view::npos) return false;
  size_t i = 0;
  while (i < head.size()) {
    char c = head[i];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' || c == '\v') {
      ++i;
      continue;
    }
    if (c == '-' && i + 1 < head.size() && head[i + 1] == '-') {
      while (i < head.size() && head[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && i + 1 < head.size() && head[i + 1] == '*') {
      size_t end = head.find("*/", i + 2);
      if (end == std::string_view::npos) return false;
      i = end + 2;
      continue;
    }
    break;
  }
  std::string word;
  while (i < head.size() && word.size() < 16) {
    char c = head[i];
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) {
      word.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c);
      ++i;
    } else {
      break;
    }
  }
  return kVerbs.count(word) > 0;
}

struct ScanFile {
  std::string path;      ///< Absolute path on disk.
  std::string rel;       ///< Root-relative path: the manifest key.
  uint64_t size = 0;     ///< Byte size at discovery (one stat serves all).
  uint64_t mtime_ns = 0; ///< mtime in nanoseconds at discovery.
  uint32_t repo = 0;     ///< Index into the repo table.
  FileKind kind = FileKind::kSniff;
};

struct RepoAgg {
  uint64_t files = 0;
  uint64_t statements = 0;
  uint64_t findings = 0;
  uint32_t rule_mask = 0;
};

/// One statement occurrence of a processed file, queued toward the store.
/// `canonical`/`findings` are only populated when the statement is not yet in
/// the store (offset == kNoOffset): the post-join append pass needs them.
struct StmtDraft {
  uint64_t exact = 0;
  uint64_t tmpl = 0;
  uint64_t offset = kNoOffset;
  std::string canonical;
  std::vector<persist::StoredFinding> findings;
  bool failed = false;  ///< Analysis fault: never append, no file manifest.
};

/// The store-bound result of processing one file the cold way: its freshness
/// key plus every statement in order. Appended serially after the join in
/// corpus (file, statement) order so the log layout is byte-stable.
struct FileDraft {
  uint32_t file = 0;
  std::string rel;
  uint64_t size = 0;
  uint64_t mtime_ns = 0;
  std::vector<StmtDraft> stmts;
};

struct ShardAgg {
  uint64_t statements = 0;
  uint64_t findings = 0;
  std::array<uint64_t, kAntiPatternCount> occurrences{};
  std::array<uint64_t, kAntiPatternCount> statements_with{};
  uint64_t severity[3] = {0, 0, 0};  ///< high / medium / low.
  std::unordered_set<uint64_t> unique_exact;
  std::unordered_set<uint64_t> unique_template;
  std::vector<RepoAgg> repos;
  uint64_t analyzed = 0;
  uint64_t store_reused = 0;
  uint64_t memo_reused = 0;
  uint64_t files_reused = 0;
  uint64_t skipped = 0;
  std::vector<FileDraft> drafts;
};

/// Per-worker analysis state. The registry/model/config are shared const
/// across workers (rules are stateless); everything here is private.
struct Worker {
  explicit Worker(size_t repo_count) { agg.repos.resize(repo_count); }

  struct MemoEntry {
    std::string canonical;
    size_t storage_idx = 0;
    uint64_t offset = kNoOffset;
    bool failed = false;
  };

  ShardAgg agg;
  sql::TokenBuffer buffer;
  /// Stable storage for folded finding stats; memo entries index into it.
  std::deque<std::vector<persist::FindingStat>> storage;
  /// In-run memo keyed by exact fingerprint; canonical text breaks ties.
  std::unordered_map<uint64_t, std::vector<MemoEntry>> memo;
  /// Scratch for file-manifest replay (capacity persists across files).
  std::vector<persist::StmtRef> refs;
  std::vector<std::vector<persist::FindingStat>> replay;
};

std::vector<persist::StoredFinding> AnalyzeStatement(std::string_view raw,
                                                     const RuleRegistry& registry,
                                                     const RankingModel& model,
                                                     const DetectorConfig& config) {
  ContextBuilder builder;
  builder.AddQuery(raw);
  Context context = builder.Build();
  std::vector<RankedDetection> ranked =
      model.Rank(DetectAntiPatterns(context, registry, config));
  std::vector<persist::StoredFinding> out;
  out.reserve(ranked.size());
  for (const RankedDetection& r : ranked) {
    persist::StoredFinding f;
    f.type = static_cast<uint8_t>(r.detection.type);
    f.source = static_cast<uint8_t>(r.detection.source);
    f.has_query = !r.detection.query.empty();
    f.score = r.score;
    f.table = r.detection.table;
    f.column = r.detection.column;
    f.message = r.detection.message;
    out.push_back(std::move(f));
  }
  return out;
}

std::vector<persist::FindingStat> ToStats(
    const std::vector<persist::StoredFinding>& findings) {
  std::vector<persist::FindingStat> out;
  out.reserve(findings.size());
  for (const persist::StoredFinding& f : findings) {
    out.push_back(persist::FindingStat{f.type, f.score});
  }
  return out;
}

void FoldStats(const std::vector<persist::FindingStat>& findings, ShardAgg& agg,
               RepoAgg& repo) {
  uint32_t stmt_mask = 0;
  for (const persist::FindingStat& f : findings) {
    ++agg.findings;
    ++repo.findings;
    if (f.type < kAntiPatternCount) {
      ++agg.occurrences[f.type];
      stmt_mask |= 1u << f.type;
    }
    switch (ScoreSeverity(f.score)) {
      case Severity::kHigh: ++agg.severity[0]; break;
      case Severity::kMedium: ++agg.severity[1]; break;
      case Severity::kLow: ++agg.severity[2]; break;
    }
  }
  for (int k = 0; k < kAntiPatternCount; ++k) {
    if (stmt_mask & (1u << k)) ++agg.statements_with[k];
  }
  repo.rule_mask |= stmt_mask;
}

void HandleStatement(std::string_view raw, const ScanFile& file, Worker& w,
                     persist::FingerprintStore* store, const RuleRegistry& registry,
                     const RankingModel& model, const DetectorConfig& config,
                     FileDraft* draft) {
  std::string canonical;
  sql::ScanFingerprints fp = sql::FingerprintForScan(raw, &canonical);
  if (canonical.empty()) return;  // Comment-only / whitespace-only fragment.

  ShardAgg& agg = w.agg;
  RepoAgg& repo = agg.repos[file.repo];
  ++agg.statements;
  ++repo.statements;
  agg.unique_exact.insert(fp.exact);
  agg.unique_template.insert(fp.tmpl);

  auto mit = w.memo.find(fp.exact);
  if (mit != w.memo.end()) {
    for (const Worker::MemoEntry& entry : mit->second) {
      if (entry.canonical == canonical) {
        ++agg.memo_reused;
        FoldStats(w.storage[entry.storage_idx], agg, repo);
        if (draft != nullptr) {
          StmtDraft sd;
          sd.exact = fp.exact;
          sd.tmpl = fp.tmpl;
          sd.offset = entry.offset;
          sd.failed = entry.failed;
          // A repeat of a fresh statement still lacks an offset: keep the
          // canonical so the append pass can dedup against the first write.
          if (sd.offset == kNoOffset && !sd.failed) sd.canonical = canonical;
          draft->stmts.push_back(std::move(sd));
        }
        return;
      }
    }
  }

  StmtDraft sd;
  sd.exact = fp.exact;
  sd.tmpl = fp.tmpl;
  std::vector<persist::FindingStat> stats;
  bool failed = false;
  bool from_store = store != nullptr &&
                    store->ProbeStats(canonical, fp.exact, &stats, nullptr, &sd.offset);
  if (from_store) {
    ++agg.store_reused;
  } else {
    ++agg.analyzed;
    std::vector<persist::StoredFinding> findings;
    try {
      findings = AnalyzeStatement(raw, registry, model, config);
    } catch (...) {
      // An analysis fault (e.g. injected allocation failure) must not take
      // the scan down or poison the store: score the statement clean this
      // run and leave it unmemoized on disk so a healthy rescan retries it.
      findings.clear();
      failed = true;
    }
    stats = ToStats(findings);
    if (!failed) {
      sd.canonical = canonical;
      sd.findings = std::move(findings);
    }
    sd.failed = failed;
  }
  w.storage.push_back(std::move(stats));
  Worker::MemoEntry me;
  me.canonical = std::move(canonical);
  me.storage_idx = w.storage.size() - 1;
  me.offset = sd.offset;
  me.failed = failed;
  w.memo[fp.exact].push_back(std::move(me));
  FoldStats(w.storage.back(), agg, repo);
  if (draft != nullptr) draft->stmts.push_back(std::move(sd));
}

/// The warm fast path: if the store holds a manifest matching the file's
/// (path, size, mtime) key and every referenced statement record resolves,
/// fold the file's entire contribution without opening it. Any mismatch
/// returns false and the caller processes the file cold — resolution is
/// all-or-nothing so a partial replay can never skew the report.
bool TryReplayFile(const ScanFile& file, Worker& w, persist::FingerprintStore* store) {
  if (!store->ProbeFile(file.rel, file.size, file.mtime_ns, &w.refs)) return false;
  w.replay.resize(w.refs.size());
  for (size_t i = 0; i < w.refs.size(); ++i) {
    if (!store->ResolveStats(w.refs[i].offset, w.refs[i].exact, &w.replay[i], nullptr)) {
      return false;
    }
  }
  ShardAgg& agg = w.agg;
  RepoAgg& repo = agg.repos[file.repo];
  ++agg.files_reused;
  ++repo.files;
  agg.store_reused += w.refs.size();
  for (size_t i = 0; i < w.refs.size(); ++i) {
    ++agg.statements;
    ++repo.statements;
    agg.unique_exact.insert(w.refs[i].exact);
    agg.unique_template.insert(w.refs[i].tmpl);
    FoldStats(w.replay[i], agg, repo);
  }
  return true;
}

void ProcessFile(const ScanFile& file, uint32_t file_idx, Worker& w,
                 persist::FingerprintStore* store, const RuleRegistry& registry,
                 const RankingModel& model, const DetectorConfig& config) {
  MappedFile map;
  if (!map.Open(file.path).ok()) {
    ++w.agg.skipped;
    return;
  }
  std::string_view content = map.view();
  FileKind kind = file.kind;
  if (kind == FileKind::kSniff) {
    if (LooksLikeSql(content.substr(0, std::min<size_t>(content.size(), 2048)))) {
      kind = FileKind::kSqlScript;
    } else {
      // No manifest for sniff rejects: they never count as corpus files, so
      // a replayed manifest would inflate the file count.
      ++w.agg.skipped;
      return;
    }
  }
  ++w.agg.repos[file.repo].files;
  FileDraft draft;
  FileDraft* draft_ptr = nullptr;
  if (store != nullptr) {
    draft.file = file_idx;
    draft.rel = file.rel;
    draft.size = file.size;
    draft.mtime_ns = file.mtime_ns;
    draft_ptr = &draft;
  }
  if (kind == FileKind::kSource) {
    for (const sql::EmbeddedSql& embedded : sql::ExtractEmbeddedSql(content)) {
      HandleStatement(embedded.sql, file, w, store, registry, model, config, draft_ptr);
    }
  } else {
    for (std::string_view piece : sql::SplitStatements(content, nullptr, &w.buffer)) {
      HandleStatement(piece, file, w, store, registry, model, config, draft_ptr);
    }
  }
  if (draft_ptr != nullptr) w.agg.drafts.push_back(std::move(draft));
}

void AppendFormatted(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendFormatted(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  int n = vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min<size_t>(static_cast<size_t>(n), sizeof(buf) - 1));
}

/// `, "key": value` — one numeric member of a JSON report row.
void AppendCount(std::string& out, const char* key, uint64_t value) {
  out += ", \"";
  out += key;
  out += "\": ";
  out += std::to_string(value);
}

}  // namespace

std::string ScanReport::ToText() const {
  std::string out;
  AppendFormatted(out,
                  "corpus: %llu repos, %llu files, %llu statements "
                  "(%llu unique, %llu templates), %llu findings\n",
                  static_cast<unsigned long long>(repos),
                  static_cast<unsigned long long>(files),
                  static_cast<unsigned long long>(statements),
                  static_cast<unsigned long long>(unique_statements),
                  static_cast<unsigned long long>(unique_templates),
                  static_cast<unsigned long long>(findings));
  AppendFormatted(out, "severity: high %llu / medium %llu / low %llu\n",
                  static_cast<unsigned long long>(severity_high),
                  static_cast<unsigned long long>(severity_medium),
                  static_cast<unsigned long long>(severity_low));
  out += "\nrule                                        occur  stmts  repos\n";
  for (int k = 0; k < kAntiPatternCount; ++k) {
    const RuleRow& row = rules[k];
    if (row.occurrences == 0) continue;
    AppendFormatted(out, "%-42s %6llu %6llu %6llu\n",
                    ApName(static_cast<AntiPattern>(k)),
                    static_cast<unsigned long long>(row.occurrences),
                    static_cast<unsigned long long>(row.statements),
                    static_cast<unsigned long long>(row.repos));
  }
  out += "\nrepo                                        files  stmts  finds  rules\n";
  for (const RepoRow& row : repo_rows) {
    AppendFormatted(out, "%-42s %6llu %6llu %6llu %6llu\n", row.name.c_str(),
                    static_cast<unsigned long long>(row.files),
                    static_cast<unsigned long long>(row.statements),
                    static_cast<unsigned long long>(row.findings),
                    static_cast<unsigned long long>(row.rules));
  }
  return out;
}

std::string ScanReport::ToJson() const {
  std::string out = "{\n";
  AppendFormatted(out,
                  "  \"scan\": {\"repos\": %llu, \"files\": %llu, "
                  "\"statements\": %llu, \"unique_statements\": %llu, "
                  "\"unique_templates\": %llu, \"findings\": %llu},\n",
                  static_cast<unsigned long long>(repos),
                  static_cast<unsigned long long>(files),
                  static_cast<unsigned long long>(statements),
                  static_cast<unsigned long long>(unique_statements),
                  static_cast<unsigned long long>(unique_templates),
                  static_cast<unsigned long long>(findings));
  AppendFormatted(out,
                  "  \"severity\": {\"high\": %llu, \"medium\": %llu, \"low\": %llu},\n",
                  static_cast<unsigned long long>(severity_high),
                  static_cast<unsigned long long>(severity_medium),
                  static_cast<unsigned long long>(severity_low));
  out += "  \"rules\": [";
  bool first = true;
  for (int k = 0; k < kAntiPatternCount; ++k) {
    const RuleRow& row = rules[k];
    if (row.occurrences == 0) continue;
    out += first ? "\n" : ",\n";
    first = false;
    AntiPattern type = static_cast<AntiPattern>(k);
    out += "    {\"rule\": \"";
    AppendJsonEscaped(&out, ApName(type));
    out += "\", \"id\": \"";
    out += ApSlug(type);
    out += '"';
    AppendCount(out, "occurrences", row.occurrences);
    AppendCount(out, "statements", row.statements);
    AppendCount(out, "repos", row.repos);
    out += '}';
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"repos\": [";
  first = true;
  for (const RepoRow& row : repo_rows) {
    out += first ? "\n" : ",\n";
    first = false;
    // Appended, not formatted through AppendFormatted's fixed buffer: an
    // escaped directory name can be several times its raw length.
    out += "    {\"name\": \"";
    AppendJsonEscaped(&out, row.name);
    out += '"';
    AppendCount(out, "files", row.files);
    AppendCount(out, "statements", row.statements);
    AppendCount(out, "findings", row.findings);
    AppendCount(out, "rules", row.rules);
    out += '}';
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

uint64_t DigestScanReport(const ScanReport& report) {
  std::string json = report.ToJson();
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : json) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

Result<ScanReport> CorpusScanner::Scan(const std::string& root) {
  auto t0 = std::chrono::steady_clock::now();
  summary_ = ScanSummary{};

  const RuleRegistry registry = RuleRegistry::Default();
  const RankingModel model;
  const DetectorConfig config;

  std::unique_ptr<persist::FingerprintStore> store;
  if (!options_.store_path.empty()) {
    store = std::make_unique<persist::FingerprintStore>();
    Status st = store->Open(options_.store_path,
                            persist::FingerprintStore::RulesetHash(registry));
    if (!st.ok()) return st;
    summary_.store_enabled = true;
    summary_.store = store->stats();  // Keeps the warning if Open degraded.
    if (!store->usable()) store.reset();
  }

  std::error_code ec;
  fs::path root_path(root);
  if (!fs::is_directory(root_path, ec) || ec) {
    return Status::Error("scan root is not a directory: " + root);
  }

  // The store file must never scan itself; compare identities by inode so any
  // spelling of its path is caught.
  struct stat store_st{};
  bool have_store_st =
      !options_.store_path.empty() && ::stat(options_.store_path.c_str(), &store_st) == 0;

  // Discovery: collect regular files (skipping dot-entries and the store
  // itself), keyed by their root-relative path so the ordering — and with it
  // repo numbering and the store append order — is byte-stable. One stat per
  // file covers regularity, size, and mtime: the manifest freshness key.
  struct Discovered {
    std::string rel;
    std::string abs;
    uint64_t size = 0;
    uint64_t mtime_ns = 0;
    bool operator<(const Discovered& other) const { return rel < other.rel; }
  };
  std::vector<Discovered> discovered;
  fs::recursive_directory_iterator it(root_path,
                                      fs::directory_options::skip_permission_denied, ec);
  fs::recursive_directory_iterator end;
  for (; !ec && it != end; it.increment(ec)) {
    const fs::directory_entry& entry = *it;
    std::string name = entry.path().filename().generic_string();
    if (!name.empty() && name[0] == '.') {
      std::error_code dec;
      if (entry.is_directory(dec)) it.disable_recursion_pending();
      continue;
    }
    struct stat st{};
    if (::stat(entry.path().c_str(), &st) != 0 || !S_ISREG(st.st_mode)) continue;
    if (have_store_st && st.st_dev == store_st.st_dev && st.st_ino == store_st.st_ino) {
      continue;
    }
    Discovered d;
    d.rel = entry.path().lexically_relative(root_path).generic_string();
    d.abs = entry.path().string();
    d.size = static_cast<uint64_t>(st.st_size);
    d.mtime_ns = static_cast<uint64_t>(st.st_mtim.tv_sec) * 1000000000ull +
                 static_cast<uint64_t>(st.st_mtim.tv_nsec);
    discovered.push_back(std::move(d));
  }
  std::sort(discovered.begin(), discovered.end());

  std::vector<std::string> repo_names;
  std::map<std::string, uint32_t> repo_index;
  std::vector<ScanFile> files;
  files.reserve(discovered.size());
  for (Discovered& d : discovered) {
    FileKind kind = ClassifyExtension(LowerExt(fs::path(d.rel)));
    if (kind == FileKind::kIgnore) continue;
    size_t slash = d.rel.find('/');
    std::string repo = slash == std::string::npos ? "(root)" : d.rel.substr(0, slash);
    auto [rit, inserted] = repo_index.emplace(repo, repo_names.size());
    if (inserted) repo_names.push_back(repo);
    ScanFile file;
    file.path = std::move(d.abs);
    file.rel = std::move(d.rel);
    file.size = d.size;
    file.mtime_ns = d.mtime_ns;
    file.repo = rit->second;
    file.kind = kind;
    files.push_back(std::move(file));
  }

  int jobs = options_.jobs;
  if (jobs <= 0) jobs = ThreadPool::ResolveParallelism(0);  // hardware clamp
  jobs = std::max(1, std::min<int>(jobs, static_cast<int>(files.empty() ? 1 : files.size())));
  summary_.jobs = jobs;

  std::vector<std::unique_ptr<Worker>> workers(jobs);
  for (int s = 0; s < jobs; ++s) workers[s] = std::make_unique<Worker>(repo_names.size());
  persist::FingerprintStore* store_ptr = store.get();
  std::unique_ptr<ThreadPool> pool;
  if (jobs > 1) pool = std::make_unique<ThreadPool>(jobs);
  ParallelShards(files.size(), pool.get(), [&](int shard, size_t begin, size_t endi) {
    Worker& w = *workers[shard];
    for (size_t i = begin; i < endi; ++i) {
      if (store_ptr != nullptr && TryReplayFile(files[i], w, store_ptr)) continue;
      ProcessFile(files[i], static_cast<uint32_t>(i), w, store_ptr, registry, model,
                  config);
    }
  });

  // Deterministic merge: shard order for the counters, corpus (file,
  // statement) order for the store appends.
  ScanReport report;
  std::vector<RepoAgg> repos(repo_names.size());
  std::unordered_set<uint64_t> unique_exact;
  std::unordered_set<uint64_t> unique_template;
  std::vector<FileDraft> drafts;
  for (const std::unique_ptr<Worker>& wp : workers) {
    ShardAgg& agg = wp->agg;
    report.statements += agg.statements;
    report.findings += agg.findings;
    for (int k = 0; k < kAntiPatternCount; ++k) {
      report.rules[k].occurrences += agg.occurrences[k];
      report.rules[k].statements += agg.statements_with[k];
    }
    report.severity_high += agg.severity[0];
    report.severity_medium += agg.severity[1];
    report.severity_low += agg.severity[2];
    unique_exact.insert(agg.unique_exact.begin(), agg.unique_exact.end());
    unique_template.insert(agg.unique_template.begin(), agg.unique_template.end());
    for (size_t r = 0; r < repos.size(); ++r) {
      repos[r].files += agg.repos[r].files;
      repos[r].statements += agg.repos[r].statements;
      repos[r].findings += agg.repos[r].findings;
      repos[r].rule_mask |= agg.repos[r].rule_mask;
    }
    summary_.analyzed += agg.analyzed;
    summary_.store_reused += agg.store_reused;
    summary_.memo_reused += agg.memo_reused;
    summary_.files_reused += agg.files_reused;
    summary_.files_skipped += agg.skipped;
    drafts.insert(drafts.end(), std::make_move_iterator(agg.drafts.begin()),
                  std::make_move_iterator(agg.drafts.end()));
  }
  report.unique_statements = unique_exact.size();
  report.unique_templates = unique_template.size();
  for (size_t r = 0; r < repos.size(); ++r) {
    if (repos[r].files == 0) continue;
    ++report.repos;
    report.files += repos[r].files;
    RepoRow row;
    row.name = repo_names[r];
    row.files = repos[r].files;
    row.statements = repos[r].statements;
    row.findings = repos[r].findings;
    for (int k = 0; k < kAntiPatternCount; ++k) {
      if (repos[r].rule_mask & (1u << k)) {
        ++row.rules;
        ++report.rules[k].repos;
      }
    }
    report.repo_rows.push_back(std::move(row));
  }
  std::sort(report.repo_rows.begin(), report.repo_rows.end(),
            [](const RepoRow& a, const RepoRow& b) { return a.name < b.name; });

  if (store != nullptr) {
    std::sort(drafts.begin(), drafts.end(),
              [](const FileDraft& a, const FileDraft& b) { return a.file < b.file; });
    std::vector<persist::StmtRef> refs;
    for (const FileDraft& d : drafts) {
      refs.clear();
      refs.reserve(d.stmts.size());
      bool manifest_ok = true;
      for (const StmtDraft& sd : d.stmts) {
        if (sd.failed) {
          // Keep appending the healthy statements, but a file with a faulted
          // statement gets no manifest: the next scan must reread it.
          manifest_ok = false;
          continue;
        }
        uint64_t off = sd.offset;
        if (off == kNoOffset) {
          // Dedup is internal to Append: a repeat occurrence (same canonical,
          // possibly staged by an earlier draft) returns the first offset.
          off = store->Append(sd.canonical, sd.exact, sd.tmpl, sd.findings);
        }
        if (off == kNoOffset) {
          manifest_ok = false;  // Log frozen by an injected append fault.
          continue;
        }
        refs.push_back(persist::StmtRef{sd.exact, sd.tmpl, off});
      }
      if (manifest_ok) store->AppendFile(d.rel, d.size, d.mtime_ns, refs);
    }
    store->Close();  // Commits; any commit failure lands in stats().warning.
    summary_.store = store->stats();
  }

  summary_.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return report;
}

}  // namespace sqlcheck::scan
