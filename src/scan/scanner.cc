#include "scan/scanner.h"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/mmap_file.h"
#include "common/radix_sort.h"
#include "common/thread_pool.h"
#include "core/emit.h"
#include "core/session.h"
#include "ranking/model.h"
#include "rules/registry.h"
#include "sql/extractor.h"
#include "sql/fingerprint.h"
#include "sql/lexer.h"

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
  std::string rel;       ///< Root-relative path (sort key, freshness key part).
  uint64_t size = 0;     ///< Byte size at discovery (one stat serves all).
  uint64_t mtime_ns = 0; ///< mtime in nanoseconds at discovery.
  FileKind kind = FileKind::kSniff;
};

/// One repository (top-level directory): its files in sorted path order.
struct Repo {
  std::string name;
  std::vector<ScanFile> files;
};

/// The repo-manifest freshness key: total bytes plus an FNV-1a digest over the
/// sorted (rel, size, mtime) triples of every file the repository
/// contributes. Adding, deleting or editing any file changes it.
struct RepoKey {
  uint64_t bytes = 0;
  uint64_t digest = 0;
};

RepoKey KeyOf(const std::vector<const ScanFile*>& files) {
  RepoKey key;
  key.digest = kFnv1aBasis;
  for (const ScanFile* f : files) {
    key.bytes += f->size;
    key.digest = Fnv1a(f->rel.data(), f->rel.size() + 1, key.digest);  // with its NUL
    key.digest = Fnv1a(&f->size, sizeof(f->size), key.digest);
    key.digest = Fnv1a(&f->mtime_ns, sizeof(f->mtime_ns), key.digest);
  }
  return key;
}

/// One statement occurrence of a repository and the record carrying its
/// findings.
struct Occurrence {
  uint64_t exact = 0;
  uint64_t tmpl = 0;
  uint32_t record = 0;
};

/// Everything one repository contributes. The store write-back (`records`,
/// framed by the worker, and `occurrences`) is filled only for repositories
/// analyzed cleanly with a store attached; it is appended serially after the
/// join, in repository order, so the log layout is byte-stable at any job
/// count.
struct RepoResult {
  uint64_t files = 0;
  uint64_t statements = 0;
  uint64_t findings = 0;
  uint32_t rule_mask = 0;
  RepoKey key;
  bool write_back = false;
  persist::FramedRecords records;
  std::vector<Occurrence> occurrences;
};

/// Corpus-wide aggregates of one worker; sums, plus the fingerprint of every
/// occurrence the worker folded (duplicates kept). The merge counts distinct
/// fingerprints over all workers at once, so merging in any order gives the
/// same report.
struct ShardAgg {
  std::array<uint64_t, kAntiPatternCount> occurrences{};
  std::array<uint64_t, kAntiPatternCount> statements_with{};
  uint64_t severity[3] = {0, 0, 0};  ///< high / medium / low.
  std::vector<uint64_t> exact_fps;
  std::vector<uint64_t> template_fps;
  uint64_t analyzed = 0;
  uint64_t store_reused = 0;
  uint64_t files_reused = 0;
  uint64_t skipped = 0;
};

/// Per-worker state: aggregates plus scratch whose capacity persists across
/// repositories.
struct Worker {
  ShardAgg agg;
  std::vector<persist::StmtRef> refs;
  std::vector<std::vector<persist::FindingStat>> replay;
  std::vector<persist::FindingStat> stats;
  sql::TokenBuffer tokens;  ///< Lexes each group's canonical form once.
};

/// Read-only state shared by every worker.
struct ScanShared {
  persist::FingerprintStore* store = nullptr;  ///< Null: no store.
  /// Per AntiPattern: its rule reads the workload context (findings of it
  /// depend on the whole repository, not only on the statement).
  std::array<bool, kAntiPatternCount> workload_sensitive{};
};

/// Counts one statement occurrence and its findings into the aggregates.
void FoldStatement(const std::vector<persist::FindingStat>& findings, uint64_t exact,
                   uint64_t tmpl, ShardAgg& agg, RepoResult& repo) {
  ++repo.statements;
  agg.exact_fps.push_back(exact);
  agg.template_fps.push_back(tmpl);
  uint32_t stmt_mask = 0;
  for (const persist::FindingStat& f : findings) {
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

/// The warm path: when the store holds a manifest for the repository's
/// current key and every referenced record resolves, fold the repository's
/// whole contribution without opening a file. Resolution is all-or-nothing,
/// so a partial replay can never skew the report.
bool ReplayRepo(const std::string& manifest, size_t files, Worker& w,
                persist::FingerprintStore* store, RepoResult* out) {
  if (!store->ProbeFile(manifest, out->key.bytes, out->key.digest, &w.refs)) return false;
  w.replay.resize(w.refs.size());
  for (size_t i = 0; i < w.refs.size(); ++i) {
    if (!store->ResolveStats(w.refs[i].offset, w.refs[i].exact, &w.replay[i], nullptr)) {
      return false;
    }
  }
  out->files = files;
  w.agg.files_reused += files;
  w.agg.store_reused += w.refs.size();
  for (size_t i = 0; i < w.refs.size(); ++i) {
    FoldStatement(w.replay[i], w.refs[i].exact, w.refs[i].tmpl, w.agg, *out);
  }
  return true;
}

/// Feeds a repository's files to `session` in path order: SQL scripts
/// through AddScript, embedded SQL from host-language sources through
/// AddQuery. False when a file could not be read or an append recorded a
/// statement failure — the session's findings are then not stored.
bool FeedSession(const std::vector<const ScanFile*>& files, AnalysisSession& session,
                 Worker& w, RepoResult* out) {
  bool healthy = true;
  for (const ScanFile* file : files) {
    MappedFile map;
    if (!map.Open(file->path).ok()) {
      ++w.agg.skipped;
      healthy = false;  // Unreadable now; the next scan must retry the repo.
      continue;
    }
    ++out->files;
    if (file->kind == FileKind::kSource) {
      for (const sql::EmbeddedSql& embedded : sql::ExtractEmbeddedSql(map.view())) {
        session.AddQuery(embedded.sql);
        healthy = healthy && session.recent_failures().empty();
      }
    } else {
      session.AddScript(map.view());
      healthy = healthy && session.recent_failures().empty();
    }
  }
  return healthy;
}

/// The cold path: one AnalysisSession over the whole repository, so
/// inter-query rules see its DDL and sibling queries exactly as file mode
/// over the same statements does. Each statement's findings are folded into
/// the aggregates and, with `write_back`, drafted for the store.
void AnalyzeRepo(const std::vector<const ScanFile*>& files, bool write_back,
                 const ScanShared& shared, Worker& w, RepoResult* out) {
  SqlCheckOptions options;
  options.suggest_fixes = false;
  options.dedup_queries = true;  // The records are keyed by the dedup memo's groups.
  AnalysisSession session(options);
  Report report;
  try {
    write_back = FeedSession(files, session, w, out) && write_back;
    report = session.Snapshot();
  } catch (...) {
    // A fault outside the session's own recovery (e.g. real memory
    // exhaustion while ranking) must not take the scan down: count the
    // statements the session holds, without findings, and write nothing.
    write_back = false;
  }
  out->write_back = write_back;

  const size_t n = session.context().queries().size();

  // Findings back to their statement occurrences: (statement, finding) pairs
  // sorted by statement keep each statement's findings in report order.
  // Repeats of one text share a parse tree, so the occurrence index is the
  // key, not the tree. Only data detections carry no statement, and a scan
  // attaches no database.
  std::vector<std::pair<size_t, size_t>> owned;
  owned.reserve(report.findings.size());
  for (size_t f = 0; f < report.findings.size(); ++f) {
    const size_t statement = report.findings[f].ranked.detection.statement;
    if (statement < n) owned.emplace_back(statement, f);
  }
  std::sort(owned.begin(), owned.end());

  // The session's dedup memo already holds each group's exact-canonical form
  // and every statement's exact fingerprint; only the template fingerprint
  // is computed here, once per group.
  const QueryGroups& groups = session.context().query_groups();
  std::vector<uint64_t> tmpl(groups.unique_count());
  for (size_t u = 0; u < tmpl.size(); ++u) {
    if (!groups.canonical[u].empty()) {
      tmpl[u] = sql::TemplateFingerprintOfExact(groups.canonical[u], w.tokens);
    }
  }

  // A record's findings must be a function of its key. Statement-local
  // findings are the same wherever the statement occurs; a workload finding
  // holds only for this repository's contents, so its record is keyed by the
  // repository digest too. A session's groups and canonical texts are one to
  // one, so within a repository the key is indexed by (group, workload)
  // without being built until its record is framed.
  std::vector<uint32_t> record_of(2 * groups.unique_count(), UINT32_MAX);
  std::string key;
  size_t cursor = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t u = groups.group[i];
    const std::string_view canonical = groups.canonical[u];
    const uint64_t exact = groups.fingerprints[i];
    const size_t first = cursor;
    while (cursor < owned.size() && owned[cursor].first == i) ++cursor;
    if (canonical.empty()) continue;  // Comment-only / whitespace-only fragment.

    w.stats.clear();
    bool workload = false;
    for (size_t k = first; k < cursor; ++k) {
      const RankedDetection& r = report.findings[owned[k].second].ranked;
      w.stats.push_back(
          persist::FindingStat{static_cast<uint8_t>(r.detection.type), r.score});
      workload = workload ||
                 shared.workload_sensitive[static_cast<size_t>(r.detection.type)];
    }
    ++w.agg.analyzed;
    FoldStatement(w.stats, exact, tmpl[u], w.agg, *out);
    if (!write_back) continue;

    uint32_t& record = record_of[2 * u + (workload ? 1 : 0)];
    if (record == UINT32_MAX) {
      record = static_cast<uint32_t>(out->records.size());
      key.assign(canonical);
      if (workload) {
        key.push_back('\0');
        key.append(reinterpret_cast<const char*>(&out->key.digest), sizeof(uint64_t));
      }
      persist::FingerprintStore::FrameRecord(key, exact, tmpl[u], w.stats, &out->records);
    }
    out->occurrences.push_back(Occurrence{exact, tmpl[u], record});
  }
}

/// One repository end to end: content-sniff extensionless files, then replay
/// the repo manifest or analyze the repository whole.
void ProcessRepo(const Repo& repo, const ScanShared& shared, Worker& w, RepoResult* out) {
  std::vector<const ScanFile*> files;
  files.reserve(repo.files.size());
  bool readable = true;
  for (const ScanFile& file : repo.files) {
    if (file.kind == FileKind::kSniff) {
      MappedFile map;
      if (!map.Open(file.path).ok()) {
        ++w.agg.skipped;
        readable = false;
        continue;
      }
      std::string_view head = map.view().substr(0, std::min<size_t>(map.size(), 2048));
      if (!LooksLikeSql(head)) {
        // Sniff rejects never count as corpus files (nor enter the key).
        ++w.agg.skipped;
        continue;
      }
    }
    files.push_back(&file);
  }
  if (files.empty()) return;
  out->key = KeyOf(files);
  if (readable && shared.store != nullptr &&
      ReplayRepo(repo.name + "/", files.size(), w, shared.store, out)) {
    return;
  }
  AnalyzeRepo(files, readable && shared.store != nullptr, shared, w, out);
}

/// Number of distinct values, sorting `values` in place.
uint64_t CountDistinct(std::vector<uint64_t>& values) {
  RadixSortBy(values, [](uint64_t v) { return v; });
  return static_cast<uint64_t>(std::unique(values.begin(), values.end()) - values.begin());
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
  return Fnv1a(report.ToJson());
}

Result<ScanReport> CorpusScanner::Scan(const std::string& root) {
  auto t0 = std::chrono::steady_clock::now();
  summary_ = ScanSummary{};

  const RuleRegistry registry = RuleRegistry::Default();
  ScanShared shared;
  for (const auto& rule : registry.rules()) {
    shared.workload_sensitive[static_cast<size_t>(rule->type())] =
        rule->query_scope() != QueryRuleScope::kStatementLocal;
  }

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
  shared.store = store.get();

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
  // itself), sorted by root-relative path so the ordering — and with it
  // repo numbering, each session's feed order and the store append order —
  // is byte-stable. One stat per file covers regularity, size, and mtime: the
  // freshness key.
  std::vector<ScanFile> discovered;
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
    ScanFile file;
    file.rel = entry.path().lexically_relative(root_path).generic_string();
    file.kind = ClassifyExtension(LowerExt(fs::path(file.rel)));
    if (file.kind == FileKind::kIgnore) continue;
    file.path = entry.path().string();
    file.size = static_cast<uint64_t>(st.st_size);
    file.mtime_ns = static_cast<uint64_t>(st.st_mtim.tv_sec) * 1000000000ull +
                    static_cast<uint64_t>(st.st_mtim.tv_nsec);
    discovered.push_back(std::move(file));
  }
  std::sort(discovered.begin(), discovered.end(),
            [](const ScanFile& a, const ScanFile& b) { return a.rel < b.rel; });

  std::vector<Repo> repos;
  std::map<std::string, size_t> repo_index;
  for (ScanFile& file : discovered) {
    size_t slash = file.rel.find('/');
    std::string name = slash == std::string::npos ? "(root)" : file.rel.substr(0, slash);
    auto [rit, inserted] = repo_index.emplace(name, repos.size());
    if (inserted) repos.push_back(Repo{std::move(name), {}});
    repos[rit->second].files.push_back(std::move(file));
  }

  int jobs = options_.jobs;
  if (jobs <= 0) jobs = ThreadPool::ResolveParallelism(0);  // hardware clamp
  jobs = std::min(jobs, static_cast<int>(std::max<size_t>(repos.size(), 1)));
  summary_.jobs = jobs;

  // Workers pull repositories off a shared counter (repositories vary in
  // size); results land in per-repository slots, so the merge below does not
  // depend on which worker took which repository.
  std::vector<Worker> workers(static_cast<size_t>(jobs));
  std::vector<RepoResult> results(repos.size());
  std::atomic<size_t> next{0};
  auto pull = [&](Worker& w) {
    for (size_t r; (r = next.fetch_add(1, std::memory_order_relaxed)) < repos.size();) {
      ProcessRepo(repos[r], shared, w, &results[r]);
    }
  };
  if (jobs == 1) {
    pull(workers[0]);
  } else {
    ThreadPool pool(jobs);
    for (Worker& w : workers) pool.Submit([&pull, &w] { pull(w); });
    pool.Wait();
  }

  ScanReport report;
  std::vector<uint64_t> exact_fps;
  std::vector<uint64_t> template_fps;
  for (Worker& w : workers) {
    const ShardAgg& agg = w.agg;
    for (int k = 0; k < kAntiPatternCount; ++k) {
      report.rules[k].occurrences += agg.occurrences[k];
      report.rules[k].statements += agg.statements_with[k];
    }
    report.severity_high += agg.severity[0];
    report.severity_medium += agg.severity[1];
    report.severity_low += agg.severity[2];
    exact_fps.insert(exact_fps.end(), agg.exact_fps.begin(), agg.exact_fps.end());
    template_fps.insert(template_fps.end(), agg.template_fps.begin(), agg.template_fps.end());
    summary_.analyzed += agg.analyzed;
    summary_.store_reused += agg.store_reused;
    summary_.files_reused += agg.files_reused;
    summary_.files_skipped += agg.skipped;
  }
  report.unique_statements = CountDistinct(exact_fps);
  report.unique_templates = CountDistinct(template_fps);
  for (size_t r = 0; r < repos.size(); ++r) {
    const RepoResult& res = results[r];
    if (res.files == 0) continue;
    ++report.repos;
    report.files += res.files;
    report.statements += res.statements;
    report.findings += res.findings;
    RepoRow row;
    row.name = repos[r].name;
    row.files = res.files;
    row.statements = res.statements;
    row.findings = res.findings;
    for (int k = 0; k < kAntiPatternCount; ++k) {
      if (res.rule_mask & (1u << k)) {
        ++row.rules;
        ++report.rules[k].repos;
      }
    }
    report.repo_rows.push_back(std::move(row));
  }
  std::sort(report.repo_rows.begin(), report.repo_rows.end(),
            [](const RepoRow& a, const RepoRow& b) { return a.name < b.name; });

  if (store != nullptr) {
    // Write-back in repository order: the records first (AppendFramed dedups
    // by key, so a record another repository already wrote is shared), then
    // the manifest that references them.
    std::vector<uint64_t> offsets;
    std::vector<persist::StmtRef> refs;
    for (size_t r = 0; r < repos.size(); ++r) {
      RepoResult& res = results[r];
      if (!res.write_back) continue;
      offsets.clear();
      for (size_t k = 0; k < res.records.size(); ++k) {
        uint64_t off = store->AppendFramed(res.records, k);
        if (off == kNoOffset) break;  // Log frozen by an injected append fault.
        offsets.push_back(off);
      }
      if (offsets.size() != res.records.size()) continue;
      refs.clear();
      refs.reserve(res.occurrences.size());
      for (const Occurrence& occ : res.occurrences) {
        refs.push_back(persist::StmtRef{occ.exact, occ.tmpl, offsets[occ.record]});
      }
      store->AppendFile(repos[r].name + "/", res.key.bytes, res.key.digest, refs);
      res = RepoResult{};  // Release the drafts early.
    }
    store->Close();  // Commits; any commit failure lands in stats().warning.
    summary_.store = store->stats();
  }

  summary_.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return report;
}

}  // namespace sqlcheck::scan
