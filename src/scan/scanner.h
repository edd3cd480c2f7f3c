#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "persist/fingerprint_store.h"
#include "rules/rule.h"

namespace sqlcheck::scan {

/// \brief Options for one corpus scan.
struct ScanOptions {
  /// Fingerprint-store path; empty disables the store (every statement is
  /// analyzed in-process, with an in-run memo only).
  std::string store_path;
  /// Worker shards for the file pipeline. <= 0 means auto: the hardware
  /// thread count, never more (shards past the physical threads only add
  /// contention), and never more than there are files. Explicit positive
  /// values are honored up to the file count.
  int jobs = 0;
};

/// \brief Per-rule prevalence row (Table 3/4 style).
struct RuleRow {
  uint64_t occurrences = 0;  ///< Individual detections.
  uint64_t statements = 0;   ///< Statement occurrences with >= 1 detection.
  uint64_t repos = 0;        ///< Repositories where the rule fires at all.
};

/// \brief Per-repository distribution row (Table 5 style).
struct RepoRow {
  std::string name;
  uint64_t files = 0;
  uint64_t statements = 0;
  uint64_t findings = 0;
  uint64_t rules = 0;  ///< Distinct anti-pattern types present.
};

/// \brief The analysis-only scan report: a pure function of the corpus
/// contents and the rule set. Everything here is digest-covered and must be
/// byte-identical whether the scan ran cold, warm from the store, or with the
/// store disabled — operational counters (store hits, timing) live in
/// ScanSummary instead, because they legitimately differ between those runs.
struct ScanReport {
  uint64_t repos = 0;
  uint64_t files = 0;
  uint64_t statements = 0;
  uint64_t unique_statements = 0;  ///< Distinct exact-canonical forms.
  uint64_t unique_templates = 0;   ///< Distinct literal-collapsed templates.
  uint64_t findings = 0;
  std::array<RuleRow, kAntiPatternCount> rules{};  ///< AntiPattern enum order.
  uint64_t severity_high = 0;
  uint64_t severity_medium = 0;
  uint64_t severity_low = 0;
  std::vector<RepoRow> repo_rows;  ///< Sorted by repository name.

  std::string ToText() const;
  std::string ToJson() const;
};

/// Order-sensitive FNV-1a digest of the serialized report — the identity the
/// cold/warm/store-disabled gate checks.
uint64_t DigestScanReport(const ScanReport& report);

/// \brief Operational telemetry of one scan (not digest-covered).
struct ScanSummary {
  bool store_enabled = false;
  persist::StoreStats store;
  uint64_t analyzed = 0;      ///< Statements analyzed from scratch.
  uint64_t store_reused = 0;  ///< Statement occurrences served by the store.
  uint64_t memo_reused = 0;   ///< Occurrences served by the in-run memo.
  uint64_t files_reused = 0;  ///< Files replayed whole from their manifest.
  uint64_t files_skipped = 0; ///< Unreadable or unclassifiable files.
  int jobs = 1;
  double seconds = 0.0;
};

/// \brief The `sqlcheck scan` driver: walks a directory tree of repositories
/// / SQL dumps, classifies files (extension first, then a content sniff for
/// extensionless dumps), extracts statements (`sql::SplitStatements` for SQL
/// scripts, `sql::ExtractEmbeddedSql` for host-language sources), and
/// analyzes each statement in isolation — a fresh single-statement context
/// against the full rule set, the per-statement prevalence methodology of the
/// paper's GitHub pipeline (§8.1). Isolation is what makes findings a pure
/// function of the exact-canonical fingerprint, so the persistent store can
/// replay them for every later occurrence and a warm scan reports
/// byte-identically to a cold run.
///
/// Reuse works at two granularities. Per statement, a store probe by
/// exact-canonical fingerprint skips analysis. Per file, the store's
/// manifest records — keyed by (root-relative path, size, mtime) — let a
/// warm scan fold an unchanged file's whole contribution without even
/// opening it: on this tier the scan does one stat(2) per file and nothing
/// else, which is what makes warm scans I/O-bound on the directory walk
/// rather than on file reads. A changed file falls back to the statement
/// tier; a changed rule set invalidates the store entirely.
///
/// Files shard across a thread pool (first-level directories are the
/// "repositories" for the distribution tables); shard merge is deterministic
/// in shard order, so reports are byte-stable at any job count.
class CorpusScanner {
 public:
  explicit CorpusScanner(ScanOptions options) : options_(std::move(options)) {}

  /// Scans the tree rooted at `root`. Non-OK only for hard errors (root
  /// missing / store path unwritable); store degradation is reported through
  /// summary().store.warning and the scan proceeds cold.
  Result<ScanReport> Scan(const std::string& root);

  const ScanSummary& summary() const { return summary_; }

 private:
  ScanOptions options_;
  ScanSummary summary_;
};

}  // namespace sqlcheck::scan
