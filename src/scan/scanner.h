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
  /// Fingerprint-store path; empty disables the store (every repository is
  /// analyzed in-process).
  std::string store_path;
  /// Worker threads; each analyzes whole repositories. <= 0 means auto: the
  /// hardware thread count, never more (workers past the physical threads
  /// only add contention), and never more than there are repositories.
  /// Explicit positive values are honored up to the repository count.
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
  uint64_t analyzed = 0;      ///< Statement occurrences of re-analyzed repositories.
  uint64_t store_reused = 0;  ///< Statement occurrences replayed from repo manifests.
  uint64_t files_reused = 0;  ///< Files of repositories replayed whole.
  uint64_t files_skipped = 0; ///< Unreadable or sniff-rejected files.
  int jobs = 1;
  double seconds = 0.0;
};

/// \brief The `sqlcheck scan` driver: walks a directory tree of repositories
/// / SQL dumps, classifies files (extension first, then a content sniff for
/// extensionless dumps), and analyzes each repository — a top-level
/// directory — as one AnalysisSession fed its files in sorted path order
/// (SQL scripts through AddScript, embedded SQL from host-language sources
/// through AddQuery). Inter-query rules therefore see the repository's DDL
/// and sibling queries, so a repository's findings equal file mode's over
/// the same statements, and the report counts them per project, as
/// prevalence studies do.
///
/// Reuse works per repository. The store's manifest for `"<repo>/"` is keyed
/// by the repository's total bytes and an FNV digest over the sorted (path,
/// size, mtime) triples of its files: when the key matches, the scan folds
/// the repository's whole contribution from the store without opening a
/// file. Any added, deleted or edited file changes the key, and the whole
/// repository is analyzed again. A statement record is keyed by its
/// exact-canonical text when every finding on it is statement-local, and by
/// that text plus the repository digest otherwise, so a record's findings
/// are always a function of its key. A changed rule set invalidates the
/// store entirely.
///
/// Repositories are distributed over a thread pool and merged in repository
/// order, so reports and the store layout are byte-stable at any job count.
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
